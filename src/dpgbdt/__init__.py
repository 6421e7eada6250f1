"""Federated gradient-boosted decision trees under (epsilon, delta) differential privacy.

Train GBDT/RF ensembles on horizontally partitioned data through a simulated
fixed-point secure-aggregation layer, with exact query-count accounting,
Gaussian-mechanism noise calibrated on the exact Gaussian-DP curve, and
communication-cost reporting.
"""

from .accounting import (
    PrivacyBudget,
    QueryCounter,
    Round,
    calibrate_sigma,
    count_queries,
    gdp_delta,
    plan,
)
from .boosting import Ensemble, TrainResult, predict, raw_scores, run_record, train
from .candidates import (
    SplitCandidateSet,
    iterative_hessian_refine,
    log_candidates,
    quantile_candidates,
    uniform_candidates,
)
from .config import CandidateMethod, FeatureMode, NoisePlacement, TrainConfig
from .data import Dataset, SplitPair, load_csv, synthesize, train_test_split
from .federation import (
    ClientPopulation,
    CommLedger,
    FederatedAggregator,
    FixedPointCodec,
    comm_accounting,
    partition,
)
from .gradients import UpdateMode, bce_gradients, mode_gradients, query_sensitivity
from .harness import (
    ExperimentResult,
    auc_roc,
    baseline_preset,
    budget_for,
    rank_table,
    run_grid,
    run_single,
)
from .trees import (
    SplitMethod,
    Tree,
    leaf_weight,
    postprocess_weight,
    select_features,
    split_score,
)

__version__ = "0.1.0"
