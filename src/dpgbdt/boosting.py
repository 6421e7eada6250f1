"""Ensemble training and prediction.

The trainer executes the federated protocol batch by batch: gradients are
recomputed only at batch boundaries, trees inside a batch share those
gradients, and the batch's leaf weights fold into client scores in a single
update (``update_scores``). With batch size 1 the update is plain boosting
(raw score plus leaf weight); larger batches add eta * (sigmoid(mean leaf
weight) - 1/2), so that a zero-weight batch leaves predictions unchanged.
Averaging (random-forest) ensembles are one batch of all T trees: they skip
score updates entirely and predict the mean leaf proportion.

All data access happens through a FederatedAggregator; the functions here see
only query results and public model state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accounting import (
    InvalidParameterError,
    QueryCounter,
    Round,
    calibrate_sigma,
    count_queries,
    refined_features,
)
from .candidates import (
    SplitCandidateSet,
    iterative_hessian_refine,
    log_candidates,
    quantile_candidates,
    uniform_candidates,
)
from .config import CandidateMethod, NoisePlacement, TrainConfig
from .data import check_bounds, json_int, json_keys, json_number, philox
from .federation import ClientPopulation, CommLedger, FederatedAggregator, FixedPointCodec
from .gradients import (
    UpdateMode,
    batch_ranges,
    query_sensitivity,
    sigmoid,
    sum_vectors,
    update_scores,
)
from .trees import (
    SplitMethod,
    Tree,
    grow_tree,
    grow_tree_totally_random,
    leaf_weight,
    postprocess_weight,
    select_features,
)

__all__ = ["Ensemble", "TrainResult", "train", "run_record", "predict", "raw_scores"]

# The keys of the model JSON, exactly those ``Ensemble.to_json_dict`` writes.
_MODEL_KEYS = {"update_mode", "eta", "batch_size", "bounds", "trees"}


@dataclass
class Ensemble:
    """Ordered trees plus the update semantics needed to replay predictions."""

    trees: list[Tree]
    update_mode: UpdateMode
    eta: float
    batch_size: int
    bounds: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "update_mode": self.update_mode.value,
            "eta": self.eta,
            "batch_size": self.batch_size,
            "bounds": [list(b) for b in self.bounds],
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Ensemble":
        """Ensemble from its JSON form.

        Raises InvalidParameterError for a tree that is not complete
        (``Tree.from_dict``), a non-finite threshold or leaf weight, a split
        feature outside [0, len(bounds)), a bound pair that is not finite
        with low < high (``check_bounds``), a non-finite or non-positive eta,
        or a batch_size below 1. Keys other than exactly those
        ``to_json_dict`` writes raise it too, as does a value of the wrong
        type: ``batch_size`` must be a JSON integer, and eta and the bounds
        JSON numbers.
        """
        try:
            json_keys(payload, _MODEL_KEYS, "model JSON")
            ensemble = cls(
                trees=[Tree.from_dict(t) for t in payload["trees"]],
                update_mode=UpdateMode(payload["update_mode"]),
                eta=json_number(payload["eta"], "eta"),
                batch_size=json_int(payload["batch_size"], "batch_size"),
                bounds=check_bounds(payload["bounds"]),
            )
        except InvalidParameterError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed model JSON: {exc!r}") from exc
        if not (math.isfinite(ensemble.eta) and ensemble.eta > 0):
            raise InvalidParameterError(f"eta must be positive and finite, got {ensemble.eta}")
        m = len(ensemble.bounds)
        for i, tree in enumerate(ensemble.trees):
            if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.leaf_weights).all()):
                raise InvalidParameterError(f"tree {i} has a non-finite threshold or leaf weight")
            if tree.feature.size and not (0 <= tree.feature.min() and tree.feature.max() < m):
                raise InvalidParameterError(f"tree {i} splits on a feature outside [0, {m})")
        if ensemble.batch_size < 1:
            raise InvalidParameterError(f"batch_size must be at least 1, got {ensemble.batch_size}")
        return ensemble

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "Ensemble":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class TrainResult:
    """Trained ensemble plus the aggregation rounds the run executed; its
    query ledger and comm counters are folds over those rounds."""

    ensemble: Ensemble
    rounds: list[Round]
    sigma: float
    config: TrainConfig

    @property
    def queries(self) -> QueryCounter:
        return QueryCounter.from_rounds(self.rounds)

    @property
    def comm_rounds(self) -> int:
        return len(self.rounds)

    @property
    def comm_uplink_values(self) -> int:
        return sum(r.uplink for r in self.rounds)


def _initial_candidates(config: TrainConfig, agg: FederatedAggregator) -> SplitCandidateSet:
    bounds = agg.pop.bounds
    if config.candidate_method is CandidateMethod.LOG:
        return log_candidates(bounds, config.Q)
    if config.candidate_method is CandidateMethod.QUANTILE:
        per = tuple(
            quantile_candidates(agg.nonprivate_feature_column(j), config.Q, bounds[j])
            for j in range(agg.pop.m)
        )
        return SplitCandidateSet(per, bounds)
    # uniform start; iterative-Hessian refinement also boots from uniform
    return uniform_candidates(bounds, config.Q)


def _assign_weights(tree: Tree, sums: np.ndarray, config: TrainConfig) -> None:
    """Fill the tree's leaf weights from its (2^d, 2) leaf (G, H) sums."""
    raw = leaf_weight(sums[:, 0], sums[:, 1], config.lam, config.update_mode)
    if config.update_mode is UpdateMode.AVERAGING:
        tree.leaf_weights[:] = raw
    else:
        tree.leaf_weights[:] = postprocess_weight(raw, config.eta, config.beta)


def _noise(config: TrainConfig, queries: QueryCounter) -> tuple[float, float | None]:
    """The noise multiplier sigma calibrated to ``config.budget`` over
    ``queries``, and the std sigma * sensitivity of every Gaussian a release
    adds; (0.0, None) without a budget."""
    if config.budget is None:
        return 0.0, None
    sigma = calibrate_sigma(config.budget, queries)
    return sigma, sigma * query_sensitivity(config.update_mode)


def run_record(config: TrainConfig, rounds: Sequence[Round]) -> dict:
    """Every claim of a run of ``config`` that executes ``rounds``, flat.

    The config's flat fields with its ``epsilon`` and ``delta``; whether the
    split candidates read pooled raw feature values (quantile candidates,
    outside the guarantee); the queries of ``rounds`` by kind, the sigma
    ``train`` calibrates for them and the noise std it adds (sigma 0.0 and
    std None without a budget); and the round count, the largest per-round
    payload and the uplink total (``CommLedger``). Keys shared with the
    results CSV carry its column names. Given ``accounting.plan(config)`` it
    is what a run will claim; given ``TrainResult.rounds``, what it did.
    """
    queries = QueryCounter.from_rounds(rounds)
    sigma, noise_std = _noise(config, queries)
    comm = CommLedger.from_rounds(rounds)
    return {
        **config.to_flat_dict(),
        "nonprivate_candidates": config.candidate_method is CandidateMethod.QUANTILE,
        "kappa_c": queries.kappa_c,
        "kappa_s": queries.kappa_s,
        "kappa_w": queries.kappa_w,
        "sigma": sigma,
        "noise_std": noise_std,
        "comm_rounds": comm.rounds,
        "per_round_payload": comm.per_round_payload,
        "comm_uplink_values": comm.uplink_values,
    }


def train(
    config: TrainConfig,
    population: ClientPopulation,
    codec: FixedPointCodec | None = None,
) -> TrainResult:
    """Run the full federated protocol for one configuration.

    Calibrates the noise multiplier from the configuration's exact query
    count when a budget is set, then builds T trees with gradient barriers at
    every batch boundary. Deterministic given config.seed (structure draws
    and the noise stream use independent Philox streams).
    """
    if config.m is None:
        config = config.replace(m=population.m)
    elif config.m != population.m:
        raise InvalidParameterError(
            f"config declares m={config.m} but the population has m={population.m}"
        )

    if config.budget is not None and population.bounds_derived:
        raise InvalidParameterError(
            "private training requires declared public feature bounds; "
            "these bounds were derived from the data"
        )
    sigma, noise_std = _noise(config, count_queries(config))

    ss_structure, ss_noise = np.random.SeedSequence(config.seed).spawn(2)
    rng = philox(ss_structure)
    agg = FederatedAggregator(
        population,
        codec=codec,
        noise_std=noise_std,
        noise_seed=ss_noise,
        local_noise=config.noise_placement is NoisePlacement.LOCAL,
    )
    cands = _initial_candidates(config, agg)

    is_tr = config.split_method is SplitMethod.TOTALLY_RANDOM
    # a batch holds one leaf index per record per tree, in the narrowest
    # unsigned dtype that holds 2^d - 1 (one byte up to d = 8)
    leaf_dtype = np.min_scalar_type(2**config.d - 1)
    trees: list[Tree] = []
    root_hessians: dict[int, np.ndarray] = {}  # the previous tree's, under hist

    for start, end in config.batches:
        agg.recompute_gradients(config.update_mode)
        batch: list[tuple[Tree, np.ndarray]] = []
        for t in range(start, end):
            F = select_features(config.feature_mode.value, config.resolved_k(), t, config.m, rng)

            if config.candidate_method is CandidateMethod.ITERATIVE_HESSIAN:
                if config.split_method is SplitMethod.HIST:
                    # free refinement from the previous tree's root histograms
                    if 0 < t <= config.ih_rounds:
                        cands = iterative_hessian_refine(root_hessians, cands)
                elif t < config.ih_rounds:
                    # a root histogram round whose Hessian half refines the candidates
                    feats = refined_features(config, F)
                    agg.begin_tree()
                    res = agg.histogram_round([0], feats, cands, category="c")
                    cands = iterative_hessian_refine(dict(zip(feats, res[:, 0, :, 1])), cands)

            if is_tr:
                tree = grow_tree_totally_random(rng, F, cands, config.d, agg)
            else:
                tree, sums, root_hessians = grow_tree(
                    agg, rng, config.split_method, F, cands, config.d, config.lam, config.gamma
                )
                _assign_weights(tree, sums, config)
            # clients have descended every level: each record sits at its leaf
            assign = agg.node - tree.feature.size
            batch.append((tree, assign.astype(leaf_dtype)))

        if is_tr:
            sums = agg.leaf_round([assign for _, assign in batch], 2**config.d)
            for (tree, _), leaf_sums in zip(batch, sums):
                _assign_weights(tree, leaf_sums, config)
        if config.update_mode is not UpdateMode.AVERAGING:
            agg.apply_score_update(batch, config.eta, plain=(config.B == 1))
        trees.extend(tree for tree, _ in batch)

    ensemble = Ensemble(
        trees=trees,
        update_mode=config.update_mode,
        eta=config.eta,
        batch_size=config.B,
        bounds=population.bounds,
    )
    return TrainResult(ensemble=ensemble, rounds=agg.rounds, sigma=sigma, config=config)


def _checked_features(ensemble: Ensemble, X) -> np.ndarray:
    """X as a finite n x m float matrix, clamped to the ensemble's bounds and
    held feature-major, so that every tree's routing reads contiguous columns."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (ensemble.bounds and X.shape[1] != len(ensemble.bounds)):
        raise InvalidParameterError(
            f"expected an n x {len(ensemble.bounds)} matrix, got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise InvalidParameterError("features must be finite (no NaN or infinity)")
    if not ensemble.bounds:
        return np.asfortranarray(X)
    lo = np.array([a for a, _ in ensemble.bounds])
    hi = np.array([b for _, b in ensemble.bounds])
    return np.clip(X, lo, hi, out=np.empty(X.shape, order="F"))


def raw_scores(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Accumulated raw (pre-sigmoid) scores under the ensemble's batch semantics."""
    if ensemble.update_mode is UpdateMode.AVERAGING:
        raise InvalidParameterError("averaging ensembles have no raw-score accumulation")
    Xc = _checked_features(ensemble, X)
    raw = np.zeros(Xc.shape[0])
    for start, end in batch_ranges(len(ensemble.trees), ensemble.batch_size):
        weights = (tree.leaf_weights.take(tree.route(Xc)) for tree in ensemble.trees[start:end])
        raw = update_scores(raw, weights, ensemble.eta, plain=(ensemble.batch_size == 1))
    return raw


def predict(ensemble: Ensemble, x: np.ndarray) -> np.ndarray | float:
    """Probability of the positive class for one record or a matrix of records.

    Boosted ensembles apply the sigmoid to the accumulated raw score (an
    empty ensemble predicts 0.5); averaging ensembles return the mean leaf
    proportion, clipped to [0, 1] because noise can push it outside.
    Out-of-bounds feature values are clamped; NaN and infinite values are
    rejected.
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if ensemble.update_mode is UpdateMode.AVERAGING:
        if not ensemble.trees:
            raise InvalidParameterError("averaging ensemble has no trees to average")
        Xc = _checked_features(ensemble, X)
        weights = (tree.leaf_weights.take(tree.route(Xc)) for tree in ensemble.trees)
        total, count = sum_vectors(weights, (Xc.shape[0],))
        total /= count
        probs = np.clip(total, 0.0, 1.0, out=total)
    else:
        probs = sigmoid(raw_scores(ensemble, X))
    return float(probs[0]) if single else probs
