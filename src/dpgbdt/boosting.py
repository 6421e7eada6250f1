"""Ensemble training and prediction.

The trainer executes the federated protocol batch by batch: gradients are
recomputed only at batch boundaries, trees inside a batch share those
gradients, and the batch's leaf weights fold into client scores in a single
update. With batch size 1 the update is plain boosting (raw score plus leaf
weight); larger batches push the averaged leaf weight through a centered
sigmoid so that a zero-weight batch leaves predictions unchanged. Averaging
(random-forest) ensembles skip score updates entirely and predict the mean
leaf proportion.

All data access happens through a FederatedAggregator; the functions here see
only query results and public model state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .accounting import (
    InvalidParameterError,
    NoiseScale,
    QueryCounter,
    calibrate_sigma,
    count_queries,
)
from .candidates import (
    HessianHistogram,
    SplitCandidateSet,
    iterative_hessian_refine,
    log_candidates,
    quantile_candidates,
    uniform_candidates,
)
from .config import CandidateMethod, FeatureMode, NoisePlacement, TrainConfig
from .data import philox
from .federation import ClientPopulation, FederatedAggregator, FixedPointCodec
from .gradients import UpdateMode, query_sensitivity, sigmoid
from .trees import (
    SplitMethod,
    Tree,
    grow_tree_histogram,
    grow_tree_partially_random,
    grow_tree_single_feature,
    grow_tree_totally_random,
    leaf_weight,
    postprocess_weight,
    select_features,
)

__all__ = ["Ensemble", "TrainResult", "train", "predict", "raw_scores", "batched_update"]


@dataclass
class Ensemble:
    """Ordered trees plus the update semantics needed to replay predictions."""

    trees: list[Tree]
    update_mode: UpdateMode
    eta: float
    batch_size: int
    centered_batch: bool
    batch_boundaries: tuple[tuple[int, int], ...]
    bounds: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "update_mode": self.update_mode.value,
            "eta": self.eta,
            "batch_size": self.batch_size,
            "centered_batch": self.centered_batch,
            "batch_boundaries": [list(b) for b in self.batch_boundaries],
            "bounds": [list(b) for b in self.bounds],
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Ensemble":
        return cls(
            trees=[Tree.from_dict(t) for t in payload["trees"]],
            update_mode=UpdateMode(payload["update_mode"]),
            eta=float(payload["eta"]),
            batch_size=int(payload["batch_size"]),
            centered_batch=bool(payload["centered_batch"]),
            batch_boundaries=tuple((int(s), int(e)) for s, e in payload["batch_boundaries"]),
            bounds=tuple((float(a), float(b)) for a, b in payload["bounds"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "Ensemble":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class TrainResult:
    """Trained ensemble plus the run's observed accounting."""

    ensemble: Ensemble
    queries: QueryCounter
    sigma: float
    comm_rounds: int
    comm_uplink_values: int
    nonprivate_candidates: bool
    config: TrainConfig


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


def _refine(cands: SplitCandidateSet, hessians: dict[int, np.ndarray], Q: int) -> SplitCandidateSet:
    per = tuple(hessians.get(j) for j in range(cands.n_features))
    return iterative_hessian_refine(HessianHistogram(per), cands, Q)


def _assign_weights(tree: Tree, stats: dict[int, tuple[float, float]], config: TrainConfig) -> None:
    weights = np.zeros(tree.n_leaves)
    for leaf, (g_sum, h_sum) in stats.items():
        raw = leaf_weight(g_sum, h_sum, config.lam, config.update_mode)
        if config.update_mode is UpdateMode.AVERAGING:
            weights[leaf] = raw
        else:
            weights[leaf] = postprocess_weight(raw, config.eta, config.beta)
    tree.set_leaf_weights(weights)


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
        config = config.with_m(population.m)
    elif config.m != population.m:
        raise InvalidParameterError(
            f"config declares m={config.m} but the population has m={population.m}"
        )
    k = config.resolved_k()
    m = config.m

    counter = count_queries(config)
    sigma = 0.0
    noise = None
    if config.budget is not None:
        if population.bounds_derived:
            raise InvalidParameterError(
                "private training requires declared public feature bounds; "
                "these bounds were derived from the data"
            )
        sigma = calibrate_sigma(config.budget, counter)
        noise = NoiseScale(sigma, query_sensitivity(config.update_mode))

    ss_structure, ss_noise = np.random.SeedSequence(config.seed).spawn(2)
    rng = philox(ss_structure)
    agg = FederatedAggregator(
        population,
        codec=codec,
        noise=noise,
        noise_seed=ss_noise,
        local_noise=config.noise_placement is NoisePlacement.LOCAL,
    )
    cands = _initial_candidates(config, agg)

    B = config.effective_batch_size
    n_leaves = 2 ** config.d
    is_tr = config.split_method is SplitMethod.TOTALLY_RANDOM
    trees: list[Tree] = []
    boundaries: list[tuple[int, int]] = []
    batch: list[tuple[Tree, np.ndarray]] = []
    hist_refines_done = 0
    prev_root_hessians: dict[int, np.ndarray] | None = None

    for t in range(config.T):
        if t % B == 0:
            agg.recompute_gradients(config.update_mode)

        F = select_features(config.feature_mode.value, k, t, m, rng)

        if config.candidate_method is CandidateMethod.ITERATIVE_HESSIAN:
            if config.split_method is SplitMethod.HIST:
                # free refinement from the previous tree's root histograms
                if prev_root_hessians is not None and hist_refines_done < config.ih_rounds:
                    cands = _refine(cands, prev_root_hessians, config.Q)
                    hist_refines_done += 1
            elif t < config.ih_rounds:
                if config.feature_mode is FeatureMode.CYCLICAL or k == m:
                    refine_feats: tuple[int, ...] = tuple(range(m))
                else:
                    refine_feats = F
                hessians = agg.hessian_round(refine_feats, cands)
                cands = _refine(cands, hessians, config.Q)

        if is_tr:
            tree = grow_tree_totally_random(rng, F, cands, config.d)
            batch.append((tree, agg.route_tree(tree)))
        else:
            if k == 1:
                tree, stats, root_hess = grow_tree_single_feature(
                    agg, rng, config.split_method, F[0], cands, config.d, config.lam, config.gamma
                )
            elif config.split_method is SplitMethod.HIST:
                tree, stats, root_hess = grow_tree_histogram(
                    agg, F, cands, config.d, config.lam, config.gamma
                )
            else:
                tree, stats = grow_tree_partially_random(
                    agg, rng, F, cands, config.d, config.lam, config.gamma
                )
                root_hess = None
            if config.split_method is SplitMethod.HIST:
                prev_root_hessians = root_hess
            _assign_weights(tree, stats, config)
            batch.append((tree, agg.route_tree(tree)))

        if len(batch) == B or t == config.T - 1:
            if is_tr:
                sums = agg.leaf_round([assign for _, assign in batch], n_leaves)
                for (tree, _), leaf_sums in zip(batch, sums):
                    stats = {i: (float(leaf_sums[i, 0]), float(leaf_sums[i, 1])) for i in range(n_leaves)}
                    _assign_weights(tree, stats, config)
            if config.update_mode is not UpdateMode.AVERAGING:
                agg.apply_score_update(
                    batch, config.eta, plain=(config.B == 1), centered=config.centered_batch
                )
            start = t + 1 - len(batch)
            boundaries.append((start, t + 1))
            trees.extend(tree for tree, _ in batch)
            batch = []

    ensemble = Ensemble(
        trees=trees,
        update_mode=config.update_mode,
        eta=config.eta,
        batch_size=config.B,
        centered_batch=config.centered_batch,
        batch_boundaries=tuple(boundaries),
        bounds=population.bounds,
    )
    return TrainResult(
        ensemble=ensemble,
        queries=agg.ledger.snapshot(),
        sigma=sigma,
        comm_rounds=agg.comm_rounds,
        comm_uplink_values=agg.comm_uplink,
        nonprivate_candidates=agg.nonprivate_candidate_access,
        config=config,
    )


def batched_update(
    prev_scores: np.ndarray,
    batch_trees: list[Tree],
    X: np.ndarray,
    eta: float,
    centered: bool = True,
) -> np.ndarray:
    """One batched prediction update: squash the mean leaf weight per record.

    new = prev + eta * (sigmoid(mean_k w_k) - sigmoid(0)) in the centered
    form, so an all-zero batch is a no-op; the uncentered variant keeps the
    raw sigmoid and its +eta/2 bias.
    """
    if not batch_trees:
        raise InvalidParameterError("batched update needs a non-empty batch")
    prev = np.asarray(prev_scores, dtype=float)
    X = np.asarray(X, dtype=float)
    W = np.stack([tree.leaf_weights[tree.route(X)] for tree in batch_trees])
    base = 0.5 if centered else 0.0
    return prev + eta * (sigmoid(W.mean(axis=0)) - base)


def _checked_features(ensemble: Ensemble, X) -> np.ndarray:
    """X as a finite n x m float matrix, clamped to the ensemble's bounds."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (ensemble.bounds and X.shape[1] != len(ensemble.bounds)):
        raise InvalidParameterError(
            f"expected an n x {len(ensemble.bounds)} matrix, got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise InvalidParameterError("features must be finite (no NaN or infinity)")
    if not ensemble.bounds:
        return X
    lo = np.array([a for a, _ in ensemble.bounds])
    hi = np.array([b for _, b in ensemble.bounds])
    return np.clip(X, lo, hi)


def raw_scores(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Accumulated raw (pre-sigmoid) scores under the ensemble's batch semantics."""
    if ensemble.update_mode is UpdateMode.AVERAGING:
        raise InvalidParameterError("averaging ensembles have no raw-score accumulation")
    Xc = _checked_features(ensemble, X)
    raw = np.zeros(Xc.shape[0])
    for start, end in ensemble.batch_boundaries:
        batch = ensemble.trees[start:end]
        if ensemble.batch_size == 1:
            raw = raw + batch[0].leaf_weights[batch[0].route(Xc)]
        else:
            raw = batched_update(raw, batch, Xc, ensemble.eta, ensemble.centered_batch)
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
        probs = np.clip(
            np.mean([tree.leaf_weights[tree.route(Xc)] for tree in ensemble.trees], axis=0),
            0.0,
            1.0,
        )
    else:
        probs = sigmoid(raw_scores(ensemble, X))
    return float(probs[0]) if single else probs
