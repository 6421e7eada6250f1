"""Renyi differential privacy accounting for Gaussian-mechanism queries.

A run releases every private statistic through the Gaussian mechanism at one
noise multiplier sigma, over the whole population, without subsampling. One
query has the Renyi-DP curve alpha / (2 sigma^2) (Mironov, CSF 2017) and
curves add, so a run of K queries is the single line K alpha / (2 sigma^2):
its privacy depends only on K / sigma^2 (the run is mu-Gaussian-DP with
mu = sqrt(K) / sigma; Dong, Roth & Su, JRSS-B 2022). ``rdp_epsilon`` converts
that line to the epsilon of an (epsilon, delta) guarantee; ``calibrate_sigma``
inverts it for the query count of ``plan``, the one list of aggregation
rounds a configuration executes. The ledger and the communication costs are
folds over that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .config import TrainConfig

__all__ = [
    "DEFAULT_ALPHAS",
    "InvalidParameterError",
    "ZeroQueryError",
    "PrivacyBudget",
    "QueryCounter",
    "Round",
    "rdp_epsilon",
    "calibrate_sigma",
    "plan",
    "count_queries",
]


class InvalidParameterError(ValueError):
    """A parameter is outside the domain of the requested operation."""


class ZeroQueryError(ValueError):
    """Calibration was requested for a configuration that issues no queries."""


# Dense at small orders (tight epsilon regime), sparse at large orders with two
# high anchors for very loose budgets.
DEFAULT_ALPHAS: np.ndarray = np.concatenate(
    [np.arange(1.5, 10.0 + 1e-9, 0.25), np.arange(11.0, 65.0, 1.0), [128.0, 256.0]]
)
DEFAULT_ALPHAS.setflags(write=False)

SIGMA_BRACKET = (1e-3, 1e4)
SIGMA_REL_TOL = 1e-4
SIGMA_MAX_ITER = 200


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) guarantee for one full training run."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParameterError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class QueryCounter:
    """Ledger of noisy vector queries: split candidates, inner splits, leaf weights."""

    kappa_c: int = 0
    kappa_s: int = 0
    kappa_w: int = 0

    def __post_init__(self):
        for name in ("kappa_c", "kappa_s", "kappa_w"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise InvalidParameterError(f"{name} must be a non-negative integer")

    @property
    def total(self) -> int:
        return self.kappa_c + self.kappa_s + self.kappa_w

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.kappa_c, self.kappa_s, self.kappa_w)

    @classmethod
    def from_rounds(cls, rounds: Sequence["Round"]) -> "QueryCounter":
        """Queries of ``rounds`` summed by kind."""
        kappa = {"c": 0, "s": 0, "w": 0}
        for r in rounds:
            if r.kind not in kappa:
                raise InvalidParameterError(f"unknown query category: {r.kind!r}")
            kappa[r.kind] += r.queries
        return cls(kappa["c"], kappa["s"], kappa["w"])


class Round(NamedTuple):
    """One aggregation round: the kind of its queries (c = split candidates,
    s = inner splits, w = leaf weights), how many privacy queries it releases
    and how many scalars each client uplinks."""

    kind: str
    queries: int
    uplink: int


def rdp_epsilon(sigma: float, queries: int, delta: float) -> float:
    """Epsilon of the (epsilon, delta)-DP guarantee of ``queries`` Gaussian
    queries at noise multiplier ``sigma``: the minimum over ``DEFAULT_ALPHAS``
    of queries * alpha / (2 sigma^2) + log(1/delta) / (alpha - 1)."""
    if not (isinstance(sigma, (int, float, np.floating)) and sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidParameterError(f"sigma must be a positive finite number, got {sigma}")
    if not isinstance(queries, (int, np.integer)) or queries < 0:
        raise InvalidParameterError(f"queries must be a non-negative integer, got {queries}")
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    eps = queries * (DEFAULT_ALPHAS / (2.0 * float(sigma) ** 2))
    return float(np.min(eps + math.log(1.0 / delta) / (DEFAULT_ALPHAS - 1.0)))


def calibrate_sigma(budget: PrivacyBudget, counter: QueryCounter) -> float:
    """Smallest noise multiplier meeting ``budget`` over ``counter.total`` queries.

    Bisects sigma in log space over the bracket [1e-3, 1e4] until the bracket
    is relatively tighter than 1e-4, and returns the feasible endpoint, so the
    result satisfies the budget while (1 - 1e-3) times it does not. Each
    epsilon(sigma) it tries is ``rdp_epsilon(sigma, counter.total, budget.delta)``.
    While its upper end misses the budget, the bracket moves up tenfold. No
    sigma meets an epsilon at or below the floor ``rdp_epsilon(sigma, 0,
    delta)`` = log(1/delta) / 255; such a budget raises InvalidParameterError.
    """
    total, delta = counter.total, budget.delta
    if total == 0:
        raise ZeroQueryError("configuration issues no private queries; nothing to calibrate")

    lo, hi = SIGMA_BRACKET
    floor = rdp_epsilon(hi, 0, delta)
    if budget.epsilon <= floor:
        raise InvalidParameterError(
            f"no sigma meets epsilon={budget.epsilon} at delta={delta}: epsilon must "
            f"exceed the floor log(1/delta) / {DEFAULT_ALPHAS[-1] - 1:g} = {floor}"
        )
    if rdp_epsilon(lo, total, delta) <= budget.epsilon:
        return lo
    while rdp_epsilon(hi, total, delta) > budget.epsilon:  # stops: epsilon falls to the floor
        lo, hi = hi, 10.0 * hi
    for _ in range(SIGMA_MAX_ITER):
        if hi / lo - 1.0 <= SIGMA_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        if rdp_epsilon(mid, total, delta) <= budget.epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def refined_features(config: "TrainConfig", features) -> tuple[int, ...]:
    """Features one candidate-refinement round covers: all m under cyclical
    scheduling or k = m, otherwise the current tree's ``features``."""
    from .config import FeatureMode  # local import avoids a cycle

    if config.feature_mode is FeatureMode.CYCLICAL or config.resolved_k() == config.m:
        return tuple(range(config.m))
    return tuple(features)


def plan(config: "TrainConfig") -> list[Round]:
    """Every aggregation round a training run with ``config`` executes, in order.

    Per tree: under iterative-Hessian candidates, trees t < ih_rounds first
    pay a refinement round (c), unless the split method is hist, which
    refines for free from its own root histograms. Then the tree's split
    rounds (s): a single-feature tree (k = 1) needs one root histogram; hist
    pays one histogram round per level (2 Q scalars per feature) and pr one
    two-sided pair round per level (4 per feature). Totally random trees pay
    no split round; their leaf vectors go out in one round (w) per batch,
    one query and 2 * 2^d scalars per tree.

    A level round's uplink counts one node's vector, although a level-l
    round releases 2^l of them and a client's secure-aggregation message
    would cover them all; leaf rounds do count every leaf.
    """
    from .config import CandidateMethod
    from .trees import SplitMethod

    if config.m is None:
        raise InvalidParameterError("plan requires config.m (number of features)")
    k, d, Q = config.resolved_k(), config.d, config.Q
    method = config.split_method
    refines = (
        config.candidate_method is CandidateMethod.ITERATIVE_HESSIAN
        and method is not SplitMethod.HIST
    )
    refined = len(refined_features(config, range(k)))
    if method is SplitMethod.TOTALLY_RANDOM:
        tree_rounds = []
    elif k == 1:
        tree_rounds = [Round("s", 1, 2 * Q)]
    else:
        per_feature = 2 * Q if method is SplitMethod.HIST else 4
        tree_rounds = [Round("s", k, per_feature * k)] * d

    rounds = []
    for start, end in config.batches:
        for t in range(start, end):
            if refines and t < config.ih_rounds:
                rounds.append(Round("c", refined, 2 * Q * refined))
            rounds.extend(tree_rounds)
        if method is SplitMethod.TOTALLY_RANDOM:
            rounds.append(Round("w", end - start, 2 * (end - start) * 2**d))
    return rounds


def count_queries(config: "TrainConfig") -> QueryCounter:
    """Exact number of noisy queries a training run with ``config`` will issue:
    the queries of its ``plan``, summed by kind."""
    return QueryCounter.from_rounds(plan(config))
