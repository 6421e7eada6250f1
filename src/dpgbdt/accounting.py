"""Exact Gaussian-DP accounting for Gaussian-mechanism queries.

A run releases every private statistic through the Gaussian mechanism at one
noise multiplier sigma, over the whole population, without subsampling, so a
run of K queries is exactly mu-Gaussian-DP with mu = sqrt(K) / sigma (Dong,
Roth & Su, JRSS-B 2022). Its (epsilon, delta) curve is exact (Balle & Wang,
ICML 2018): ``gdp_delta`` evaluates it, and ``calibrate_sigma`` inverts it
for the query count of ``plan``, the one list of aggregation rounds a
configuration executes. The ledger and the communication costs are folds
over that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .config import TrainConfig

__all__ = [
    "InvalidParameterError",
    "ZeroQueryError",
    "PrivacyBudget",
    "QueryCounter",
    "Round",
    "gdp_delta",
    "calibrate_sigma",
    "plan",
    "count_queries",
]


class InvalidParameterError(ValueError):
    """A parameter is outside the domain of the requested operation."""


class ZeroQueryError(ValueError):
    """Calibration was requested for a configuration that issues no queries."""


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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
    """One aggregation round and what it releases: the kind of its queries
    (c = split candidates, s = inner splits, w = leaf weights), the privacy
    queries, the tree nodes each query covers and the (G, H) cells per node."""

    kind: str
    queries: int
    nodes: int
    cells: int

    @property
    def uplink(self) -> int:
        """Scalars each client sends: 2 per cell of one node, per query. A level-l
        round releases ``nodes`` = 2^l node vectors, all of which a client's
        secure-aggregation message would cover, so this undercounts hist and pr
        level rounds by 2^l; a leaf round's one node holds every leaf."""
        return 2 * self.queries * self.cells


def _log_ndtr(x: float) -> float:
    """log Phi(x), the log of the standard normal CDF, from the standard
    library: through erfc down to x = -30, and below that the asymptotic
    series Phi(x) ~ phi(x) / -x * sum_k (-1)^k (2k - 1)!! / x^(2k), whose
    terms to k = 7 leave a relative error under 1e-15."""
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x >= -30.0:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    series = term = 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) / (x * x)
        series += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(series)


def gdp_delta(mu: float, epsilon: float) -> float:
    """Exact delta at ``epsilon`` of a mu-Gaussian-DP mechanism:
    Phi(-epsilon / mu + mu / 2) - e^epsilon Phi(-epsilon / mu - mu / 2),
    computed in log space so neither term overflows."""
    if not (mu > 0.0 and epsilon >= 0.0):
        raise InvalidParameterError(f"need mu > 0 and epsilon >= 0, got {mu}, {epsilon}")
    log_a = _log_ndtr(-epsilon / mu + mu / 2.0)
    log_b = _log_ndtr(-epsilon / mu - mu / 2.0)
    # gap <= 0 exactly; rounding can push it above 0, and it is nan when
    # both terms underflow to log 0
    gap = epsilon + log_b - log_a
    return math.exp(log_a) * -math.expm1(gap) if gap < 0.0 else 0.0


def calibrate_sigma(budget: PrivacyBudget, counter: QueryCounter) -> float:
    """Smallest noise multiplier meeting ``budget`` over ``counter.total`` queries.

    The run is mu-GDP with mu = sqrt(K) / sigma, and its delta at
    ``budget.epsilon`` grows with mu. Bisects log sigma until the midpoint
    equals one of its ends and returns the feasible end: ``gdp_delta(sqrt(K)
    / sigma, epsilon)`` is at most delta for the returned sigma and above it
    one step below. The bracket, mu from e^-600 to e^600, holds the answer
    for every delta above 1e-260.
    """
    if counter.total == 0:
        raise ZeroQueryError("configuration issues no private queries; nothing to calibrate")
    root_k = math.sqrt(counter.total)
    lo, hi = math.log(root_k) - 600.0, math.log(root_k) + 600.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if gdp_delta(root_k / math.exp(mid), budget.epsilon) <= budget.delta:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


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
    pays one round per level l, a Q-cell histogram of each of its 2^l nodes
    per feature, and pr one two-sided pair (2 cells) per node per feature.
    Totally random trees pay no split round; their leaf vectors go out in one
    round (w) per batch, one query of 2^d cells per tree. ``Round.uplink``
    states what a round's uplink counts, and what it undercounts.
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
        tree_rounds = [Round("s", 1, 1, Q)]
    else:
        cells = Q if method is SplitMethod.HIST else 2
        tree_rounds = [Round("s", k, 2**level, cells) for level in range(d)]

    rounds = []
    for start, end in config.batches:
        for t in range(start, end):
            if refines and t < config.ih_rounds:
                rounds.append(Round("c", refined, 1, Q))
            rounds.extend(tree_rounds)
        if method is SplitMethod.TOTALLY_RANDOM:
            rounds.append(Round("w", end - start, 1, 2**d))
    return rounds


def count_queries(config: "TrainConfig") -> QueryCounter:
    """Exact number of noisy queries a training run with ``config`` will issue:
    the queries of its ``plan``, summed by kind."""
    return QueryCounter.from_rounds(plan(config))
