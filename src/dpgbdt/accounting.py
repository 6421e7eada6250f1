"""Renyi differential privacy accounting for Gaussian-mechanism queries.

The training pipeline releases every private statistic through the Gaussian
mechanism, so the whole privacy analysis reduces to three steps:

  1. each query contributes an RDP curve tau(alpha) = alpha / (2 sigma^2),
  2. curves compose additively across queries,
  3. the composed curve converts to an (epsilon, delta) guarantee by
     minimising epsilon(alpha) = tau(alpha) + log(1/delta) / (alpha - 1)
     over a grid of Renyi orders.

``calibrate_sigma`` inverts step 3: given a target budget and a query count,
it finds the smallest noise multiplier that stays within budget. The query
count comes from ``plan``, the one list of aggregation rounds a configuration
executes; the ledger and the communication costs are folds over it.
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
    "GridMismatchError",
    "ZeroQueryError",
    "RdpCurve",
    "PrivacyBudget",
    "QueryCounter",
    "Round",
    "NoiseScale",
    "gaussian_rdp",
    "compose_sequential",
    "rdp_to_dp",
    "calibrate_sigma",
    "plan",
    "count_queries",
]


class InvalidParameterError(ValueError):
    """A parameter is outside the domain of the requested operation."""


class GridMismatchError(ValueError):
    """RDP curves defined on different alpha grids cannot be combined."""


class ZeroQueryError(ValueError):
    """Calibration was requested for a configuration that issues no queries."""


# Dense at small orders (tight epsilon regime), sparse at large orders with two
# high anchors for very loose budgets. Configurable in every public function.
DEFAULT_ALPHAS: np.ndarray = np.concatenate(
    [np.arange(1.5, 10.0 + 1e-9, 0.25), np.arange(11.0, 65.0, 1.0), [128.0, 256.0]]
)
DEFAULT_ALPHAS.setflags(write=False)

SIGMA_BRACKET = (1e-3, 1e4)
SIGMA_REL_TOL = 1e-4
SIGMA_MAX_ITER = 200


def _as_alpha_grid(alphas) -> np.ndarray:
    grid = np.asarray(alphas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidParameterError("alpha grid must be a non-empty 1-d sequence")
    if np.any(grid <= 1.0):
        raise InvalidParameterError("all Renyi orders must be > 1")
    if np.any(np.diff(grid) <= 0.0):
        raise InvalidParameterError("alpha grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class RdpCurve:
    """A tau(alpha) mapping on a fixed, strictly increasing grid of orders."""

    alphas: np.ndarray
    taus: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        taus = np.asarray(self.taus, dtype=float)
        if alphas.shape != taus.shape or alphas.ndim != 1:
            raise InvalidParameterError("alphas and taus must be 1-d and equal length")
        if alphas.size:
            if np.any(alphas <= 1.0) or np.any(np.diff(alphas) <= 0.0):
                raise InvalidParameterError("orders must be > 1 and strictly increasing")
            if np.any(taus < 0.0) or not np.all(np.isfinite(taus)):
                raise InvalidParameterError("tau values must be finite and >= 0")
        alphas.setflags(write=False)
        taus.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "taus", taus)

    def __len__(self) -> int:
        return self.alphas.size

    def same_grid(self, other: "RdpCurve") -> bool:
        return np.array_equal(self.alphas, other.alphas)


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


@dataclass(frozen=True)
class NoiseScale:
    """Gaussian noise multiplier paired with the L2 sensitivity it scales."""

    sigma: float
    sensitivity: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")
        if not (self.sensitivity > 0.0 and math.isfinite(self.sensitivity)):
            raise InvalidParameterError(
                f"sensitivity must be positive, got {self.sensitivity}"
            )

    @property
    def std(self) -> float:
        """Standard deviation of the noise added to each released coordinate."""
        return self.sigma * self.sensitivity


def gaussian_rdp(sigma: float, alphas=None) -> RdpCurve:
    """RDP curve of a single Gaussian mechanism: tau(alpha) = alpha / (2 sigma^2)."""
    if not (isinstance(sigma, (int, float, np.floating)) and sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidParameterError(f"sigma must be a positive finite number, got {sigma}")
    grid = _as_alpha_grid(DEFAULT_ALPHAS if alphas is None else alphas)
    return RdpCurve(grid, grid / (2.0 * float(sigma) ** 2))


def compose_sequential(
    curves: Sequence[RdpCurve], counts: Sequence[int] | None = None, alphas=None
) -> RdpCurve:
    """Sequentially compose RDP curves, each repeated ``counts[i]`` times.

    All curves must share one alpha grid; the composed tau is the
    count-weighted sum. An empty curve list yields the all-zero curve on
    ``alphas`` (default grid), the identity of composition.
    """
    curves = list(curves)
    if counts is None:
        counts = [1] * len(curves)
    counts = list(counts)
    if len(counts) != len(curves):
        raise InvalidParameterError("curves and counts must have equal length")
    for c in counts:
        if not isinstance(c, (int, np.integer)) or c < 0:
            raise InvalidParameterError(f"multiplicities must be non-negative integers, got {c}")
    if not curves:
        grid = _as_alpha_grid(DEFAULT_ALPHAS if alphas is None else alphas)
        return RdpCurve(grid, np.zeros_like(grid))
    grid = curves[0].alphas
    for curve in curves[1:]:
        if not curve.same_grid(curves[0]):
            raise GridMismatchError("cannot compose RDP curves on different alpha grids")
    total = np.zeros_like(grid)
    for curve, count in zip(curves, counts):
        total = total + count * curve.taus
    return RdpCurve(grid, total)


def rdp_to_dp(curve: RdpCurve, delta: float) -> float:
    """Convert an RDP curve to the epsilon of an (epsilon, delta)-DP guarantee.

    Uses the standard bound epsilon(alpha) = tau(alpha) + log(1/delta) /
    (alpha - 1), minimised over the curve's grid.
    """
    if len(curve) == 0:
        raise InvalidParameterError("cannot convert an empty RDP curve")
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    eps = curve.taus + math.log(1.0 / delta) / (curve.alphas - 1.0)
    return float(np.min(eps))


def calibrate_sigma(budget: PrivacyBudget, counter: QueryCounter, alphas=None) -> float:
    """Smallest noise multiplier meeting ``budget`` over ``counter.total`` queries.

    Bisects sigma in log space over the bracket [1e-3, 1e4] until the bracket
    is relatively tighter than 1e-4, and returns the feasible endpoint, so the
    result satisfies the budget while (1 - 1e-3) times it does not. Each
    epsilon(sigma) is ``rdp_to_dp`` of ``counter.total`` composed copies of
    ``gaussian_rdp(sigma)``.
    """
    total = counter.total
    if total == 0:
        raise ZeroQueryError("configuration issues no private queries; nothing to calibrate")

    def epsilon(sigma: float) -> float:
        return rdp_to_dp(compose_sequential([gaussian_rdp(sigma, alphas)], [total]), budget.delta)

    lo, hi = SIGMA_BRACKET
    if epsilon(hi) > budget.epsilon:
        raise InvalidParameterError(
            f"budget epsilon={budget.epsilon} unreachable within sigma bracket {SIGMA_BRACKET}"
        )
    if epsilon(lo) <= budget.epsilon:
        return lo
    for _ in range(SIGMA_MAX_ITER):
        if hi / lo - 1.0 <= SIGMA_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        if epsilon(mid) <= budget.epsilon:
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
