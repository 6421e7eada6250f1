"""Simulated horizontal federation with fixed-point secure aggregation.

Clients hold disjoint record shards. Every statistic that reaches the
server-side trainer passes through one pipeline: per-client float sums are
encoded to fixed point, summed in a modular ring (the secure-aggregation
abstraction), decoded, and noised with one Gaussian draw per released
coordinate. Under local noising each client perturbs its own contribution
before encoding instead, and no central noise is added.

The aggregator keeps the per-record client state (raw scores, gradient pairs,
current tree node) and two running meters: a privacy ledger counting noisy
vector queries by kind, and a communication meter counting aggregation rounds
and the scalars one client uplinks per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .accounting import InvalidParameterError, NoiseScale, QueryCounter
from .candidates import SplitCandidateSet, bin_index
from .data import Dataset, philox
from .gradients import UpdateMode, mode_gradients

if TYPE_CHECKING:  # pragma: no cover
    from .config import TrainConfig

__all__ = [
    "CodecOverflowError",
    "FixedPointCodec",
    "ClientPopulation",
    "CommLedger",
    "LedgerCounter",
    "partition",
    "secure_sum",
    "ldp_release",
    "comm_accounting",
    "FederatedAggregator",
]

ONE_RECORD_PER_CLIENT = "one-record-per-client"
EQUAL_SHARDS = "equal-shards"

# Regular secure-aggregation protocols cost ~3 network round trips per logical
# aggregation round; reported as a multiplier, not simulated.
SECURE_AGG_ROUND_FACTOR = 3


class CodecOverflowError(ValueError):
    """The fixed-point ring is too small for the requested summation."""


@dataclass(frozen=True)
class FixedPointCodec:
    """Fixed-point encoding with ``precision_bits`` fractional bits in a
    2**ring_bits ring. Quantisation error is at most 1/(2*scale) per client
    contribution."""

    precision_bits: int = 16
    ring_bits: int = 64

    def __post_init__(self):
        if not (1 <= self.precision_bits < self.ring_bits):
            raise InvalidParameterError("need 1 <= precision_bits < ring_bits")
        if self.ring_bits != 64 and not (8 <= self.ring_bits <= 62):
            raise InvalidParameterError("ring_bits must be 64 or within [8, 62]")

    @property
    def scale(self) -> int:
        return 1 << self.precision_bits

    @property
    def modulus(self) -> int:
        return 1 << self.ring_bits

    def encode(self, values: np.ndarray) -> np.ndarray:
        fixed = np.rint(np.asarray(values, dtype=float) * self.scale).astype(np.int64)
        ring = fixed.astype(np.uint64)
        if self.ring_bits != 64:
            ring &= np.uint64(self.modulus - 1)
        return ring

    def decode(self, ring_values: np.ndarray) -> np.ndarray:
        u = np.asarray(ring_values, dtype=np.uint64)
        if self.ring_bits == 64:
            signed = u.astype(np.int64)
        else:
            signed = u.astype(np.int64)
            half = self.modulus >> 1
            signed = np.where(signed >= half, signed - self.modulus, signed)
        return signed.astype(float) / self.scale

    def check_capacity(self, n_contributions: int, max_abs: float) -> None:
        if n_contributions == 0:
            return
        need = n_contributions * (int(math.ceil(max_abs * self.scale)) + 1)
        if need >= self.modulus // 2:
            raise CodecOverflowError(
                f"{n_contributions} contributions of magnitude up to {max_abs} "
                f"risk wraparound in a 2^{self.ring_bits} ring at {self.precision_bits} "
                "fractional bits"
            )


@dataclass(frozen=True, eq=False)
class ClientPopulation:
    """Disjoint partition of a training set across simulated clients.

    Records are stored client-contiguous; ``client_sizes`` gives the shard
    sizes in order. Raw features and labels are client-side state: the
    trainer must reach them only through FederatedAggregator queries.
    """

    features: np.ndarray
    labels: np.ndarray
    client_sizes: np.ndarray
    bounds: tuple[tuple[float, float], ...]
    descriptor: str
    bounds_derived: bool = False

    def __post_init__(self):
        sizes = np.asarray(self.client_sizes, dtype=np.int64)
        if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != len(self.labels):
            raise InvalidParameterError("client sizes must be positive and cover every record")
        client_of_record = np.repeat(np.arange(sizes.size), sizes)
        object.__setattr__(self, "client_sizes", sizes)
        object.__setattr__(self, "_client_of_record", client_of_record)
        object.__setattr__(self, "_client_starts", np.concatenate([[0], np.cumsum(sizes)]))
        object.__setattr__(self, "_all_singleton", bool(np.all(sizes == 1)))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def n_clients(self) -> int:
        return int(self.client_sizes.size)

    @property
    def client_of_record(self) -> np.ndarray:
        return self._client_of_record

    @property
    def client_starts(self) -> np.ndarray:
        """Record offset of each client's shard, plus n at the end."""
        return self._client_starts

    @property
    def all_singleton(self) -> bool:
        return self._all_singleton

    def client_view(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = self.client_starts[c], self.client_starts[c + 1]
        return self.features[start:stop], self.labels[start:stop]

    def client_datasets(self) -> list[Dataset]:
        return [
            Dataset(*self.client_view(c), self.bounds, bounds_derived=self.bounds_derived)
            for c in range(self.n_clients)
        ]


def partition(dataset: Dataset, n_clients: int | None, policy: str, seed: int = 0) -> ClientPopulation:
    """Split a dataset into a client population under the given policy."""
    if policy == ONE_RECORD_PER_CLIENT:
        if n_clients is not None and n_clients != dataset.n:
            raise InvalidParameterError(
                f"one-record policy makes {dataset.n} clients, not {n_clients}"
            )
        sizes = np.ones(dataset.n, dtype=np.int64)
        order = np.arange(dataset.n)
    elif policy == EQUAL_SHARDS:
        if n_clients is None or not (1 <= n_clients <= dataset.n):
            raise InvalidParameterError(
                f"equal shards require 1 <= n_clients <= {dataset.n}, got {n_clients}"
            )
        base, extra = divmod(dataset.n, n_clients)
        sizes = np.full(n_clients, base, dtype=np.int64)
        sizes[:extra] += 1
        order = philox(seed).permutation(dataset.n)
    else:
        raise InvalidParameterError(f"unknown partition policy: {policy!r}")
    return ClientPopulation(
        features=dataset.features[order],
        labels=dataset.labels[order],
        client_sizes=sizes,
        bounds=dataset.bounds,
        descriptor=policy,
        bounds_derived=dataset.bounds_derived,
    )


def secure_sum(
    contributions: np.ndarray,
    codec: FixedPointCodec,
    noise: NoiseScale | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sum per-client vectors through the fixed-point ring, then noise.

    ``contributions`` has shape (n_clients, dim); an empty first axis yields
    the zero vector (plus noise when configured).
    """
    contribs = np.asarray(contributions, dtype=float)
    if contribs.ndim != 2:
        raise InvalidParameterError("contributions must be a (n_clients, dim) array")
    n_clients, dim = contribs.shape
    if n_clients:
        codec.check_capacity(n_clients, float(np.abs(contribs).max()))
        total = codec.encode(contribs).sum(axis=0, dtype=np.uint64)
        if codec.ring_bits != 64:
            total &= np.uint64(codec.modulus - 1)
        out = codec.decode(total)
    else:
        out = np.zeros(dim)
    if noise is not None:
        if rng is None:
            raise InvalidParameterError("noisy aggregation requires an rng")
        out = out + rng.normal(0.0, noise.std, size=dim)
    return out


# Upper bound on the dense (client, cell) grid the per-client grouping
# allocates at once; clients are grouped in blocks that fit under it.
GROUP_GRID_CELLS = 1 << 20


def _client_blocks(pop: ClientPopulation, n_cells: int):
    """(first client, end client) of each block whose dense grid fits the cap."""
    step = max(1, GROUP_GRID_CELLS // n_cells)
    return [(c, min(c + step, pop.n_clients)) for c in range(0, pop.n_clients, step)]


def _per_client_cell_sums(
    pop: ClientPopulation, cell: np.ndarray, stats: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group per-record (g, h) columns of ``stats`` (2, n) into
    per-(client, cell) contribution rows.

    Returns (cell index per contribution, (contributions, 2) matrix), with
    populated (client, cell) pairs in ascending client-then-cell order. With
    one-record clients each record is its own contribution.
    """
    if pop.all_singleton:
        return cell, stats.T
    cells, sums = [], []
    for first, end in _client_blocks(pop, n_cells):
        lo, hi = pop.client_starts[first], pop.client_starts[end]
        key = (pop.client_of_record[lo:hi] - first) * n_cells + cell[lo:hi]
        size = (end - first) * n_cells
        hit = np.flatnonzero(np.bincount(key, minlength=size))
        g = np.bincount(key, weights=stats[0, lo:hi], minlength=size)
        h = np.bincount(key, weights=stats[1, lo:hi], minlength=size)
        cells.append(hit % n_cells)
        sums.append(np.stack([g[hit], h[hit]], axis=1))
    return np.concatenate(cells), np.concatenate(sums)


def ldp_release(
    g: float, h: float, noise: NoiseScale | None, rng: np.random.Generator
) -> tuple[float, float]:
    """One client's locally noised (g, h) release for the current tree."""
    if noise is None:
        return float(g), float(h)
    eps = rng.normal(0.0, noise.std, size=2)
    return float(g + eps[0]), float(h + eps[1])


class LedgerCounter:
    """Mutable (kappa_c, kappa_s, kappa_w) tally of noisy vector queries."""

    def __init__(self):
        self.kappa_c = 0
        self.kappa_s = 0
        self.kappa_w = 0

    def add(self, category: str, count: int = 1) -> None:
        if category == "c":
            self.kappa_c += count
        elif category == "s":
            self.kappa_s += count
        elif category == "w":
            self.kappa_w += count
        else:
            raise InvalidParameterError(f"unknown query category: {category!r}")

    def snapshot(self) -> QueryCounter:
        return QueryCounter(self.kappa_c, self.kappa_s, self.kappa_w)


@dataclass(frozen=True)
class CommLedger:
    """Aggregation rounds and per-client uplink for one training run.

    ``per_round_payload`` is the scalars one client sends in a regular
    aggregation round; ``uplink_values`` totals the whole run. Secure
    aggregation itself multiplies network round trips by
    ``secure_agg_round_factor``; it is reported, not simulated.
    """

    rounds: int
    per_round_payload: int
    uplink_values: int
    secure_agg_round_factor: int = SECURE_AGG_ROUND_FACTOR

    @property
    def uplink_bytes(self) -> int:
        return self.uplink_values * 8


def comm_accounting(config: "TrainConfig") -> CommLedger:
    """Rounds and payload sizes implied by a configuration.

    hist/pr: one round per tree level carrying the level's per-feature
    payloads, except single-feature trees which need one root histogram per
    tree. tr: one leaf round per batch of 2^d-leaf vectors; candidate
    refinement adds one histogram round per refinement.
    """
    from .config import CandidateMethod, FeatureMode
    from .trees import SplitMethod

    if config.m is None:
        raise InvalidParameterError("comm_accounting requires config.m")
    m = config.m
    k = config.resolved_k()
    T, d, Q = config.T, config.d, config.Q
    leaves = 2 ** d
    B = config.effective_batch_size
    ih = config.candidate_method is CandidateMethod.ITERATIVE_HESSIAN
    s = min(config.ih_rounds, T) if ih else 0
    refined = m if (config.feature_mode is FeatureMode.CYCLICAL or k == m) else k

    if config.split_method is SplitMethod.TOTALLY_RANDOM:
        n_batches = math.ceil(T / B)
        payload = 2 * min(B, T) * leaves
        rounds = n_batches + s
        uplink = 2 * T * leaves + s * 2 * Q * refined
    elif k == 1:
        rounds = T
        payload = 2 * Q
        uplink = T * 2 * Q
        if ih and config.split_method is SplitMethod.PARTIALLY_RANDOM:
            rounds += s
            uplink += s * 2 * Q * refined
    else:
        payload = 2 * Q * k if config.split_method is SplitMethod.HIST else 4 * k
        rounds = T * d
        uplink = T * d * payload
        if ih and config.split_method is SplitMethod.PARTIALLY_RANDOM:
            rounds += s
            uplink += s * 2 * Q * refined
    return CommLedger(rounds=rounds, per_round_payload=payload, uplink_values=uplink)


class FederatedAggregator:
    """Server-side handle to the client population.

    Raw records, labels, scores, and gradients live here as client state; the
    trainer sees them only through the query methods below, each of which
    meters its privacy cost and communication. Structure broadcast
    (``apply_splits``, ``route_tree``) and local score updates are free.

    Clients keep their records binned against the current candidate set: the
    bin matrix is rebuilt only when a query names a different
    ``SplitCandidateSet`` object.
    """

    def __init__(
        self,
        population: ClientPopulation,
        codec: FixedPointCodec | None = None,
        noise: NoiseScale | None = None,
        noise_seed=None,
        local_noise: bool = False,
    ):
        self.pop = population
        self.codec = codec if codec is not None else FixedPointCodec()
        self.noise = noise
        self.local_noise = local_noise
        self._rng = philox(noise_seed if noise_seed is not None else 0)
        n = population.n
        self.raw_scores = np.zeros(n)
        self.gh = np.stack([np.zeros(n), np.ones(n)])
        self.node = np.zeros(n, dtype=np.int64)
        self._bins = None
        self._bins_for: SplitCandidateSet | None = None
        self.ledger = LedgerCounter()
        self.comm_rounds = 0
        self.comm_uplink = 0
        self.coords_released = 0
        self.noise_draws = 0
        self.nonprivate_candidate_access = False

    # ------------------------------------------------------------------
    # client-local computation (no queries, no communication)

    def recompute_gradients(self, mode: UpdateMode) -> None:
        """Recompute every record's (g, h), stacked as ``gh`` (2, n) until the
        next gradient barrier."""
        pair = mode_gradients(self.pop.labels, self.raw_scores, mode)
        self.gh = np.stack([pair.g, pair.h]).astype(float, copy=False)

    def begin_tree(self) -> None:
        self.node[:] = 0

    def apply_splits(self, splits: dict[int, tuple[int, float]]) -> None:
        """Clients route their records one level down the announced splits.

        Every record must sit in a node that ``splits`` names.
        """
        size = max(splits) + 1
        feature = np.zeros(size, dtype=np.int64)
        threshold = np.zeros(size)
        for nid, (j, thr) in splits.items():
            feature[nid], threshold[nid] = j, thr
        x = self.pop.features[np.arange(self.pop.n), feature[self.node]]
        self.node = 2 * self.node + 2 - (x <= threshold[self.node])

    def route_tree(self, tree) -> np.ndarray:
        return tree.route(self.pop.features)

    def apply_score_update(self, batch, eta: float, plain: bool, centered: bool) -> None:
        """Clients fold a finished batch of public trees into their raw scores."""
        from .gradients import sigmoid  # local to avoid import noise at module top

        W = np.stack([tree.leaf_weights[assign] for tree, assign in batch])
        if plain:
            self.raw_scores = self.raw_scores + W.sum(axis=0)
        else:
            base = 0.5 if centered else 0.0
            self.raw_scores = self.raw_scores + eta * (sigmoid(W.mean(axis=0)) - base)

    def nonprivate_feature_column(self, j: int) -> np.ndarray:
        """Pooled raw values of one feature, sorted. Explicitly NOT private;
        flags the run so the harness can report it as partially non-private."""
        self.nonprivate_candidate_access = True
        return np.sort(self.pop.features[:, j])

    def _binned(self, cand_set: SplitCandidateSet) -> np.ndarray:
        """(m, n) bin of every record under ``cand_set``, cached per set."""
        if cand_set is not self._bins_for:
            dtype = np.min_scalar_type(cand_set.q - 1)
            self._bins = np.stack(
                [bin_index(self.pop.features[:, j], thr) for j, thr in enumerate(cand_set.per_feature)]
            ).astype(dtype)
            self._bins_for = cand_set
        return self._bins

    def _positions(self, nodes: np.ndarray) -> np.ndarray:
        """Index of each record's node within the sorted ``nodes``."""
        lookup = np.zeros(int(nodes[-1]) + 1, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.size)
        return lookup[self.node]

    # ------------------------------------------------------------------
    # metered queries

    def _release(self, cell: np.ndarray, n_cells: int) -> np.ndarray:
        """Securely aggregate the records' (g, h) into (n_cells, 2) noisy sums.

        Central model: one Gaussian draw per released coordinate after
        decoding. Local model: one draw per client-contribution coordinate
        before encoding.
        """
        contrib_cell, contrib = _per_client_cell_sums(self.pop, cell, self.gh, n_cells)
        if self.noise is not None and self.local_noise:
            contrib = contrib + self._rng.normal(0.0, self.noise.std, size=contrib.shape)
            self.noise_draws += contrib.size
        if contrib.shape[0]:
            self.codec.check_capacity(self.pop.n_clients, float(np.abs(contrib).max()))
        acc = np.zeros((n_cells, 2), dtype=np.uint64)
        np.add.at(acc, contrib_cell, self.codec.encode(contrib))
        if self.codec.ring_bits != 64:
            acc &= np.uint64(self.codec.modulus - 1)
        out = self.codec.decode(acc)
        if self.noise is not None and not self.local_noise:
            out = out + self._rng.normal(0.0, self.noise.std, size=out.shape)
            self.noise_draws += out.size
        self.coords_released += out.size
        return out

    def histogram_round(
        self, nodes: Sequence[int], features: Sequence[int], cand_set: SplitCandidateSet, category: str
    ) -> dict[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
        """One aggregation round releasing a per-node histogram per feature.

        Every record must sit in one of ``nodes`` (a disjoint level of the
        tree), so each feature's histogram is one privacy query by parallel
        composition; the round's client message carries 2 Q scalars per
        feature. Binning is closed-right (see ``bin_index``).
        """
        Q = cand_set.q
        self.comm_rounds += 1
        self.comm_uplink += 2 * Q * len(features)
        nodes = np.asarray(sorted(nodes), dtype=np.int64)
        pos = self._positions(nodes) * Q
        bins = self._binned(cand_set)
        out = {}
        for j in features:
            self.ledger.add(category, 1)
            sums = self._release(pos + bins[j], nodes.size * Q)
            out[j] = {
                int(nid): (sums[i * Q : (i + 1) * Q, 0], sums[i * Q : (i + 1) * Q, 1])
                for i, nid in enumerate(nodes)
            }
        return out

    def split_pair_round(
        self, proposals: dict[int, dict[int, float]], category: str = "s"
    ) -> dict[int, dict[int, tuple[float, float, float, float]]]:
        """One round of two-sided aggregates, one proposed threshold per node
        per feature. One privacy query per feature; 4 scalars per feature in
        the client message."""
        self.comm_rounds += 1
        self.comm_uplink += 4 * len(proposals)
        out = {}
        positions = {}  # features usually share one node set
        for j, per_node in proposals.items():
            self.ledger.add(category, 1)
            nodes = tuple(sorted(per_node))
            if nodes not in positions:
                positions[nodes] = self._positions(np.asarray(nodes, dtype=np.int64))
            pos = positions[nodes]
            thr = np.asarray([per_node[nid] for nid in nodes])[pos]
            sums = self._release(pos * 2 + (self.pop.features[:, j] > thr), len(nodes) * 2)
            out[j] = {
                int(nid): (
                    float(sums[2 * i, 0]),
                    float(sums[2 * i, 1]),
                    float(sums[2 * i + 1, 0]),
                    float(sums[2 * i + 1, 1]),
                )
                for i, nid in enumerate(nodes)
            }
        return out

    def hessian_round(
        self, features: Sequence[int], cand_set: SplitCandidateSet
    ) -> dict[int, np.ndarray]:
        """Root-level histogram round for candidate refinement; the Hessian
        half is consumed, the release is the standard (g, h) histogram."""
        self.begin_tree()
        res = self.histogram_round([0], features, cand_set, category="c")
        return {j: res[j][0][1] for j in features}

    def leaf_round(self, assignments: Sequence[np.ndarray], n_leaves: int) -> list[np.ndarray]:
        """One round carrying the leaf vectors of a whole batch of trees.

        Each tree's leaf partition is one privacy query; empty leaves release
        pure noise, and the client message grows linearly with the batch.
        """
        self.comm_rounds += 1
        self.comm_uplink += len(assignments) * 2 * n_leaves
        out = []
        for assign in assignments:
            self.ledger.add("w", 1)
            out.append(self._release(np.asarray(assign, dtype=np.int64), n_leaves))
        return out
