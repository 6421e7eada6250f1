"""Simulated horizontal federation with fixed-point secure aggregation.

Clients hold disjoint record shards: a ``ClientPopulation`` is a validated,
feature-major ``data.Dataset`` grouped into clients. Every statistic that reaches the
server-side trainer passes through one pipeline: per-client float sums are
encoded to fixed point, summed in the 2^64 ring (the secure-aggregation
abstraction), decoded, and noised with one Gaussian draw per released
coordinate. Under local noising each client perturbs its own contribution
before encoding instead, and no central noise is added.

The aggregator keeps the per-record client state (raw scores, gradient pairs,
current tree node) and one running meter: the list of executed aggregation
rounds (``accounting.Round``: the queries, nodes and cells each released).
The ledger and the communication costs are folds over it, the same folds
that turn ``accounting.plan`` into their predicted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .accounting import InvalidParameterError, Round, plan
from .candidates import SplitCandidateSet, bin_index
from .data import Dataset, philox
from .gradients import UpdateMode, mode_gradients, update_scores
from .trees import descend

if TYPE_CHECKING:  # pragma: no cover
    from .config import TrainConfig

__all__ = [
    "CodecOverflowError",
    "FixedPointCodec",
    "ClientPopulation",
    "CommLedger",
    "partition",
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
    """Fixed-point encoding with ``precision_bits`` fractional bits in the
    2^64 ring: uint64 arithmetic, decoded as int64. Quantisation error is at
    most 1/(2*scale) per client contribution."""

    precision_bits: int = 16

    def __post_init__(self):
        if not (1 <= self.precision_bits < 64):
            raise InvalidParameterError("need 1 <= precision_bits < 64")

    @property
    def scale(self) -> int:
        return 1 << self.precision_bits

    def encode(self, values: np.ndarray) -> np.ndarray:
        fixed = np.rint(np.asarray(values, dtype=float) * self.scale).astype(np.int64)
        return fixed.view(np.uint64)  # two's complement: the same bits as a cast

    def decode(self, ring_values: np.ndarray) -> np.ndarray:
        signed = np.asarray(ring_values, dtype=np.uint64).astype(np.int64)
        return signed.astype(float) / self.scale

    def check_capacity(self, n_contributions: int, max_abs: float) -> None:
        if n_contributions == 0:
            return
        need = n_contributions * (int(math.ceil(max_abs * self.scale)) + 1)
        if need >= 1 << 63:
            raise CodecOverflowError(
                f"{n_contributions} contributions of magnitude up to {max_abs} "
                f"risk wraparound in the 2^64 ring at {self.precision_bits} fractional bits"
            )

    def ring_sum(
        self, contrib: np.ndarray, cell: np.ndarray, n_cells: int, n_clients: int
    ) -> np.ndarray:
        """Decoded modular sum of the contribution rows that land in each cell.

        Row r of ``contrib`` adds into cell ``cell[r]``; ``n_clients`` is the
        most rows any one cell can receive, which the capacity check bounds.
        Returns an (n_cells, *contrib.shape[1:]) float array.
        """
        if contrib.shape[0]:
            self.check_capacity(n_clients, float(np.abs(contrib).max()))
        # numpy's fast ``add.at`` path takes 1-D operands only, so each
        # contribution column is scattered into its own 1-D accumulator.
        cols = self.encode(contrib).reshape(contrib.shape[0], math.prod(contrib.shape[1:]))
        acc = np.zeros((cols.shape[1], n_cells), dtype=np.uint64)
        for k in range(cols.shape[1]):
            np.add.at(acc[k], cell, cols[:, k])
        return self.decode(acc.T.reshape((n_cells,) + contrib.shape[1:]))

    def ring_reduce(self, blocks: Iterable[np.ndarray], n_clients: int) -> np.ndarray:
        """Decoded modular sum of dense per-client contribution blocks.

        Each block is a (clients, *shape) float array, one row per client, all
        blocks of one shape; every row is encoded, the rows are summed in the
        ring over the client axis and the block partials are added. An
        encoded zero adds nothing, so a dense grid gives the same sums as
        scattering its nonzero entries with ``ring_sum``. ``n_clients`` is the
        most rows any one coordinate receives. The capacity check bounds it
        against each block's largest magnitude before the block is encoded,
        which fails exactly when a check on the largest magnitude of all
        blocks would. Returns a ``shape`` float array.
        """
        acc = np.uint64(0)
        for block in blocks:
            max_abs = max(float(block.max(initial=0.0)), -float(block.min(initial=0.0)))
            self.check_capacity(n_clients, max_abs)
            acc = acc + self.encode(block).sum(axis=0, dtype=np.uint64)
        return self.decode(acc)


@dataclass(frozen=True, eq=False)
class ClientPopulation(Dataset):
    """A training set split into disjoint client shards, stored
    client-contiguous: a ``Dataset``, so every check and the feature-major
    layout hold. ``client_sizes`` gives the shard sizes in order;
    ``client_of_record``, ``client_starts`` (each shard's first record, plus
    n at the end) and ``all_singleton`` derive from it. Raw features and
    labels are client-side state: the trainer must reach them only through
    FederatedAggregator queries.
    """

    client_sizes: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        sizes = np.asarray(self.client_sizes, dtype=np.int64)
        if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != self.n:
            raise InvalidParameterError("client sizes must be positive and cover every record")
        object.__setattr__(self, "client_sizes", sizes)
        object.__setattr__(self, "client_of_record", np.repeat(np.arange(sizes.size), sizes))
        object.__setattr__(self, "client_starts", np.concatenate([[0], np.cumsum(sizes)]))
        object.__setattr__(self, "all_singleton", bool(np.all(sizes == 1)))

    @property
    def n_clients(self) -> int:
        return int(self.client_sizes.size)


def partition(dataset: Dataset, n_clients: int | None, policy: str, seed: int = 0) -> ClientPopulation:
    """Split a dataset into a client population under the given policy.

    One record per client keeps the dataset's record order and shares its
    arrays; equal shards are the records in a seeded random order, cut into
    ``n_clients`` shards whose sizes differ by at most one.
    """
    if policy == ONE_RECORD_PER_CLIENT:
        if n_clients is not None and n_clients != dataset.n:
            raise InvalidParameterError(
                f"one-record policy makes {dataset.n} clients, not {n_clients}"
            )
        sizes = np.ones(dataset.n, dtype=np.int64)
    elif policy == EQUAL_SHARDS:
        if n_clients is None or not (1 <= n_clients <= dataset.n):
            raise InvalidParameterError(
                f"equal shards require 1 <= n_clients <= {dataset.n}, got {n_clients}"
            )
        base, extra = divmod(dataset.n, n_clients)
        sizes = np.full(n_clients, base, dtype=np.int64)
        sizes[:extra] += 1
        dataset = dataset.take(philox(seed).permutation(dataset.n))
    else:
        raise InvalidParameterError(f"unknown partition policy: {policy!r}")
    return ClientPopulation(
        dataset.features, dataset.labels, dataset.bounds, dataset.bounds_derived, client_sizes=sizes
    )


# Upper bound on the dense (client, cell) grid a release of a sharded
# population allocates at once; clients are reduced in blocks that fit under it.
GROUP_GRID_CELLS = 1 << 20


def _client_blocks(pop: ClientPopulation, n_cells: int):
    """(first client, end client) of each block whose dense grid fits the cap."""
    step = max(1, GROUP_GRID_CELLS // n_cells)
    return [(c, min(c + step, pop.n_clients)) for c in range(0, pop.n_clients, step)]


@dataclass(frozen=True)
class CommLedger:
    """Aggregation rounds and per-client uplink for one training run.

    ``per_round_payload`` is the scalars one client sends in a regular
    aggregation round; ``uplink_values`` totals the whole run, and every
    scalar is one 8-byte word of the 2^64 ring (``uplink_bytes``). Secure
    aggregation itself multiplies network round trips by
    ``SECURE_AGG_ROUND_FACTOR``; it is reported, not simulated.
    """

    rounds: int
    per_round_payload: int
    uplink_values: int

    @property
    def uplink_bytes(self) -> int:
        return self.uplink_values * 8

    @classmethod
    def from_rounds(cls, rounds: Sequence[Round]) -> "CommLedger":
        """Round count, the largest split or leaf payload, and the uplink total
        of ``rounds``."""
        return cls(
            rounds=len(rounds),
            per_round_payload=max((r.uplink for r in rounds if r.kind != "c"), default=0),
            uplink_values=sum(r.uplink for r in rounds),
        )


def comm_accounting(config: "TrainConfig") -> CommLedger:
    """Rounds and payload sizes of the configuration's ``plan``."""
    return CommLedger.from_rounds(plan(config))


class FederatedAggregator:
    """Server-side handle to the client population.

    Raw records, labels, scores, and gradients live here as client state; the
    trainer sees them only through the query methods below, each of which
    meters its privacy cost and communication. Structure broadcast
    (``apply_splits``) and local score updates are free.

    Clients keep their records binned against the current candidate set: the
    bin matrix is rebuilt only when a query names a different
    ``SplitCandidateSet`` object.
    """

    def __init__(
        self,
        population: ClientPopulation,
        codec: FixedPointCodec | None = None,
        noise_std: float | None = None,
        noise_seed=None,
        local_noise: bool = False,
    ):
        if noise_std is not None and not (noise_std > 0.0 and math.isfinite(noise_std)):
            raise InvalidParameterError(f"noise std must be positive and finite, got {noise_std}")
        self.pop = population
        self.codec = codec if codec is not None else FixedPointCodec()
        self.noise_std = noise_std
        self.local_noise = noise_std is not None and local_noise
        self.central_noise = noise_std is not None and not local_noise
        self._rng = philox(noise_seed if noise_seed is not None else 0)
        n = population.n
        self.raw_scores = np.zeros(n)
        self.gh = np.stack([np.zeros(n), np.ones(n)])
        self.node = np.zeros(n, dtype=np.int64)
        self.level = 0  # depth of every record's current node
        self._bins = None
        self._bins_for: SplitCandidateSet | None = None
        self.rounds: list[Round] = []
        self.noise_draws = 0

    # ------------------------------------------------------------------
    # client-local computation (no queries, no communication)

    def recompute_gradients(self, mode: UpdateMode) -> None:
        """Recompute every record's (g, h), stacked as ``gh`` (2, n) until the
        next gradient barrier."""
        self.gh = mode_gradients(self.pop.labels, self.raw_scores, mode)

    def begin_tree(self) -> None:
        self.node[:] = 0
        self.level = 0

    def apply_splits(self, feature: np.ndarray, threshold: np.ndarray) -> None:
        """Clients route their records one level down the announced splits.

        ``feature`` and ``threshold`` are a tree's heap arrays (see ``Tree``);
        every node of the records' current level must be set in them.
        """
        self.node = descend(self.pop.features, self.node, self.level, feature, threshold)
        self.level += 1

    def apply_score_update(self, batch, eta: float, plain: bool) -> None:
        """Clients fold a finished batch of public trees into their raw scores."""
        weights = (tree.leaf_weights[assign] for tree, assign in batch)
        self.raw_scores = update_scores(self.raw_scores, weights, eta, plain)

    def nonprivate_feature_column(self, j: int) -> np.ndarray:
        """Pooled raw values of one feature, sorted. Explicitly NOT private:
        quantile candidates read it, and ``TrainResult.nonprivate_candidates``
        reports such runs as partially non-private."""
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
        """Index of each record's node within the sorted ``nodes``.

        Raises InvalidParameterError when some record sits in none of
        ``nodes`` (records sit at the current level, below node 2^(level+1)
        - 1): its (g, h) would land in no released cell.
        """
        if not nodes.size:
            raise InvalidParameterError("a round must cover at least one node")
        lookup = np.full(max(int(nodes[-1]), 2 ** (self.level + 1) - 2) + 1, -1, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.size)
        pos = lookup.take(self.node)
        if pos.min(initial=0) < 0:
            raise InvalidParameterError(
                f"nodes {nodes.tolist()} do not cover every record's node at level {self.level}"
            )
        return pos

    # ------------------------------------------------------------------
    # metered queries

    def _release(self, cell: np.ndarray, n_cells: int) -> np.ndarray:
        """Securely aggregate the records' (g, h) into (n_cells, 2) noisy sums.

        Central model: one N(0, ``noise_std``^2) draw per released coordinate
        after decoding. Local model: one per client-contribution coordinate
        before encoding. One-record clients send their record's (g, h) into its
        cell, scattered by ``ring_sum``; sharded clients send their dense
        per-cell sums, reduced by ``ring_reduce`` (see ``_client_grids``).
        """
        if self.pop.all_singleton:
            contrib = self.gh.T
            if self.local_noise:
                contrib = contrib + self._noise(contrib.shape)
            out = self.codec.ring_sum(contrib, cell, n_cells, self.pop.n_clients)
        else:
            out = self.codec.ring_reduce(self._client_grids(cell, n_cells), self.pop.n_clients)
        if self.central_noise:
            out = out + self._noise(out.shape)
        return out

    def _noise(self, shape: tuple[int, ...]) -> np.ndarray:
        """Every Gaussian a release adds: ``shape`` draws at ``noise_std``, counted."""
        draws = self._rng.normal(0.0, self.noise_std, size=shape)
        self.noise_draws += draws.size
        return draws

    def _client_grids(self, cell: np.ndarray, n_cells: int):
        """Per-client (g, h) sums of every cell, one client block at a time.

        Yields (clients, n_cells, 2) grids whose blocks stay under
        ``GROUP_GRID_CELLS`` entries. Under local noise every populated
        (client, cell) pair is noised, in ascending client-then-cell order.
        """
        pop, gh = self.pop, self.gh
        for first, end in _client_blocks(pop, n_cells):
            lo, hi = pop.client_starts[first], pop.client_starts[end]
            key = (pop.client_of_record[lo:hi] - first) * n_cells + cell[lo:hi]
            size = (end - first) * n_cells
            sums = [np.bincount(key, weights=w, minlength=size) for w in gh[:, lo:hi]]
            grid = np.column_stack(sums)
            if self.local_noise:
                hit = np.flatnonzero(np.bincount(key, minlength=size))
                grid[hit] += self._noise((hit.size, 2))
            yield grid.reshape(end - first, n_cells, 2)

    def _round(
        self, kind: str, queries: int, nodes: int, cells: int, cell_of: Iterable[np.ndarray]
    ) -> np.ndarray:
        """Meter ``Round(kind, queries, nodes, cells)``, then release it:
        ``cell_of`` yields each query's record-to-cell array, cell c of node
        position p at p * cells + c. Returns the (queries, nodes * cells, 2) sums."""
        if queries < 1:
            raise InvalidParameterError(f"a {kind!r} round must release at least one query")
        self.rounds.append(Round(kind, queries, nodes, cells))
        return np.stack([self._release(cell, nodes * cells) for cell in cell_of])

    def histogram_round(
        self, nodes: Sequence[int], features: Sequence[int], cand_set: SplitCandidateSet, category: str
    ) -> np.ndarray:
        """One aggregation round releasing a per-node histogram per feature.

        Every record must sit in one of ``nodes`` (a disjoint level of the
        tree), so each feature's histogram is one privacy query by parallel
        composition: Q cells per node. Binning is closed-right (see
        ``bin_index``). ``category`` is "c" (candidate refinement) or "s".

        Returns an (F, nodes, Q, 2) array: features in the order given, nodes
        in ascending order, the (G, H) sums of each bin.
        """
        if category not in ("c", "s"):
            raise InvalidParameterError(f"a histogram round is of kind c or s, not {category!r}")
        Q, F = cand_set.q, len(features)
        nodes = np.asarray(sorted(nodes), dtype=np.int64)
        pos = self._positions(nodes) * Q
        bins = self._binned(cand_set)
        sums = self._round(category, F, nodes.size, Q, (pos + bins[j] for j in features))
        return sums.reshape(F, nodes.size, Q, 2)

    def split_pair_round(
        self, nodes: Sequence[int], proposals: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """One round of two-sided aggregates, one proposed threshold per node
        per feature. One privacy query per feature: 2 cells (left, right) per
        node.

        Every record must sit in one of ``nodes``. ``proposals`` maps each
        feature to its thresholds, one per node in ascending node order.
        Returns an (F, nodes, 4) array: features in the order of
        ``proposals``, nodes in ascending order, and (G_L, H_L, G_R, H_R) of
        each split, left being x <= threshold.
        """
        nodes = np.asarray(sorted(nodes), dtype=np.int64)
        thresholds = [np.asarray(thr, dtype=float) for thr in proposals.values()]
        if any(thr.shape != nodes.shape for thr in thresholds):
            raise InvalidParameterError("every feature must propose one threshold per node")
        F = len(proposals)
        pos = self._positions(nodes)
        left_cell = pos * 2
        features = self.pop.features
        cell_of = (left_cell + (features[:, j] > thr[pos]) for j, thr in zip(proposals, thresholds))
        return self._round("s", F, nodes.size, 2, cell_of).reshape(F, nodes.size, 4)

    def leaf_round(self, assignments: Sequence[np.ndarray], n_leaves: int) -> np.ndarray:
        """One round carrying the leaf vectors of a whole batch of trees.

        Each tree's leaf partition is one privacy query, one node of
        ``n_leaves`` cells; empty leaves release pure noise, and the client
        message grows linearly with the batch. Each assignment gives every
        record an integer leaf in [0, n_leaves).
        Returns a (trees, n_leaves, 2) array of leaf (G, H) sums.
        """
        n, assignments = self.pop.n, [np.asarray(assign) for assign in assignments]
        for a in assignments:
            if a.shape != (n,) or a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= n_leaves:
                raise InvalidParameterError(f"leaf assignments put {n} records in [0, {n_leaves})")
        cell_of = (a.astype(np.int64, copy=False) for a in assignments)
        return self._round("w", len(assignments), 1, n_leaves, cell_of)
