"""Simulated horizontal federation with fixed-point secure aggregation.

Clients hold disjoint record shards: a ``ClientPopulation`` is a validated,
feature-major ``data.Dataset`` grouped into clients. Every statistic that reaches the
server-side trainer passes through one pipeline: every record's (g, h) is
encoded to fixed point, the encodings are summed exactly per released cell
(secure aggregation shows the server only that total, the same integer
however the records are split into clients), decoded, and noised with one
Gaussian draw per released coordinate. Under local noising each client
perturbs its own contribution before encoding instead, and no central noise
is added.

A hist or pr level round is post-processing of exact per-node histograms:
a histogram release merges their last two bins, a pair release reads a
prefix sum and its complement. Below the root, a round over a whole level
scans only each sibling pair's smaller child and takes the larger as the
parent minus the smaller (histogram subtraction). Every sum of encodings is
an integer below 2^53, so the subtraction is exact and each release equals
a direct scatter bit for bit. Locally noised level rounds still scatter once
per query until the noise moves after the sum (ROADMAP item 1).

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


class CodecOverflowError(ValueError):
    """A sum of encodings could leave the range where float64 holds integers exactly."""


@dataclass(frozen=True)
class FixedPointCodec:
    """Fixed-point encoding with ``precision_bits`` fractional bits.

    An encoding is an integer held in a float64, so a sum of encodings is
    exact, in any order, while every partial sum stays below 2^53 in
    magnitude; the capacity check guarantees that before each sum.
    Quantisation error is at most 1/(2*scale) per encoded contribution.
    """

    precision_bits: int = 16

    def __post_init__(self):
        if not (1 <= self.precision_bits < 53):
            raise InvalidParameterError("need 1 <= precision_bits < 53")

    @property
    def scale(self) -> int:
        return 1 << self.precision_bits

    def encode(self, values: np.ndarray) -> np.ndarray:
        fixed = np.asarray(values, dtype=float) * self.scale  # rounded in place
        return np.rint(fixed, out=fixed)

    def decode(self, sums: np.ndarray) -> np.ndarray:
        return np.asarray(sums, dtype=float) / self.scale

    def check_capacity(self, n_contributions: int, max_abs: float) -> None:
        if n_contributions == 0:
            return
        need = n_contributions * (int(math.ceil(max_abs * self.scale)) + 1)
        if need >= 1 << 53:
            raise CodecOverflowError(
                f"{n_contributions} contributions of magnitude up to {max_abs} "
                f"leave the exact 2^53 range at {self.precision_bits} fractional bits"
            )

    def encode_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Each row of an (n, 2) float array encoded as one complex128, after
        checking that all n rows may be summed into one cell."""
        if len(pairs):
            self.check_capacity(len(pairs), float(np.abs(pairs).max()))
        return np.ascontiguousarray(self.encode(pairs)).view(np.complex128)[:, 0]

    def ring_sum(self, pairs: np.ndarray, cell: np.ndarray, n_cells: int) -> np.ndarray:
        """Decoded (n_cells, 2) sums of the ``encode_pairs`` rows that land in
        each cell: row r adds into cell ``cell[r]`` with one ``add.at``."""
        acc = np.zeros(n_cells, np.complex128)
        np.add.at(acc, cell, pairs)
        return self.decode(acc.view(float).reshape(n_cells, 2))

    def ring_reduce(self, blocks: Iterable[np.ndarray], n_clients: int) -> np.ndarray:
        """Decoded sum of dense per-client contribution blocks.

        Each block is a (clients, *shape) float array, one row per client;
        every row is encoded, the rows are summed over the client axis and
        the block partials are added. ``n_clients`` is the most rows any one
        coordinate receives; each block is capacity-checked against its own
        largest magnitude before it is encoded. Returns a ``shape`` array.
        """
        acc = 0.0
        for block in blocks:
            max_abs = max(float(block.max(initial=0.0)), -float(block.min(initial=0.0)))
            self.check_capacity(n_clients, max_abs)
            acc = acc + self.encode(block).sum(axis=0)
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


# Upper bound on the dense (client, cell) grid a locally noised release of a
# sharded population allocates at once; clients are reduced in blocks under it.
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
    scalar is one 8-byte word (``uplink_bytes``). Secure aggregation itself
    multiplies network round trips by about 3, a stated factor, not simulated.
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
    ``SplitCandidateSet`` object. A whole-level round keeps its exact node
    histograms for the next level's round (``_node_sums``) until
    ``begin_tree``.
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
        self.labels = population.labels.astype(float)  # cast once, not at every barrier
        self.raw_scores = np.zeros(n)
        gh = np.zeros((n, 2))
        gh[:, 1] = 1.0
        self.gh = gh.T  # record-major, as mode_gradients
        self._pairs = self._pairs_for = None  # see _encoded
        self.node = np.zeros(n, dtype=np.int64)
        self.level = 0  # depth of every record's current node
        self._bins = None
        self._bins_for: SplitCandidateSet | None = None
        self._parent = None  # see _node_sums
        self.rounds: list[Round] = []
        self.noise_draws = 0

    # ------------------------------------------------------------------
    # client-local computation (no queries, no communication)

    def recompute_gradients(self, mode: UpdateMode) -> None:
        """Recompute every record's (g, h), stacked as ``gh`` (2, n) until the
        next gradient barrier."""
        self.gh = mode_gradients(self.labels, self.raw_scores, mode)

    def begin_tree(self) -> None:
        self.node[:] = 0
        self.level = 0
        self._parent = None

    def apply_splits(self, feature: np.ndarray, threshold: np.ndarray) -> None:
        """Clients route their records one level down the announced splits.

        ``feature`` and ``threshold`` are a tree's heap arrays (see ``Tree``);
        every node of the records' current level must be set in them.
        """
        self.node = descend(self.pop.features, self.node, self.level, feature, threshold)
        self.level += 1

    def apply_score_update(self, batch, eta: float, plain: bool) -> None:
        """Clients fold a finished batch of public trees into their raw scores.

        Each assignment holds narrow (uint8 or uint16) leaf ids, so the leaf
        weights are gathered with ``take``, which reads them as they are;
        indexing would first cast every id to intp.
        """
        weights = (tree.leaf_weights.take(assign) for tree, assign in batch)
        self.raw_scores = update_scores(self.raw_scores, weights, eta, plain)

    def nonprivate_feature_column(self, j: int) -> np.ndarray:
        """Pooled raw values of one feature, sorted. Explicitly NOT private:
        quantile candidates read it, and the run record
        (``boosting.run_record``) reports such runs as partially non-private."""
        return np.sort(self.pop.features[:, j])

    def _binned(self, cand_set: SplitCandidateSet) -> np.ndarray:
        """(m, n) bin of every record under ``cand_set``, cached per set: the
        number of candidates below the value, one of Q + 1 bins, so that
        x <= t_c exactly when bin <= c, for every candidate c. That is
        ``bin_index`` against the candidates plus a +inf sentinel (features
        are finite); each column's bins, already in its narrow dtype, are
        written straight into their row."""
        if cand_set is not self._bins_for:
            dtype = np.min_scalar_type(cand_set.q)
            self._bins = np.empty((cand_set.n_features, self.pop.n), dtype)
            for j, thr in enumerate(cand_set.per_feature):
                self._bins[j] = bin_index(self.pop.features[:, j], np.append(thr, np.inf))
            self._bins_for = cand_set
        return self._bins

    def _positions(self, nodes: np.ndarray) -> np.ndarray:
        """Index of each record's node within the sorted ``nodes``.

        Raises InvalidParameterError unless ``nodes`` are distinct nodes of
        the current level, 2^level - 1 to 2^(level+1) - 2, where every
        record sits: a repeated or foreign node would release an extra row.
        It raises too when some record sits in none of ``nodes``: its (g, h)
        would land in no released cell.
        """
        if not nodes.size:
            raise InvalidParameterError("a round must cover at least one node")
        end = 2 ** (self.level + 1) - 1  # one past the level's last node
        if nodes[0] < end // 2 or nodes[-1] >= end or (nodes[1:] == nodes[:-1]).any():
            raise InvalidParameterError(
                f"nodes {nodes.tolist()} are not distinct nodes of level {self.level}"
            )
        lookup = np.full(end, -1, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.size)
        pos = lookup.take(self.node)
        if pos.min(initial=0) < 0:
            raise InvalidParameterError(
                f"nodes {nodes.tolist()} do not cover every record's node at level {self.level}"
            )
        return pos

    # ------------------------------------------------------------------
    # metered queries

    def _encoded(self) -> np.ndarray:
        """Every record's encoded (g, h) as one complex128, cached per ``gh``:
        encoded and capacity-checked once per gradient barrier, however many
        queries the rounds until the next barrier make."""
        if self.gh is not self._pairs_for:
            self._pairs = self.codec.encode_pairs(self.gh.T)
            self._pairs_for = self.gh
        return self._pairs

    def _release(self, key: np.ndarray, n_cells: int) -> np.ndarray:
        """Securely aggregate the records' (g, h) into (n_cells, 2) noisy sums.

        ``key`` is each record's cell (see ``_scatter``). The server sees only
        the total, which is the same integer however the records are split
        into clients, so a release without local noise scatters the records'
        encoded pairs (``_encoded``) at their cells and decodes, for
        one-record and sharded clients alike; central noise then adds one
        N(0, ``noise_std``^2) draw per released coordinate. Local noise is
        drawn per client-contribution coordinate before encoding: a
        one-record client noises its record's (g, h), scattered the same way;
        sharded clients noise their dense per-cell sums, reduced by
        ``ring_reduce`` (see ``_client_grids``).
        """
        if self.local_noise and not self.pop.all_singleton:
            return self.codec.ring_reduce(self._client_grids(key, n_cells), self.pop.n_clients)
        if self.local_noise:
            pairs = self.codec.encode_pairs(self.gh.T + self._noise((self.pop.n, 2)))
            return self.codec.ring_sum(pairs, key, n_cells)
        return self._central(self.codec.ring_sum(self._encoded(), key, n_cells))

    def _central(self, out: np.ndarray) -> np.ndarray:
        """A decoded query release ``out`` plus, under central noise, one
        N(0, ``noise_std``^2) draw per coordinate."""
        return out + self._noise(out.shape) if self.central_noise else out

    def _noise(self, shape: tuple[int, ...]) -> np.ndarray:
        """Every Gaussian a release adds: ``shape`` draws at ``noise_std``, counted."""
        draws = self._rng.normal(0.0, self.noise_std, size=shape)
        self.noise_draws += draws.size
        return draws

    def _client_grids(self, key: np.ndarray, n_cells: int):
        """Locally noised per-client (g, h) sums of every cell, the sharded
        local release, one client block at a time: one ``add.at`` of each
        record's (g, h), a complex view of ``gh``, in record order, at
        client * n_cells + ``key`` within the block; then every populated
        (client, cell) pair is noised, in ascending client-then-cell order.
        Yields (clients, n_cells, 2) grids whose blocks stay under
        ``GROUP_GRID_CELLS`` entries.
        """
        pop = self.pop
        pairs = np.ascontiguousarray(self.gh.T).view(np.complex128)[:, 0]
        for first, end in _client_blocks(pop, n_cells):
            lo, hi = pop.client_starts[first], pop.client_starts[end]
            block = key[lo:hi] + (pop.client_of_record[lo:hi] - first) * n_cells
            size = (end - first) * n_cells
            acc = np.zeros(size, np.complex128)
            np.add.at(acc, block, pairs[lo:hi])
            grid = acc.view(float).reshape(size, 2)
            hit = np.flatnonzero(np.bincount(block, minlength=size))
            grid[hit] += self._noise((hit.size, 2))
            yield grid.reshape(end - first, n_cells, 2)

    def _check_features(self, features: Iterable[int]) -> None:
        """Raise InvalidParameterError unless every feature is in [0, m)."""
        m = self.pop.m
        if any(not 0 <= j < m for j in features):
            raise InvalidParameterError(f"features {list(features)} are not all in [0, {m})")

    def _meter(self, kind: str, queries: int, nodes: int, cells: int) -> None:
        """Record ``Round(kind, queries, nodes, cells)``; a round releases at
        least one query."""
        if queries < 1:
            raise InvalidParameterError(f"a {kind!r} round must release at least one query")
        self.rounds.append(Round(kind, queries, nodes, cells))

    def _scatter(
        self, nodes: int, pos: np.ndarray | None, cells: int, parts: Iterable[np.ndarray]
    ) -> np.ndarray:
        """Release each query by its own scatter (``_release``).

        The round computes each record's slot once: position * cells, where
        ``pos`` holds each record's node position among the round's nodes.
        ``parts`` yields each query's record-to-cell array within the
        record's node (a bin, a pair side or a leaf), so a query adds only
        that to the slot; with one node (``pos`` None) the part is the key.
        Keys name cells, not clients: a release sums records (see
        ``_release``). Returns the (queries, nodes * cells, 2) sums.
        """
        if pos is None:
            keys = (part.astype(np.intp) for part in parts)
        else:
            slot = pos * cells
            keys = (slot + part for part in parts)
        return np.stack([self._release(key, nodes * cells) for key in keys])

    def _node_sums(
        self,
        nodes: np.ndarray,
        pos: np.ndarray,
        features: Sequence[int],
        cand_set: SplitCandidateSet,
    ) -> np.ndarray:
        """Encoded (F, nodes, Q + 1) sums of the records' (g, h) in every bin
        (``_binned``) of every node, one complex128 per cell.

        A round over the whole level right below a whole-level round on the
        same ``gh``, candidate set and features (LightGBM's histogram
        subtraction; Ke et al., NeurIPS 2017) scatters only the records of
        each sibling pair's smaller child, the left one on a tie, and sets
        the larger child to the parent's sums minus the smaller's. Any other
        round makes one ``add.at`` per feature over every record. Each sum is
        an integer below 2^53 (``_encoded`` checks the capacity), so every
        difference is exact and equals the direct scatter bit for bit. The
        sums of a whole-level round are kept for the next level until
        ``begin_tree``.
        """
        bins, pairs = self._binned(cand_set), self._encoded()
        features, Q1, N = tuple(features), cand_set.q + 1, nodes.size
        parent, full = self._parent, N == 2**self.level
        if (
            full
            and parent is not None
            and parent[0] == self.level - 1
            and parent[1] is self.gh
            and parent[2] is cand_set
            and parent[3] == features
        ):
            parent_sums = parent[4]
            count = np.bincount(pos, minlength=N)
            right = count[1::2] < count[::2]  # the right child is the smaller: scan it
            scanned = np.zeros(N, dtype=bool)
            scanned[np.arange(0, N, 2) + right] = True
            rec = np.flatnonzero(scanned.take(pos))
            slot, pairs = (pos.take(rec) >> 1) * Q1, pairs.take(rec)
            small = np.zeros((len(features), N // 2 * Q1), np.complex128)
            for acc, j in zip(small, features):
                np.add.at(acc, slot + bins[j].take(rec), pairs)
            small = small.reshape(parent_sums.shape)
            large, pick = parent_sums - small, right[:, None]
            sums = np.stack([np.where(pick, large, small), np.where(pick, small, large)], axis=2)
        else:
            sums = np.zeros((len(features), N * Q1), np.complex128)
            slot = pos * Q1
            for acc, j in zip(sums, features):
                np.add.at(acc, slot + bins[j], pairs)
        sums = sums.reshape(len(features), N, Q1)
        self._parent = (self.level, self.gh, cand_set, features, sums) if full else None
        return sums

    def _publish(self, sums: np.ndarray) -> np.ndarray:
        """Decode each query's exact (nodes, cells) complex sums and noise it as
        ``_release`` does; returns (queries, nodes * cells, 2)."""
        decoded = self.codec.decode(sums.view(float)).reshape(len(sums), -1, 2)
        return np.stack([self._central(query) for query in decoded])

    def histogram_round(
        self, nodes: Sequence[int], features: Sequence[int], cand_set: SplitCandidateSet, category: str
    ) -> np.ndarray:
        """One aggregation round releasing a per-node histogram per feature.

        Every record must sit in one of ``nodes`` (a disjoint level of the
        tree), so each feature's histogram is one privacy query by parallel
        composition: Q cells per node. Binning is closed-right (see
        ``bin_index``): bin Q - 1 also holds the values above the last
        candidate. ``category`` is "c" (candidate refinement) or "s".

        Returns an (F, nodes, Q, 2) array: features in the order given, nodes
        in ascending order, the (G, H) sums of each bin.
        """
        if category not in ("c", "s"):
            raise InvalidParameterError(f"a histogram round is of kind c or s, not {category!r}")
        Q, F = cand_set.q, len(features)
        self._check_features(features)
        nodes = np.asarray(sorted(nodes), dtype=np.int64)
        pos = self._positions(nodes)
        self._meter(category, F, nodes.size, Q)
        if self.local_noise:
            bins = self._binned(cand_set)
            parts = (np.minimum(bins[j], Q - 1) for j in features)
            return self._scatter(nodes.size, pos, Q, parts).reshape(F, nodes.size, Q, 2)
        sums = self._node_sums(nodes, pos, features, cand_set)
        hist = sums[..., :Q].copy()
        hist[..., -1] += sums[..., Q]
        return self._publish(hist).reshape(F, nodes.size, Q, 2)

    def split_pair_round(
        self,
        nodes: Sequence[int],
        proposals: Mapping[int, np.ndarray],
        cand_set: SplitCandidateSet,
    ) -> np.ndarray:
        """One round of two-sided aggregates, one proposed candidate per node
        per feature. One privacy query per feature: 2 cells (left, right) per
        node.

        Every record must sit in one of ``nodes``. ``proposals`` maps each
        feature to candidate indices in [0, Q) of ``cand_set``, one per node
        in ascending node order. Returns an (F, nodes, 4) array: features in
        the order of ``proposals``, nodes in ascending order, and
        (G_L, H_L, G_R, H_R) of each split, left being x <= the candidate.
        """
        nodes = np.asarray(sorted(nodes), dtype=np.int64)
        Q, F = cand_set.q, len(proposals)
        indices = [np.asarray(c) for c in proposals.values()]
        valid = all(c.shape == nodes.shape and c.dtype.kind in "iu" for c in indices)
        drawn = np.stack([c.astype(np.intp) for c in indices]) if valid and F else np.zeros(0)
        if not valid or drawn.min(initial=0) < 0 or drawn.max(initial=0) >= Q:
            raise InvalidParameterError(
                f"every feature must propose one candidate index in [0, {Q}) per node"
            )
        self._check_features(proposals)
        pos = self._positions(nodes)
        self._meter("s", F, nodes.size, 2)
        if self.local_noise:
            bins = self._binned(cand_set)
            right = (bins[j] > c.take(pos) for j, c in zip(proposals, drawn))
            return self._scatter(nodes.size, pos, 2, right).reshape(F, nodes.size, 4)
        cum = self._node_sums(nodes, pos, list(proposals), cand_set).cumsum(axis=-1)
        left = np.take_along_axis(cum, drawn[..., None], axis=-1)
        sides = np.concatenate([left, cum[..., -1:] - left], axis=-1)
        return self._publish(sides).reshape(F, nodes.size, 4)

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
        self._meter("w", len(assignments), 1, n_leaves)
        return self._scatter(1, None, n_leaves, assignments)
