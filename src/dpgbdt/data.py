"""Dataset ingestion, synthetic data generation, and train/test splitting.

Feature bounds are part of the dataset contract: private training assumes the
per-feature ranges are public knowledge. When bounds are inferred from the
data itself the dataset is flagged, and the trainer refuses to run privately
on it.

A ``Dataset`` holds its features feature-major (Fortran order), so every read
of one feature column (binning, pair queries, routing) is contiguous; a
client population is a ``Dataset`` too (``federation.ClientPopulation``).

All randomness uses the counter-based Philox generator so that synthetic data
and splits are bit-reproducible across platforms and runs.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .accounting import InvalidParameterError

__all__ = [
    "Dataset",
    "SplitPair",
    "CsvParseError",
    "NonBinaryLabelError",
    "OutOfBoundsError",
    "check_bounds",
    "load_csv",
    "synthesize",
    "train_test_split",
    "philox",
]

# Shape parameters of the heavy-tailed synthetic features; the clip point is
# far enough out (4 log-sigma) that clipping leaves skewness intact.
_LOGNORMAL_SIGMA = 1.25
_LOGNORMAL_CLIP = math.exp(4.0 * _LOGNORMAL_SIGMA)
_LOGIT_SCALE = 2.5


def philox(seed) -> np.random.Generator:
    """The project-wide PRNG: counter-based Philox 4x64, keyed by a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class CsvParseError(ValueError):
    """CSV ingestion failure, with 1-based row/column position where known."""


class NonBinaryLabelError(CsvParseError):
    pass


class OutOfBoundsError(ValueError):
    """A feature value lies outside its declared bounds."""


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (an int but not a bool); anything
    else, 2.0 included, raises TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float if it is a real number: a Python or numpy int or
    float, not a bool. Anything else, a numeric string included, raises
    TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_keys(payload, keys, name: str) -> None:
    """Raise InvalidParameterError unless the keys of ``payload`` are exactly
    ``keys``: a key the reader does not read is refused, not dropped."""
    if set(payload) != set(keys):
        raise InvalidParameterError(
            f"malformed {name}: keys {sorted(payload)}, not {sorted(keys)}"
        )


def check_bounds(bounds) -> tuple[tuple[float, float], ...]:
    """``bounds`` as (low, high) float pairs, the one rule for declared
    bounds. A bound that is not a number (``json_number``: a bool or a
    string is not) raises TypeError; a pair that is not finite with
    low < high raises ValueError."""
    out = tuple((json_number(a, "bound"), json_number(b, "bound")) for a, b in bounds)
    for j, (a, b) in enumerate(out):
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(
                f"bounds of feature {j} must be finite with low < high, got ({a}, {b})"
            )
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable numeric dataset with binary labels and per-feature bounds;
    every feature value is finite, inside its bounds and held feature-major."""

    features: np.ndarray
    labels: np.ndarray
    bounds: tuple[tuple[float, float], ...]
    bounds_derived: bool = False

    def __post_init__(self):
        X = np.asfortranarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("features must be a non-empty n x m matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a vector aligned with features")
        if not np.all((y == 0) | (y == 1)):
            raise NonBinaryLabelError("labels must all be 0 or 1")
        y = y.astype(np.int64, copy=False)
        finite = np.isfinite(X)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"feature {col} value {X[row, col]!r} at row {row + 1} is not finite")
        bounds = check_bounds(self.bounds)
        if len(bounds) != X.shape[1]:
            raise ValueError("one (low, high) bound pair required per feature")
        for j, (a, b) in enumerate(bounds):
            lo, hi = X[:, j].min(), X[:, j].max()
            if lo < a or hi > b:
                row = int(np.argmax((X[:, j] < a) | (X[:, j] > b)))
                raise OutOfBoundsError(
                    f"feature {j} value {X[row, j]!r} at row {row + 1} outside "
                    f"declared bounds ({a}, {b})"
                )
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def take(self, index: np.ndarray) -> "Dataset":
        """The rows at ``index``, positions in order or a boolean mask, sharing
        bounds and flags. Each column is gathered straight into the
        feature-major layout, with no row-major copy on the way."""
        index = np.asarray(index)
        if index.dtype == bool:  # NumPy's mask indexing, length check included
            index = np.arange(self.n)[index]
        features = np.empty((index.size, self.m), order="F")
        for j, column in enumerate(self.features.T):
            np.take(column, index, out=features[:, j])
        return Dataset(features, self.labels[index], self.bounds, self.bounds_derived)


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset


def load_csv(path, label_column: str, bounds=None) -> Dataset:
    """Parse a numeric CSV with a header row into a Dataset.

    Feature cells must be finite numbers and label cells 0 or 1; a bad cell's
    error names its row and column. If ``bounds`` (a sequence of (low, high)
    pairs aligned with the non-label columns) is omitted, bounds are derived
    from column minima/maxima and the dataset is flagged as non-private.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise CsvParseError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feature_names = [name for i, name in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        labels: list[int] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for col_no, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: non-numeric cell {cell!r} at row {row_no}, "
                        f"column {col_no} ({header[col_no - 1]!r})"
                    ) from None
                if not math.isfinite(value) and col_no - 1 != label_idx:
                    raise CsvParseError(
                        f"{path}: non-finite cell {cell!r} at row {row_no}, "
                        f"column {col_no} ({header[col_no - 1]!r})"
                    )
                parsed.append(value)
            label = parsed.pop(label_idx)
            if label not in (0.0, 1.0):
                raise NonBinaryLabelError(
                    f"{path}: label {label!r} at row {row_no} is not binary"
                )
            rows.append(parsed)
            labels.append(int(label))

    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    X = np.array(rows, dtype=float)
    y = np.array(labels, dtype=np.int64)
    if bounds is None:
        derived = tuple((float(X[:, j].min()), float(X[:, j].max())) for j in range(X.shape[1]))
        # Degenerate constant columns get a unit pad so bounds stay an interval.
        derived = tuple((a, b) if a < b else (a - 0.5, a + 0.5) for a, b in derived)
        return Dataset(X, y, derived, bounds_derived=True)
    declared = check_bounds(bounds)
    if len(declared) != X.shape[1]:
        raise CsvParseError(
            f"{path}: {len(declared)} bound pairs for {X.shape[1]} feature columns"
        )
    for j, (a, b) in enumerate(declared):
        col = X[:, j]
        bad = (col < a) | (col > b)
        if bad.any():
            row = int(np.argmax(bad))
            raise OutOfBoundsError(
                f"{path}: value {col[row]!r} at row {row + 2}, feature column "
                f"{feature_names[j]!r} outside declared bounds ({a}, {b})"
            )
    return Dataset(X, y, declared, bounds_derived=False)


def synthesize(
    n: int,
    m: int,
    skewed_fraction: float = 0.0,
    class_balance: float = 0.5,
    seed: int = 0,
) -> Dataset:
    """Deterministic synthetic binary-classification data.

    The first round(skewed_fraction * m) features are heavy-tailed
    (log-normal, clipped at the analytic bound), the rest uniform on [0, 1).
    Labels follow a sparse linear-logit rule over every third feature with
    alternating signs; the intercept is solved so the positive rate matches
    ``class_balance`` on the sampled logits.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    if not (0.0 <= skewed_fraction <= 1.0 and 0.0 < class_balance < 1.0):
        raise ValueError("skewed_fraction in [0, 1] and class_balance in (0, 1) required")
    rng = philox(seed)
    n_skew = int(round(skewed_fraction * m))
    X = np.empty((n, m), dtype=float, order="F")
    bounds = []
    for j in range(m):
        if j < n_skew:
            X[:, j] = np.minimum(rng.lognormal(0.0, _LOGNORMAL_SIGMA, size=n), _LOGNORMAL_CLIP)
            bounds.append((0.0, _LOGNORMAL_CLIP))
        else:
            X[:, j] = rng.random(n)
            bounds.append((0.0, 1.0))

    informative = list(range(0, m, 3))
    z = np.zeros(n)
    for rank, j in enumerate(informative):
        col = X[:, j]
        std = col.std()
        if std == 0.0:
            continue
        sign = 1.0 if rank % 2 == 0 else -1.0
        z += sign * (col - col.mean()) / std
    z *= _LOGIT_SCALE / math.sqrt(max(len(informative), 1))
    y = (rng.random(n) < _label_probabilities(z, class_balance)).astype(np.int64)
    return Dataset(X, y, tuple(bounds))


def _label_probabilities(z: np.ndarray, class_balance: float) -> np.ndarray:
    """sigmoid(z + c), where c solves mean(sigmoid(z + c)) = class_balance: bisection
    on [-40, 40] (monotone in c) until the bracket's midpoint is one of its ends."""
    lo, hi = -40.0, 40.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.mean(1.0 / (1.0 + np.exp(-(z + mid)))) < class_balance:
            lo = mid
        else:
            hi = mid
    return 1.0 / (1.0 + np.exp(-(z + mid)))


def train_test_split(dataset: Dataset, fraction: float, seed: int = 0) -> SplitPair:
    """Uniform shuffled split: floor(fraction * n) rows train, the rest test."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if dataset.n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = int(math.floor(fraction * dataset.n))
    if n_train < 1 or n_train >= dataset.n:
        raise ValueError(
            f"fraction {fraction} leaves an empty side for n={dataset.n}"
        )
    order = philox(seed).permutation(dataset.n)
    return SplitPair(
        train=dataset.take(order[:n_train]),
        test=dataset.take(order[n_train:]),
    )
