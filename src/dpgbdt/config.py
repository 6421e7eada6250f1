"""Training configuration: one frozen dataclass covering every component choice."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from enum import Enum

from .accounting import InvalidParameterError, PrivacyBudget
from .gradients import UpdateMode, batch_ranges
from .trees import SplitMethod

__all__ = [
    "CandidateMethod",
    "FeatureMode",
    "NoisePlacement",
    "TrainConfig",
    "FLAT_FIELDS",
    "field_types",
    "parse_value",
    "parse_fields",
]


class CandidateMethod(Enum):
    UNIFORM = "uniform"
    LOG = "log"
    QUANTILE = "quantile"
    ITERATIVE_HESSIAN = "ih"


class FeatureMode(Enum):
    CYCLICAL = "cyclical"
    RANDOM = "random"


class NoisePlacement(Enum):
    CENTRAL = "central"  # noise added once at the (simulated) secure aggregate
    LOCAL = "local"  # every client noises its own release


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the data itself.

    k is the feature-interaction width (None means all features); B is the
    batch size of the prediction update, with B = 1 giving plain boosting.
    An averaging (random-forest) run is one batch of all T trees, because its
    gradients never depend on predictions, so its B is set to T whatever B
    it was given. m (number of features) may stay None until data is
    attached.
    """

    T: int = 100
    d: int = 4
    Q: int = 32
    split_method: SplitMethod = SplitMethod.TOTALLY_RANDOM
    update_mode: UpdateMode = UpdateMode.NEWTON
    candidate_method: CandidateMethod = CandidateMethod.UNIFORM
    ih_rounds: int = 5
    feature_mode: FeatureMode = FeatureMode.CYCLICAL
    k: int | None = None
    B: int = 1
    eta: float = 0.3
    beta: float = 2.0
    lam: float = 1.0
    gamma: float = 0.0
    budget: PrivacyBudget | None = None
    seed: int = 0
    m: int | None = None
    noise_placement: NoisePlacement = NoisePlacement.CENTRAL
    name: str | None = None

    def __post_init__(self):
        if self.update_mode is UpdateMode.AVERAGING:
            object.__setattr__(self, "B", self.T)
        if self.T < 1 or self.d < 1:
            raise InvalidParameterError("need T >= 1 and d >= 1")
        if self.Q < 2:
            raise InvalidParameterError("need at least Q = 2 split candidates")
        if not (1 <= self.B <= self.T):
            raise InvalidParameterError(f"need 1 <= B <= T, got B={self.B}, T={self.T}")
        for name in ("eta", "beta", "lam", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta <= 0:
            raise InvalidParameterError("learning rate eta must be positive")
        if self.beta < 0 or self.lam < 0 or self.gamma < 0:
            raise InvalidParameterError("beta, lam, gamma must be non-negative")
        if self.ih_rounds < 1:
            raise InvalidParameterError("ih_rounds must be >= 1")
        if self.m is not None and self.m < 1:
            raise InvalidParameterError("m must be >= 1")
        if self.k is not None:
            if self.k < 1 or (self.m is not None and self.k > self.m):
                raise InvalidParameterError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if self.budget is not None and self.lam <= 0:
            raise InvalidParameterError("private training requires lam > 0 (noisy Hessians)")

    def resolved_k(self) -> int:
        if self.k is not None:
            return self.k
        if self.m is None:
            raise InvalidParameterError("k defaults to m, but m is not set")
        return self.m

    @property
    def batches(self) -> tuple[tuple[int, int], ...]:
        """(start, end) tree range of every batch: runs of B trees."""
        return batch_ranges(self.T, self.B)

    def replace(self, **kwargs) -> "TrainConfig":
        """A copy with ``kwargs`` changed. Under averaging B is derived
        (B = T), so it is not carried over: left out, B takes its default
        and ``__post_init__`` derives it again if the copy still averages."""
        if self.update_mode is UpdateMode.AVERAGING:
            kwargs.setdefault("B", TrainConfig.B)
        return dataclasses.replace(self, **kwargs)

    def to_flat_dict(self) -> dict:
        """Plain key/value form used by the CLI, config files, and sidecars:
        every field but ``budget`` (enums as their values), then the budget's
        ``epsilon`` and ``delta``."""
        out = {}
        for key, kind in FLAT_FIELDS.items():
            value = getattr(self, key)
            out[key] = value.value if issubclass(kind, Enum) else value
        out["epsilon"] = self.budget.epsilon if self.budget else None
        out["delta"] = self.budget.delta if self.budget else None
        return out


def field_types(cls) -> dict[str, type]:
    """Every field of dataclass ``cls`` in declaration order with its value
    type; ``int | None`` and the like give their non-None member."""
    hints = typing.get_type_hints(cls)
    out = {}
    for field in dataclasses.fields(cls):
        kinds = [t for t in typing.get_args(hints[field.name]) if t is not type(None)]
        out[field.name] = kinds[0] if kinds else hints[field.name]
    return out


# Every TrainConfig field but ``budget``, in declaration order, with its value
# type (None stripped from optional fields).
FLAT_FIELDS: dict[str, type] = {
    name: kind for name, kind in field_types(TrainConfig).items() if name != "budget"
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_value(kind: type, value):
    """``value`` as a ``kind``. Enums are built from their value; strings
    become booleans from 1/true/yes or 0/false/no (any case), and go through
    ``kind`` otherwise; other typed values pass through. Raises KeyError or
    ValueError for a value ``kind`` cannot take."""
    if issubclass(kind, Enum):
        return kind(value)
    if isinstance(value, str):
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    return value


def parse_fields(values: dict) -> dict:
    """TrainConfig keyword arguments from ``{field: value}``, skipping None.

    A value is a string from a flag or a ``key = value`` file, or already
    typed; each goes through ``parse_value`` with its field's type. An
    unknown key or a value its field cannot take raises
    InvalidParameterError.
    """
    out = {}
    for key, value in values.items():
        kind = FLAT_FIELDS.get(key)
        if kind is None:
            raise InvalidParameterError(f"unknown config field: {key!r}")
        if value is None:
            continue
        try:
            out[key] = parse_value(kind, value)
        except (KeyError, ValueError) as exc:
            raise InvalidParameterError(f"bad value for {key}: {value!r}") from exc
    return out
