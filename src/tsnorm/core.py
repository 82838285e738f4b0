"""Shared domain types: datasets, normalization statistics, instances, forecasts, reports.

All types are immutable after construction and validate their invariants in
``__post_init__``; nothing partially valid escapes this module.  Matrices are
row-major ``(time, channel)`` float64 arrays throughout.  ``atomic_open`` is
the one way an artifact file is written.
"""

from __future__ import annotations

import enum
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .models import TokenizerSpec

# Lower bound enforced on every fitted scale vector; keeps transforms invertible
# when a channel is constant (zero variance / zero range / zero magnitude).
SCALE_EPS = 1e-8


def _rebuild_error(cls, args: tuple, state: dict) -> "TsnormError":
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


@contextmanager
def atomic_open(path, mode="w", newline=None):
    """Open ``path`` for writing (text, or bytes with ``mode="wb"``) through a
    temporary file beside it.

    The file is ``<name>.tmp`` in the same directory; it replaces ``path``
    only once the block exits normally, and is deleted if the block raises,
    so a crash never leaves a half-written file at ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class TsnormError(Exception):
    """Base class for all library errors.

    Errors pickle by message and attributes rather than by constructor
    arguments, so subclasses with their own ``__init__`` still cross a process
    pool intact.
    """

    def __reduce__(self):
        return _rebuild_error, (type(self), self.args, self.__dict__)


class NonFiniteError(TsnormError):
    """A value matrix contains NaN or Inf; carries the offending (row, col)."""

    def __init__(self, name: str, row: int, col: int):
        super().__init__(f"dataset {name!r}: non-finite value at ({row}, {col})")
        self.row, self.col = row, col


class BadSplitError(TsnormError):
    def __init__(self, name: str, split_index: int, length: int):
        super().__init__(
            f"dataset {name!r}: split_index {split_index} outside (0, {length})"
        )


class BadPeriodError(TsnormError):
    def __init__(self, name: str, period: int, split_index: int):
        super().__init__(
            f"dataset {name!r}: seasonal_period {period} must satisfy "
            f"1 <= period < split_index ({split_index})"
        )


class ShapeMismatchError(TsnormError):
    """Operand shapes are incompatible."""


class KindMismatchError(TsnormError):
    """A forecast of the wrong kind was supplied."""


class Scope(enum.Enum):
    """Where normalization statistics were measured."""

    DATASET = "dataset"
    INSTANCE = "instance"


class Method(enum.Enum):
    """Statistic family of a normalization transform."""

    STANDARDIZATION = "standardization"
    MINMAX = "minmax"
    MAXABS = "maxabs"
    REVIN = "revin"
    MEANABS = "meanabs"
    RAW = "raw"


class Setting(enum.Enum):
    """Evaluation regime: zero-shot (withheld dataset) or in-domain."""

    ZS = "zs"
    ID = "id"


def _as_readonly(a, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """A named multivariate series with a fixed train/test split.

    ``values`` has shape (T, C): rows are time steps, columns are channels.
    Rows [0, split_index) are train rows, [split_index, T) are test rows.
    ``seasonal_period`` is the lag of the naive baseline used for MASE.
    """

    name: str
    values: np.ndarray
    frequency: str
    seasonal_period: int
    split_index: int

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        validate_dataset(self)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def train_values(self) -> np.ndarray:
        return self.values[: self.split_index]

    @property
    def test_values(self) -> np.ndarray:
        return self.values[self.split_index :]


def validate_dataset(d: Dataset) -> Dataset:
    """Check every Dataset invariant; return ``d`` unchanged if all hold.

    Raises NonFiniteError / BadSplitError / BadPeriodError naming the
    offending index.
    """
    v = d.values
    if v.ndim != 2:
        raise ShapeMismatchError(f"dataset {d.name!r}: values must be 2-D, got {v.ndim}-D")
    t, c = v.shape
    if t < 2 or c < 1:
        raise ShapeMismatchError(f"dataset {d.name!r}: need T >= 2 and C >= 1, got {t}x{c}")
    bad = np.argwhere(~np.isfinite(v))
    if bad.size:
        row, col = bad[0]
        raise NonFiniteError(d.name, int(row), int(col))
    if not 0 < d.split_index < t:
        raise BadSplitError(d.name, d.split_index, t)
    if not 1 <= d.seasonal_period < d.split_index:
        raise BadPeriodError(d.name, d.seasonal_period, d.split_index)
    return d


@dataclass(frozen=True)
class NormStats:
    """Channel-wise shift/scale vectors plus the scope and method that fitted them.

    ``shift`` and ``scale`` are (C,) vectors for one series or window, or
    (N, C) matrices holding the statistics of a block of N windows, row n
    for window n; either way they are validated once, on construction.
    """

    shift: np.ndarray
    scale: np.ndarray
    scope: Scope
    method: Method

    def __post_init__(self):
        object.__setattr__(self, "shift", _as_readonly(self.shift))
        object.__setattr__(self, "scale", _as_readonly(self.scale))
        if self.shift.ndim not in (1, 2) or self.shift.shape != self.scale.shape:
            raise ShapeMismatchError(
                "shift/scale must be equal-shape (C,) vectors or (N, C) matrices, "
                f"got {self.shift.shape} and {self.scale.shape}"
            )
        if not (np.isfinite(self.shift).all() and np.isfinite(self.scale).all()):
            raise NonFiniteError("normstats", -1, -1)
        if (self.scale < SCALE_EPS).any():
            at = tuple(int(i) for i in np.argwhere(self.scale < SCALE_EPS)[0])
            raise TsnormError(
                f"scale[{', '.join(map(str, at))}] = {self.scale[at]} "
                f"below epsilon guard {SCALE_EPS}"
            )
        if self.method is Method.RAW:
            if (self.shift != 0).any() or (self.scale != 1).any():
                raise TsnormError("raw stats must be shift=0, scale=1")

    @property
    def channels(self) -> int:
        return self.shift.shape[-1]


def raw_stats(channels: int) -> NormStats:
    """Identity statistics: shift 0, scale 1 (the no-normalization baseline)."""
    return NormStats(
        shift=np.zeros(channels),
        scale=np.ones(channels),
        scope=Scope.INSTANCE,
        method=Method.RAW,
    )


@dataclass(frozen=True)
class Instance:
    """A context window and its forecast horizon cut from one dataset.

    ``context`` is (L, C), ``horizon`` is (H, C); both share the channel axis.
    ``origin`` records (dataset name, start row of the context).
    """

    context: np.ndarray
    horizon: np.ndarray
    origin: tuple[str, int]

    def __post_init__(self):
        object.__setattr__(self, "context", _as_readonly(self.context))
        object.__setattr__(self, "horizon", _as_readonly(self.horizon))
        if self.context.ndim != 2 or self.horizon.ndim != 2:
            raise ShapeMismatchError("context and horizon must be 2-D (time, channel)")
        if self.context.shape[0] < 1 or self.horizon.shape[0] < 1:
            raise ShapeMismatchError("context and horizon need at least one row each")
        if self.context.shape[1] != self.horizon.shape[1]:
            raise ShapeMismatchError(
                f"channel mismatch: context C={self.context.shape[1]}, "
                f"horizon C={self.horizon.shape[1]}"
            )
        if self.origin[1] < 0:
            raise TsnormError(f"origin start {self.origin[1]} negative")

    @property
    def context_len(self) -> int:
        return self.context.shape[0]

    @property
    def horizon_len(self) -> int:
        return self.horizon.shape[0]

    @property
    def channels(self) -> int:
        return self.context.shape[1]


class ForecastKind(enum.Enum):
    POINT = "point"
    GAUSSIAN = "gaussian"
    TOKEN = "token"


@dataclass(frozen=True)
class Forecast:
    """Model output over a horizon: point values, Gaussian parameters, or token logits.

    Exactly one payload is present, selected by ``kind``.  Payloads are in
    the normalized space of the context the model was run on.
    """

    kind: ForecastKind
    point: Optional[np.ndarray] = None
    gauss_mean: Optional[np.ndarray] = None
    gauss_std: Optional[np.ndarray] = None
    token_logits: Optional[np.ndarray] = None
    token_spec: Optional["TokenizerSpec"] = None

    def __post_init__(self):
        for name in ("point", "gauss_mean", "gauss_std", "token_logits"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _as_readonly(val))
        has_point = self.point is not None
        has_gauss = self.gauss_mean is not None or self.gauss_std is not None
        has_token = self.token_logits is not None
        if [has_point, has_gauss, has_token].count(True) != 1:
            raise KindMismatchError("exactly one forecast payload must be present")
        if self.kind is ForecastKind.POINT and not has_point:
            raise KindMismatchError("kind=point requires the point payload")
        if self.kind is ForecastKind.GAUSSIAN:
            if self.gauss_mean is None or self.gauss_std is None:
                raise KindMismatchError("kind=gaussian requires gauss_mean and gauss_std")
            if self.gauss_mean.shape != self.gauss_std.shape:
                raise ShapeMismatchError("gauss_mean and gauss_std shapes differ")
            if (self.gauss_std <= 0).any():
                raise TsnormError("gauss_std must be positive elementwise")
        if self.kind is ForecastKind.TOKEN:
            if not has_token:
                raise KindMismatchError("kind=token requires token_logits")
            if self.token_logits.ndim != 3:
                raise ShapeMismatchError("token_logits must be (H, C, B)")


@dataclass(frozen=True)
class EvalEntry:
    """MASE for one (model, method, dataset, setting) cell of one variant run.

    ``withheld`` names the dataset excluded from that variant's pretraining,
    which identifies the leave-one-out run the entry came from.
    """

    model_id: str
    method: str
    dataset: str
    setting: Setting
    mase: float
    withheld: str

    def __post_init__(self):
        if not (np.isfinite(self.mase) and self.mase >= 0):
            raise TsnormError(f"mase must be finite and >= 0, got {self.mase}")


@dataclass(frozen=True)
class EvalReport:
    """Aggregated benchmark results.

    ``aggregates`` maps (model_id, method, setting) to (mean, std) over
    leave-one-dataset-out variants; ``improvements`` maps
    (setting, reference method, method) to the percentage MASE drop.
    """

    entries: tuple[EvalEntry, ...]
    aggregates: dict = field(default_factory=dict)
    improvements: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for (setting, ref, method), delta in self.improvements.items():
            if ref == method and abs(delta) > 1e-12:
                raise TsnormError(f"improvement delta({ref}->{method}) must be 0, got {delta}")
