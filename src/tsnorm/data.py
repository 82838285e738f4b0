"""Dataset ingestion, synthetic multi-scale corpus generation, and instance sampling.

The synthetic generator stands in for a heterogeneous pretraining corpus: each
channel is a seasonal signal whose amplitude spans several decades across the
corpus, riding on a baseline level with a drift term, piecewise level shifts,
and Gaussian noise.  Generation is bit-for-bit reproducible from (spec, seed).

Sampling draws start rows only: ``sample_instances`` returns an
``InstanceBatch``, the drawn start rows over the dataset's rows, which stacks
the windows of many draws with one fancy index.  It is the one form of
training input, and the training pool is the batch of its admitted draws.  A
scheme's dataset step travels with the draws as that dataset's fitted
statistics and is applied to the rows a batch stacks, never to the whole
dataset.
"""

from __future__ import annotations

import csv
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Dataset, NormStats, ShapeMismatchError, TsnormError, atomic_open
from .norm import WINDOW_BLOCK


# Largest synthetic corpus, in float64 values (400 MB): a spec beyond it is
# refused before anything is allocated.
MAX_SYNTHETIC_VALUES = 50_000_000
# A level shift adds to up to a whole channel, so a spec's shifts add to at
# most level_shifts x n_datasets x channels x length values; they are bounded
# at twice the corpus bound, the default two shifts per channel at its largest.
MAX_SHIFTED_VALUES = 2 * MAX_SYNTHETIC_VALUES


class ParseError(TsnormError):
    """A CSV cell failed to parse; carries 1-based (row, col)."""

    def __init__(self, path, row: int, col: int, cell: str):
        super().__init__(f"{path}: cannot parse cell {cell!r} at row {row}, column {col}")
        self.row, self.col = row, col


class RaggedRowError(TsnormError):
    """A CSV row's cell count differs from the header's; carries its 1-based row."""

    def __init__(self, path, row: int, cells: int, header_cells: int):
        super().__init__(f"{path}: row {row} has {cells} cells, the header has {header_cells}")
        self.row = row


class TooShortError(TsnormError):
    """A parsed file has too few rows to form a dataset."""


class BadSpecError(TsnormError):
    """A synthetic-corpus spec field is invalid."""


class WindowTooLongError(TsnormError):
    """context + horizon does not fit inside the train rows."""


def load_csv(
    path,
    name: str,
    frequency: str,
    seasonal_period: int,
    split_fraction: float = 0.8,
    split_index: int | None = None,
) -> Dataset:
    """Load a dataset from CSV.

    The header row names the columns; a leading column named ``timestamp``
    is skipped and the remaining columns become channels.  ``split_index``
    overrides the fraction-based split when the exact train/test row counts
    are known; ``split_fraction`` must be a real number in (0, 1).
    """
    if (not isinstance(split_fraction, numbers.Real) or isinstance(split_fraction, bool)
            or not 0.0 < split_fraction < 1.0):
        raise TsnormError(
            f"split_fraction must be a real number in (0, 1), got {split_fraction!r}"
        )
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TooShortError(f"{path}: empty file") from None
        skip = 1 if header and header[0].strip().lower() == "timestamp" else 0
        rows = []
        for r, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise RaggedRowError(path, r, len(record), len(header))
            values = []
            for c, cell in enumerate(record[skip:], start=skip + 1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(path, r, c, cell) from None
            rows.append(values)
    if len(rows) < 2:
        raise TooShortError(f"{path}: need at least 2 data rows, got {len(rows)}")
    values = np.asarray(rows, dtype=np.float64)
    if split_index is None:
        split_index = int(np.floor(split_fraction * values.shape[0]))
    return Dataset(
        name=name,
        values=values,
        frequency=frequency,
        seasonal_period=seasonal_period,
        split_index=split_index,
    )


def export_csv(d: Dataset, path) -> None:
    """Write a dataset's values as CSV with generic channel headers.

    Floats are written with ``repr`` so a reload reproduces them exactly.
    The file at ``path`` is replaced only once complete (see ``atomic_open``).
    """
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{c}" for c in range(d.channels)])
        for row in d.values:
            writer.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic multi-scale corpus.

    ``scale_exponents`` supplies one decimal exponent per dataset (cycled if
    shorter than ``n_datasets``); every channel of dataset i has amplitude
    ~10^e_i, so the corpus spans the full exponent range.  ``level_shifts``
    is the number of piecewise level changes injected per channel.  The
    corpus holds n_datasets x channels x length float64 values, at most
    ``MAX_SYNTHETIC_VALUES``.  ``level_shifts`` is at most ``length``, and
    level_shifts x n_datasets x channels x length at most
    ``MAX_SHIFTED_VALUES`` (twice ``MAX_SYNTHETIC_VALUES``): each shift adds
    to up to a whole channel, so this bounds the time generation takes.
    """

    n_datasets: int = 4
    channels: int = 2
    length: int = 2400
    scale_exponents: tuple = (0.5, 0.0, -2.0, -3.0)
    level_shifts: int = 2
    seed: int = 0
    frequency: str = "1h"
    seasonal_period: int = 24
    noise: float = 0.05
    trend: float = 0.2
    split_fraction: float = 0.8
    name_prefix: str = "synth"

    def __post_init__(self):
        for name in ("n_datasets", "channels", "length", "level_shifts", "seed", "seasonal_period"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise BadSpecError(f"{name} must be an integer, got {value!r}")
        for name in ("noise", "trend", "split_fraction"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise BadSpecError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.frequency, str) or not isinstance(self.name_prefix, str):
            raise BadSpecError("frequency and name_prefix must be strings")
        if self.n_datasets < 1 or self.channels < 1:
            raise BadSpecError("n_datasets and channels must be positive")
        cells = self.n_datasets * self.channels * self.length
        if cells > MAX_SYNTHETIC_VALUES:
            raise BadSpecError(
                f"n_datasets x channels x length = {cells} float64 values exceeds "
                f"the bound of {MAX_SYNTHETIC_VALUES}"
            )
        if self.length < 4 * self.seasonal_period:
            raise BadSpecError("length must cover at least four seasonal periods")
        if not self.scale_exponents:
            raise BadSpecError("scale_exponents must be non-empty")
        for name in ("level_shifts", "noise", "seed"):
            if getattr(self, name) < 0:
                raise BadSpecError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.level_shifts > self.length or cells * self.level_shifts > MAX_SHIFTED_VALUES:
            raise BadSpecError(
                f"level_shifts must be at most length ({self.length}) and keep level_shifts "
                f"x n_datasets x channels x length at most {MAX_SHIFTED_VALUES}, "
                f"got {self.level_shifts}"
            )
        if not 0.0 < self.split_fraction < 1.0:
            raise BadSpecError("split_fraction must lie in (0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        if not isinstance(d, dict):
            raise BadSpecError(f"synthetic spec must be a JSON object, got {d!r}")
        known = dict(d)
        if "scale_exponents" in known:
            exponents = known["scale_exponents"]
            if not isinstance(exponents, list) or not all(
                    isinstance(e, numbers.Real) and not isinstance(e, bool) for e in exponents):
                raise BadSpecError(f"scale_exponents must be a list of numbers, got {exponents!r}")
            known["scale_exponents"] = tuple(exponents)
        try:
            return cls(**known)
        except TypeError as exc:
            raise BadSpecError(f"bad synthetic spec: {exc}") from None


def generate_synthetic(spec: SyntheticSpec) -> list[Dataset]:
    """Generate the synthetic corpus described by ``spec``, deterministically.

    Channel c of a dataset with amplitude a is
    ``base + a * sin(2π t / P + phase) + slope * t``, plus its level shifts
    in draw order and its noise.  Each channel is built in place in one row
    of a (channels, length) buffer, with those operations in that order;
    ``Dataset`` copies the buffer, so one serves every dataset.
    """
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    angle = 2.0 * np.pi * t / spec.seasonal_period
    buffer = np.empty((spec.channels, spec.length))
    datasets = []
    for i in range(spec.n_datasets):
        exponent = spec.scale_exponents[i % len(spec.scale_exponents)]
        amplitude = 10.0**exponent
        drift = spec.trend * amplitude / spec.length * t
        for y in buffer:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            base = rng.uniform(0.5, 1.5) * amplitude
            np.add(angle, phase, out=y)
            np.sin(y, out=y)
            y *= amplitude
            y += base
            y += drift
            for _ in range(spec.level_shifts):
                at = rng.integers(spec.seasonal_period, spec.length)
                y[at:] += rng.uniform(-0.5, 0.5) * amplitude
            y += rng.normal(0.0, spec.noise * amplitude, spec.length)
        datasets.append(
            Dataset(
                name=f"{spec.name_prefix}{i}",
                values=buffer.T,
                frequency=spec.frequency,
                seasonal_period=spec.seasonal_period,
                split_index=int(np.floor(spec.split_fraction * spec.length)),
            )
        )
    return datasets


class InstanceBatch:
    """Training instances held as the start rows drawn from their datasets.

    The i-th instance is the window whose context starts at row
    ``starts[i]`` of its dataset; ``len(batch)`` counts them.  A batch is
    made from (dataset, start rows) parts, in order; every window must lie
    inside its dataset's rows, so hand-made windows are the rows of a small
    ``Dataset`` that holds them.  A part may carry a third item, statistics
    fitted on its dataset (a scheme's dataset step): the batch then
    normalizes each block of rows it stacks with them, with the bits
    ``normalize`` gives on the whole matrix.  The training pool walks a
    batch through ``blocks``, many draws of one part at a time, stacks their
    windows with ``windows`` or ``rows``, and ``select`` keeps the draws it
    admits.
    """

    def __init__(self, parts, context_len: int, horizon: int):
        self.context_len, self.horizon_len = int(context_len), int(horizon)
        if self.context_len < 1 or self.horizon_len < 1:
            raise ShapeMismatchError("context and horizon need at least one row each")
        window = self.context_len + self.horizon_len
        self._spans, starts, end = [], [], 0
        for d, s, *rest in parts:
            s = np.asarray(s)
            if s.ndim != 1 or (s.size and s.dtype.kind not in "iu"):
                raise TsnormError(f"start rows of {d.name!r} must be a 1-D integer array")
            if s.size and (s.min() < 0 or s.max() + window > d.length):
                raise TsnormError(
                    f"a window of {window} rows starting in [{s.min()}, {s.max()}] "
                    f"leaves the {d.length} rows of dataset {d.name!r}"
                )
            stats = rest[0] if rest else None
            if stats is not None and stats.shift.shape != (d.channels,):
                raise ShapeMismatchError(
                    f"statistics of shape {stats.shift.shape} do not fit the "
                    f"{d.channels} channels of dataset {d.name!r}"
                )
            self._spans.append((d, end, end + len(s), stats))
            starts.append(s.astype(np.int64))
            end += len(s)
        self.starts = np.concatenate(starts) if starts else np.empty(0, dtype=np.int64)
        self.starts.setflags(write=False)
        self._ends = [hi for _, _, hi, _ in self._spans]

    @classmethod
    def concat(cls, batches) -> "InstanceBatch":
        """One batch holding the draws of ``batches``, in order."""
        batches = list(batches)
        shapes = {(b.context_len, b.horizon_len) for b in batches}
        if len(shapes) != 1:
            raise ShapeMismatchError(
                f"need batches of one (context, horizon) shape, got {sorted(shapes)}"
            )
        return cls([(d, b.starts[lo:hi], stats)
                    for b in batches for d, lo, hi, stats in b._spans], *shapes.pop())

    def __len__(self) -> int:
        return len(self.starts)

    def groups(self) -> list:
        """(dataset, instance ids) of each part, in order."""
        return [(d, np.arange(lo, hi)) for d, lo, hi, _ in self._spans]

    def select(self, keep) -> "InstanceBatch":
        """The draws where the boolean mask ``keep`` is true, in order; every
        part stays, with its dataset and statistics, even if it keeps no draw."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.starts.shape:
            raise ShapeMismatchError(f"a mask of shape {keep.shape} does not fit {len(self)} draws")
        parts = [(d, self.starts[lo:hi][keep[lo:hi]], st) for d, lo, hi, st in self._spans]
        return InstanceBatch(parts, self.context_len, self.horizon_len)

    def blocks(self, ids):
        """Yield (dataset, positions in ``ids``, draws) for the draws ``ids``,
        part by part in order, up to ``WINDOW_BLOCK`` draws at a time,
        positions ascending; the draws are ``ids`` at those positions."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self)):
            raise IndexError(f"draws {ids.min()}..{ids.max()} are not all in the batch")
        part_of = np.searchsorted(self._ends, ids, side="right")
        for p, (d, *_) in enumerate(self._spans):
            at = np.flatnonzero(part_of == p)
            for lo in range(0, len(at), WINDOW_BLOCK):
                block = at[lo:lo + WINDOW_BLOCK]
                yield d, block, ids[block]

    def windows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Stacked contexts (k, L, C) and horizons (k, H, C) of the draws
        ``ids``, which must all come from one part: one fancy index each
        into its dataset's rows, normalized in place with its statistics."""
        d, starts, stats = self._part(ids)
        rows = starts[:, None] + np.arange(self.context_len + self.horizon_len)
        contexts = d.values[rows[:, : self.context_len]]
        horizons = d.values[rows[:, self.context_len :]]
        if stats is not None:
            _normalize_rows(contexts, stats)
            _normalize_rows(horizons, stats)
        return contexts, horizons

    def rows(self, ids) -> np.ndarray:
        """The whole windows of the draws ``ids``, which must all come from one
        part, rows outermost: an (L + H, k, C) array whose row t holds each
        draw's context row t, or horizon row t - L, from one fancy index into
        its dataset's rows, normalized in place with its statistics."""
        d, starts, stats = self._part(ids)
        rows = d.values[starts + np.arange(self.context_len + self.horizon_len)[:, None]]
        return rows if stats is None else _normalize_rows(rows, stats)

    def _part(self, ids) -> tuple:
        """(dataset, start rows, statistics) of the draws ``ids`` of one part."""
        ids = np.asarray(ids)
        if ids.min() < 0:  # a negative id would index another part's start row
            raise IndexError(f"draw {ids.min()} is not in the batch")
        d, _, hi, stats = self._spans[bisect_right(self._ends, int(ids.min()))]
        if ids.max() >= hi:
            raise TsnormError("windows are stacked from one dataset's draws at a time")
        return d, self.starts[ids], stats


def _normalize_rows(rows: np.ndarray, stats: NormStats) -> np.ndarray:
    """Normalize a fresh array of dataset rows in place: the bits of
    ``normalize`` on the whole matrix, (x - shift) / scale, with no temporary."""
    rows -= stats.shift
    rows /= stats.scale
    return rows


def sample_instances(
    d: Dataset, context_len: int, horizon: int, count: int, seed: int,
    stats: NormStats | None = None,
) -> InstanceBatch:
    """Draw ``count`` training instances from uniformly random train-row offsets.

    Every window lies entirely inside the train rows: the horizon's last row
    is strictly before the dataset split.  Deterministic per seed; the draws
    do not depend on ``stats``.  The instances come as an ``InstanceBatch``
    over ``d``'s rows, normalized with ``stats`` (a dataset step fitted on
    ``d``) when given.
    """
    window = context_len + horizon
    if window > d.split_index:
        raise WindowTooLongError(
            f"context+horizon {window} exceeds train rows {d.split_index} "
            f"of dataset {d.name!r}"
        )
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, d.split_index - window + 1, size=count)
    return InstanceBatch([(d, starts, stats)], context_len, horizon)
