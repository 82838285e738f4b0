"""Dataset ingestion, synthetic multi-scale corpus generation, and instance sampling.

The synthetic generator stands in for a heterogeneous pretraining corpus: each
channel is a seasonal signal whose amplitude spans several decades across the
corpus, riding on a baseline level with a drift term, piecewise level shifts,
and Gaussian noise.  Generation is bit-for-bit reproducible from (spec, seed).

Sampling draws start rows only: ``sample_instances`` returns an
``InstanceBatch``, a read-only sequence of instances over the dataset's rows
that builds an ``Instance`` when one is indexed, and stacks the windows of
many draws with one fancy index for the training pool.  A scheme's dataset
step travels with the draws as that dataset's fitted statistics and is
applied to the rows a batch builds, never to the whole dataset.
"""

from __future__ import annotations

import csv
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Instance, NormStats, ShapeMismatchError, TsnormError, atomic_open


class ParseError(TsnormError):
    """A CSV cell failed to parse; carries 1-based (row, col)."""

    def __init__(self, path, row: int, col: int, cell: str):
        super().__init__(f"{path}: cannot parse cell {cell!r} at row {row}, column {col}")
        self.row, self.col = row, col


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
    are known.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TooShortError(f"{path}: empty file") from None
        skip = 1 if header and header[0].strip().lower() == "timestamp" else 0
        rows = []
        for r, record in enumerate(reader, start=2):
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
    is the number of piecewise level changes injected per channel.
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
        if self.n_datasets < 1 or self.channels < 1:
            raise BadSpecError("n_datasets and channels must be positive")
        if self.length < 4 * self.seasonal_period:
            raise BadSpecError("length must cover at least four seasonal periods")
        if not self.scale_exponents:
            raise BadSpecError("scale_exponents must be non-empty")
        if self.level_shifts < 0 or self.noise < 0:
            raise BadSpecError("level_shifts and noise must be non-negative")
        if not 0.0 < self.split_fraction < 1.0:
            raise BadSpecError("split_fraction must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "n_datasets": self.n_datasets,
            "channels": self.channels,
            "length": self.length,
            "scale_exponents": list(self.scale_exponents),
            "level_shifts": self.level_shifts,
            "seed": self.seed,
            "frequency": self.frequency,
            "seasonal_period": self.seasonal_period,
            "noise": self.noise,
            "trend": self.trend,
            "split_fraction": self.split_fraction,
            "name_prefix": self.name_prefix,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        known = {f: d[f] for f in d}
        if "scale_exponents" in known:
            known["scale_exponents"] = tuple(known["scale_exponents"])
        try:
            return cls(**known)
        except TypeError as exc:
            raise BadSpecError(f"bad synthetic spec: {exc}") from None


def generate_synthetic(spec: SyntheticSpec) -> list[Dataset]:
    """Generate the synthetic corpus described by ``spec``, deterministically."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    datasets = []
    for i in range(spec.n_datasets):
        exponent = spec.scale_exponents[i % len(spec.scale_exponents)]
        amplitude = 10.0**exponent
        channels = []
        for _ in range(spec.channels):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            base = rng.uniform(0.5, 1.5) * amplitude
            slope = spec.trend * amplitude / spec.length
            y = base + amplitude * np.sin(2.0 * np.pi * t / spec.seasonal_period + phase)
            y += slope * t
            for _ in range(spec.level_shifts):
                at = rng.integers(spec.seasonal_period, spec.length)
                y[at:] += rng.uniform(-0.5, 0.5) * amplitude
            y += rng.normal(0.0, spec.noise * amplitude, spec.length)
            channels.append(y)
        datasets.append(
            Dataset(
                name=f"{spec.name_prefix}{i}",
                values=np.column_stack(channels),
                frequency=spec.frequency,
                seasonal_period=spec.seasonal_period,
                split_index=int(np.floor(spec.split_fraction * spec.length)),
            )
        )
    return datasets


class InstanceBatch(Sequence):
    """Training instances held as the start rows drawn from their datasets.

    A read-only ``Sequence[Instance]``: item i is the instance whose context
    starts at row ``starts[i]`` of its dataset, built (copied and validated)
    only when it is indexed.  It is made from (dataset, start rows) pairs, in
    order; every window must lie inside its dataset's rows.  A part may carry
    a third item, statistics fitted on its dataset (a scheme's dataset step):
    the batch then normalizes each block of rows it builds with them, with
    the bits ``normalize`` gives on the whole matrix.  The training pool
    reads a batch through ``groups`` and ``windows``, which stack the
    windows of many draws without building any ``Instance``.
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

    def __getitem__(self, i) -> Instance:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"instance {i} out of range for a batch of {n}")
        i %= n
        d, _, _, stats = self._spans[bisect_right(self._ends, i)]
        s, end = int(self.starts[i]), int(self.starts[i]) + self.context_len
        rows = d.values[s : end + self.horizon_len]
        if stats is not None:
            rows = _normalize_rows(rows.copy(), stats)
        return Instance(context=rows[: self.context_len], horizon=rows[self.context_len :],
                        origin=(d.name, s))

    def groups(self) -> list:
        """(channel count, instance ids) of each dataset's draws."""
        return [(d.channels, np.arange(lo, hi)) for d, lo, hi, _ in self._spans]

    def windows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Stacked contexts (k, L, C) and horizons (k, H, C) of the draws
        ``ids``, which must all come from one dataset: one fancy index each
        into the dataset's rows, normalized in place with its statistics."""
        ids = np.asarray(ids)
        d, _, hi, stats = self._spans[bisect_right(self._ends, int(ids.min()))]
        if ids.max() >= hi:
            raise TsnormError("windows are stacked from one dataset's draws at a time")
        rows = self.starts[ids][:, None] + np.arange(self.context_len + self.horizon_len)
        contexts = d.values[rows[:, : self.context_len]]
        horizons = d.values[rows[:, self.context_len :]]
        if stats is not None:
            _normalize_rows(contexts, stats)
            _normalize_rows(horizons, stats)
        return contexts, horizons


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
