import tracemalloc

import numpy as np
import pytest

from tsnorm import Dataset, InstanceBatch


def col(*values):
    """Single-channel (T, 1) matrix from scalars."""
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def central_difference(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        bump = np.zeros_like(x).reshape(-1)
        bump[i] = step
        bump = bump.reshape(x.shape)
        flat[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * step)
    return grad


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes tracemalloc saw allocated during the
    call above what was allocated as it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def window_batch(windows, context_len):
    """An ``InstanceBatch`` over hand-made windows, each an (L + H, C) array
    whose first ``context_len`` rows are its context.  The windows of each
    channel count are laid back to back as the rows of one small ``Dataset``,
    which is one part of the batch; parts come in the order of their first
    window, and each part keeps its windows' order."""
    by_channels = {}
    for w in windows:
        w = np.asarray(w, dtype=np.float64)
        by_channels.setdefault(w.shape[1], []).append(w)
    window = len(windows[0])
    parts = []
    for c, group in by_channels.items():
        rows = np.concatenate(group)
        d = Dataset(f"windows{c}", rows, "1h", seasonal_period=1, split_index=len(rows) - 1)
        parts.append((d, np.arange(len(group)) * window))
    return InstanceBatch(parts, context_len, window - context_len)


def batch_windows(batch, values=None):
    """The (context, horizon) of each instance of ``batch``, in the batch's
    order: slices of its datasets' rows, or of ``values[name]`` where given
    (a dataset's rows normalized as a whole)."""
    L, H = batch.context_len, batch.horizon_len
    out = []
    for d, ids in batch.groups():
        rows = (values or {}).get(d.name, d.values)
        for s in batch.starts[ids].tolist():
            out.append((rows[s : s + L], rows[s + L : s + L + H]))
    return out


@pytest.fixture
def tiny_dataset():
    rng = np.random.default_rng(0)
    t = np.arange(400, dtype=np.float64)
    values = np.column_stack([
        10.0 + 3.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.2, t.size),
        -5.0 + 0.5 * np.cos(2 * np.pi * t / 24) + rng.normal(0, 0.05, t.size),
    ])
    return Dataset(name="tiny", values=values, frequency="1h",
                   seasonal_period=24, split_index=320)
