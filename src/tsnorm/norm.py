"""Normalization transforms: statistics fitted on a dataset's train rows or on
a context window, and the affine map they define.

Fitting and applying are separate pure operations so that inference-time
statistic substitution (fit on the context, apply anywhere) stays expressible.
Every fitted scale vector passes through the epsilon guard, keeping all
transforms invertible even on constant channels.

The scheme table of ``tsnorm.models`` says where each step runs, the clip
decision and the hybrid dataset-then-instance pipeline included.

Window statistics are block-wise: every reduction runs over axis -2, so the
same code fits one (L, C) window or an (N, L, C) block of windows, and
``normalize``/``denormalize`` apply (N, C) block statistics row by row.  Row n
of a block's statistics and normalized windows is bitwise equal to what
window n alone gives, because each channel's rows are still summed in the
same order.  A block is validated once, as one ``NormStats``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    SCALE_EPS,
    Dataset,
    Method,
    NormStats,
    Scope,
    ShapeMismatchError,
    TsnormError,
)

# Largest allowed |normalized value| before an instance is discarded from
# training; guards against near-constant contexts blowing up the horizon.
CLIP_THRESHOLD = 10.0

# Windows per block of block-wise statistics: large enough to amortize the
# per-call cost of numpy, small enough that one block's temporaries stay at a
# few MB (256 x 96 x 8 float64 windows are 1.5 MB).
WINDOW_BLOCK = 256

DATASET_METHODS = (Method.STANDARDIZATION, Method.MINMAX, Method.MAXABS)


class WrongMethodError(TsnormError):
    """A statistic family was used at a scope it does not support."""


class DegenerateChannelWarning(UserWarning):
    """A channel's pre-guard scale was zero and was replaced by epsilon."""


def _guard_scale(scale: np.ndarray, where: str) -> np.ndarray:
    degenerate = np.flatnonzero(scale < SCALE_EPS)
    if degenerate.size:
        warnings.warn(
            f"{where}: zero-scale channel(s) {degenerate.tolist()} replaced by eps",
            DegenerateChannelWarning,
            stacklevel=3,
        )
    return np.maximum(scale, SCALE_EPS)


def _channel_stats(x: np.ndarray, method: Method) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (shift, scale) of one statistic family over the rows of ``x``.

    Rows are axis -2: a (T, C) matrix gives (C,) vectors, an (N, L, C) block
    of windows gives (N, C) matrices.
    """
    if method is Method.STANDARDIZATION or method is Method.REVIN:
        return x.mean(axis=-2), x.std(axis=-2)  # population std
    if method is Method.MINMAX:
        lo = x.min(axis=-2)
        return lo, x.max(axis=-2) - lo
    width = x.shape[:-2] + x.shape[-1:]
    if method is Method.MAXABS:
        return np.zeros(width), np.abs(x).max(axis=-2)
    if method is Method.MEANABS:
        return np.zeros(width), np.abs(x).mean(axis=-2)
    if method is Method.RAW:
        return np.zeros(width), np.ones(width)
    raise WrongMethodError(f"unknown method {method}")


def fit_dataset_stats(d: Dataset, method: Method) -> NormStats:
    """Fit dataset-level statistics on the TRAIN rows of ``d``.

    Standardization: shift=mean, scale=population std per channel.
    MinMax: shift=min, scale=max-min.  MaxAbs: shift=0, scale=max|.|.
    Test rows never contribute.  Statistics that overflow raise
    NonFiniteError.  Finite ones keep every normalized train value finite:
    at most 1 in magnitude, or about the square root of the train row count
    for standardization, so no train row can overflow once the fit succeeds.
    """
    if method not in DATASET_METHODS:
        raise WrongMethodError(f"{method} is not a dataset-level method")
    shift, scale = _channel_stats(d.train_values, method)
    scale = _guard_scale(scale, f"fit_dataset_stats({d.name}, {method.value})")
    return NormStats(shift=shift, scale=scale, scope=Scope.DATASET, method=method)


def fit_inference_stats(context: np.ndarray, method: Method) -> NormStats:
    """Fit context-window statistics of any statistic family.

    RevIN: shift=mean, scale=population std.  MeanAbs: shift=0, scale=mean|.|.
    These are the instance step of training.  At inference, dataset-level
    statistics are unavailable and every method falls back to its family
    computed on the input context (test-time MinMax uses the context
    min/range, MaxAbs the context max|.|, and so on).  Raw yields identity
    statistics.  Constant windows degrade to scale=eps rather than failing.
    ``context`` is one (L, C) window, giving (C,) statistics, or an
    (N, L, C) block, giving (N, C) statistics.
    """
    context = np.asarray(context, dtype=np.float64)
    if context.ndim not in (2, 3) or context.shape[-2] < 1:
        raise ShapeMismatchError(
            "context must be a non-empty (L, C) window or (N, L, C) block"
        )
    shift, scale = _channel_stats(context, method)
    return NormStats(
        shift=shift, scale=np.maximum(scale, SCALE_EPS), scope=Scope.INSTANCE, method=method
    )


def _check_width(x: np.ndarray, stats: NormStats, op: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    block = stats.shift.shape[:-1]
    if x.ndim != len(block) + 2 or x.shape[:-2] != block:
        raise ShapeMismatchError(
            f"{op}: input must be 2-D (time, channel), or (N, time, channel) "
            f"for statistics of N windows; got {x.shape} for {stats.shift.shape}"
        )
    if x.shape[-1] != stats.channels:
        raise ShapeMismatchError(
            f"{op}: input has {x.shape[-1]} channels, stats have {stats.channels}"
        )
    return x


def normalize(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply (x - shift) / scale per channel (and per window, for block stats)."""
    x = _check_width(x, stats, "normalize")
    return (x - stats.shift[..., None, :]) / stats.scale[..., None, :]


def denormalize(x_norm: np.ndarray, stats: NormStats) -> np.ndarray:
    """Invert ``normalize``: x_norm * scale + shift per channel."""
    x_norm = _check_width(x_norm, stats, "denormalize")
    return x_norm * stats.scale[..., None, :] + stats.shift[..., None, :]


def instance_max_abs(ctx_norm: np.ndarray, hor_norm: np.ndarray) -> np.ndarray:
    """Largest |normalized value| of an instance over its context and horizon.

    For (N, L, C) and (N, H, C) blocks, one value per instance.  Rounds like
    Python's ``max(context_max, horizon_max)``, NaN included.
    """
    ctx_max = np.abs(ctx_norm).max(axis=(-2, -1))
    hor_max = np.abs(hor_norm).max(axis=(-2, -1))
    return np.where(hor_max > ctx_max, hor_max, ctx_max)

