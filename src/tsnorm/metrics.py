"""MASE scoring and percentage-improvement computation.

The naive denominator is computed on the input context window (the only data
available at inference) with the dataset's seasonal period as the default lag.
Everything here operates on RAW, de-normalized values.
"""

from __future__ import annotations

import numpy as np

from .core import ShapeMismatchError, TsnormError
from .norm import window_rows

# Floor for the naive MAE denominator; keeps MASE finite on degenerate contexts.
NAIVE_EPS = 1e-8


class WindowTooShortError(TsnormError):
    """The context window is not longer than the naive lag."""


class ZeroReferenceError(TsnormError):
    """The reference MASE of an improvement ratio is not positive."""


def naive_mae(context: np.ndarray, seasonal_period: int) -> np.ndarray:
    """Per-channel MAE of the seasonal-naive forecast over the context.

    For each channel: mean over t in [m, L) of |context[t] - context[t-m]|,
    floored at NAIVE_EPS.  Returns a length-C vector for one (L, C) window,
    or an (N, C) matrix for an (N, L, C) block, row n bitwise equal to
    window n's own vector; a block's rows are reduced as ``window_rows``
    lays them out.
    """
    context = np.asarray(context, dtype=np.float64)
    if context.ndim not in (2, 3):
        raise ShapeMismatchError(
            "context must be 2-D (time, channel) or an (N, time, channel) block"
        )
    m = int(seasonal_period)
    length = context.shape[-2]
    if m < 1 or length <= m:
        raise WindowTooShortError(
            f"context length {length} must exceed naive lag {m} >= 1"
        )
    rows = window_rows(context)
    diffs = rows[m:] - rows[:-m]
    return np.maximum(np.abs(diffs, out=diffs).mean(axis=0), NAIVE_EPS)


def mase(forecast: np.ndarray, actual: np.ndarray, naive: np.ndarray) -> float:
    """Mean absolute scaled error, averaged over channels.

    Per channel: mean |forecast - actual| divided by that channel's naive MAE;
    the returned scalar is the unweighted mean over channels.  All inputs are
    in raw (de-normalized) scale.
    """
    forecast = np.asarray(forecast, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    naive = np.asarray(naive, dtype=np.float64)
    if forecast.shape != actual.shape:
        raise ShapeMismatchError(
            f"forecast {forecast.shape} and actual {actual.shape} differ"
        )
    if forecast.ndim != 2 or naive.shape != (forecast.shape[1],):
        raise ShapeMismatchError(
            f"naive must be a length-{forecast.shape[1]} vector, got {naive.shape}"
        )
    # fmin skips NaN, so this decides as (naive <= 0).any() does
    if naive.size and np.fmin.reduce(naive) <= 0:
        raise ZeroReferenceError("naive MAE must be positive (apply the eps floor)")
    # np.add.reduce over the count: np.mean's float64 bits, without its dispatch
    error = np.subtract(forecast, actual)
    per_channel = np.add.reduce(np.abs(error, out=error), axis=0)
    per_channel /= forecast.shape[0]
    per_channel /= naive
    return float(np.add.reduce(per_channel)) / per_channel.shape[0]


def improvement(mase_r: float, mase_m: float) -> float:
    """Percentage drop in MASE of method m relative to reference r."""
    if not mase_r > 0:
        raise ZeroReferenceError(f"reference MASE must be positive, got {mase_r}")
    return (mase_r - mase_m) / mase_r * 100.0
