"""Toy linear forecasters covering the three loss families and their scale behavior.

One weight matrix maps a context window to the horizon, shared across channels,
so channel count is free and every gradient is analytic.  Three heads:

* point (MSE or MAE): horizon values directly;
* Gaussian NLL: a mean head plus a log-std head (std stays positive by
  construction), with the loss computed on the de-normalized distribution;
* token cross-entropy: the context is quantized into uniform bins and a linear
  head over bin-center features emits per-step logits, so the loss never sees
  raw magnitudes.

Training is plain SGD with a fixed learning rate and seeded shuffling, in one
step loop for every loss family: a step only updates the weights, the loss
and gradient-norm reductions run once per block of steps (a divergence is
raised at the end of its block, with the same step and loss), and the
Gaussian heads are stacked into one array.  Every reduction runs in a fixed
order, so identical seeds give bitwise-identical weights, losses and
gradient norms.
Those per-sample arrays come from the pool of ``prepare_training_pool``,
the ``InstanceBatch`` of the admitted draws: it makes every clip decision up
front, and ``train`` has ``build_rows`` build only the rows of the draws the
seeded permutations visit, stacking their windows a block at a time and
computing statistics and input norms in a few array operations, with the bits
each instance alone would give.  A row, (inputs, target, scale, shift, input
norms), is the one form of a training sample.

The token head is defined by two ``np.einsum`` contractions and computed
without them where that gives the same bits:

* forward, ``einsum("hbl,lc->hcb", W, x)``: for a C-contiguous (L, C) context
  with C >= 2 it sums over ``l`` strictly in order, starting from 0.0.
  ``_token_logits`` computes the same sums and returns them as (C, H, B);
  the memory order of a forecast's logits is set by ``Forecast``.  At C = 1
  einsum takes a vectorized dot with another summation order, so a
  one-channel context keeps einsum;
* loss: on einsum's layout, ``_token_ce``'s max and exp-sum over bins add
  the bins one after another, in numpy inner loops of only C elements.  The
  training kernel lays its logits out (B, H, C), bins outermost, where the
  same reductions run over the leading axis in the same order, in inner
  loops over all H*C cells; its channel gradient norms keep the sequential
  (h, b), h-major order too (see ``_token_ce_c2``);
* backward, ``einsum("hcb,lc->hbl", g, x)``: at C = 2 it computes
  ``g0*x0 + g1*x1`` rounded in that order (at C = 3 it sums the lanes as
  ``(p0+p2)+p1``).  Only a training pool whose every sample has exactly two
  channels runs the array kernel, on (L, H, B) weights whose (H, B, L) view
  is the trained model's ``token_weights``, so ``forecast`` copies none; any
  other pool runs the einsum step and ``_token_ce`` unchanged, on C-contiguous
  weights (a one-channel sum over (h, b) is pairwise, not sequential).
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    Forecast,
    ForecastKind,
    KindMismatchError,
    Method,
    NonFiniteError,
    NormStats,
    ShapeMismatchError,
    TsnormError,
    atomic_open,
    raw_stats,
)
from .data import InstanceBatch
from .norm import (
    CLIP_THRESHOLD,
    StatsOverflowError,
    fit_inference_stats,
    instance_max_abs,
    normalize,
)

HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))


class LossKind(enum.Enum):
    MSE = "point_mse"
    MAE = "point_mae"
    GAUSSIAN_NLL = "gaussian_nll"
    TOKEN_CE = "token_ce"

    @property
    def is_point(self) -> bool:
        return self in (LossKind.MSE, LossKind.MAE)


class Scheme(enum.Enum):
    """A normalization scheme a model can be pretrained and evaluated under."""

    REVIN = "revin"
    MEANABS = "meanabs"
    HYBRID = "hybrid"
    STANDARDIZATION = "standardization"
    MINMAX = "minmax"
    MAXABS = "maxabs"
    RAW = "raw"

    @property
    def dataset_method(self) -> Optional[Method]:
        """Dataset-step method, fitted on each dataset's train rows, if the scheme has one."""
        return _SCHEME_METHODS[self][0]

    @property
    def instance_method(self) -> Optional[Method]:
        """Train-time instance statistic family, if the scheme has one."""
        return _SCHEME_METHODS[self][1]

    @property
    def inference_method(self) -> Method:
        """Statistic family fitted on the input context at evaluation time.

        Dataset statistics are unavailable at inference, so dataset-level
        schemes fall back to the same family computed on the context; the
        hybrid scheme keeps only its instance component.
        """
        return self.instance_method or self.dataset_method or Method.RAW

    @property
    def clips(self) -> bool:
        """Whether point models train in normalized space and discard instances
        beyond ``CLIP_THRESHOLD``: an instance step and no dataset step."""
        return self.instance_method is not None and self.dataset_method is None


# Each scheme's placement, (dataset method, instance method): statistics fitted
# on each dataset's train rows, then per window on the context.
_SCHEME_METHODS = {
    Scheme.REVIN: (None, Method.REVIN),
    Scheme.MEANABS: (None, Method.MEANABS),
    Scheme.HYBRID: (Method.STANDARDIZATION, Method.REVIN),
    Scheme.STANDARDIZATION: (Method.STANDARDIZATION, None),
    Scheme.MINMAX: (Method.MINMAX, None),
    Scheme.MAXABS: (Method.MAXABS, None),
    Scheme.RAW: (None, None),
}


class NonPositiveSigmaError(TsnormError):
    """Predicted standard deviations must be strictly positive."""


class BadBinIndexError(TsnormError):
    """A token index lies outside [0, num_bins)."""


class DivergedError(TsnormError):
    """Training loss became NaN/Inf.

    ``step`` is the index of the offending SGD step and ``loss`` the
    non-finite loss it produced.
    """

    def __init__(self, step: int, loss: float):
        super().__init__(f"training diverged at step {step} (loss={loss})")
        self.step = step
        self.loss = loss


@dataclass(frozen=True)
class TokenizerSpec:
    """Uniform quantization grid over a fixed normalized-value range.

    Values outside [lo, hi] clamp to the edge bins; de-tokenization returns
    bin midpoints.
    """

    num_bins: int = 128
    lo: float = -10.0
    hi: float = 10.0

    def __post_init__(self):
        if self.num_bins < 1:
            raise TsnormError(f"num_bins must be positive, got {self.num_bins}")
        if not self.lo < self.hi:
            raise TsnormError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.num_bins

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.num_bins) + 0.5) * self.bin_width

    @classmethod
    def from_dict(cls, d: dict) -> "TokenizerSpec":
        return cls(num_bins=d["num_bins"], lo=d["lo"], hi=d["hi"])


def tokenize(x: np.ndarray, spec: TokenizerSpec) -> np.ndarray:
    """Map values to bin indices; out-of-range values clamp to the edge bins."""
    x = np.asarray(x, dtype=np.float64)
    bins = np.floor((x - spec.lo) / spec.bin_width).astype(np.int64)
    return np.clip(bins, 0, spec.num_bins - 1)


def detokenize(bins: np.ndarray, spec: TokenizerSpec) -> np.ndarray:
    """Map bin indices back to bin midpoints."""
    bins = np.asarray(bins)
    if bins.size and (bins.min() < 0 or bins.max() >= spec.num_bins):
        raise BadBinIndexError(f"bin indices must lie in [0, {spec.num_bins})")
    return spec.centers[bins]


@dataclass
class LinearForecaster:
    """Linear context-to-horizon map, shared across channels.

    ``weights`` is (H, L) and ``bias`` is (H,); the Gaussian head adds a
    second (H, L)/(H,) pair producing log-std, and the token head uses
    (H, B, L)/(H, B) to emit logits over B bins; after two-channel training
    ``token_weights`` is the (H, B, L) view of an (L, H, B) array.
    """

    loss_kind: LossKind
    context_len: int
    horizon: int
    weights: np.ndarray
    bias: np.ndarray
    sigma_weights: Optional[np.ndarray] = None
    sigma_bias: Optional[np.ndarray] = None
    token_weights: Optional[np.ndarray] = None
    token_bias: Optional[np.ndarray] = None
    tokenizer: Optional[TokenizerSpec] = None

    @classmethod
    def create(
        cls,
        loss_kind: LossKind,
        context_len: int,
        horizon: int,
        seed: int = 0,
        init_scale: float = 0.01,
        tokenizer: Optional[TokenizerSpec] = None,
    ) -> "LinearForecaster":
        rng = np.random.default_rng(seed)
        model = cls(
            loss_kind=loss_kind,
            context_len=context_len,
            horizon=horizon,
            weights=rng.normal(0.0, init_scale, (horizon, context_len)),
            bias=np.zeros(horizon),
        )
        if loss_kind is LossKind.GAUSSIAN_NLL:
            # log-std head starts at zero so the initial predicted std is 1
            model.sigma_weights = np.zeros((horizon, context_len))
            model.sigma_bias = np.zeros(horizon)
        if loss_kind is LossKind.TOKEN_CE:
            model.tokenizer = tokenizer or TokenizerSpec()
            model.token_weights = rng.normal(
                0.0, init_scale, (horizon, model.tokenizer.num_bins, context_len)
            )
            model.token_bias = np.zeros((horizon, model.tokenizer.num_bins))
        return model


class CheckpointError(TsnormError):
    """A checkpoint header or its data file is missing, unknown or does not match."""


# The form of the checkpoint that ``write_checkpoint_data`` writes and
# ``read_checkpoint`` reads; a header without a "format" field is the older
# nested-list JSON form, which is no longer read.
CHECKPOINT_FORMAT = 1


def _checkpoint_arrays(kind: LossKind, L=None, H=None, B=None) -> dict:
    """The ``LinearForecaster`` arrays a checkpoint of ``kind`` holds, in file
    order, and their shapes at context length L, horizon H and B token bins."""
    arrays = {"weights": [H, L], "bias": [H]}
    if kind is LossKind.GAUSSIAN_NLL:
        arrays.update(sigma_weights=[H, L], sigma_bias=[H])
    if kind is LossKind.TOKEN_CE:
        arrays.update(token_weights=[H, B, L], token_bias=[H, B])
    return arrays


def write_checkpoint_data(header_path, model: LinearForecaster) -> dict:
    """Write ``model``'s arrays beside ``header_path`` and return the header.

    The data file is ``header_path`` with the suffix ``.f64``: each array's
    little-endian float64 bytes in C order, one array after another, in the
    order the header lists them.  It is written atomically (see
    ``atomic_open``); the caller writes the returned header to
    ``header_path`` as JSON afterwards, so a header never names data that is
    not there.  The bytes depend on the arrays alone, so identical weights
    give identical files.
    """
    data_path = Path(header_path).with_suffix(".f64")
    digest = hashlib.sha256()
    arrays = []
    with atomic_open(data_path, "wb") as fh:
        for name in _checkpoint_arrays(model.loss_kind):
            a = np.ascontiguousarray(getattr(model, name), dtype="<f8")
            digest.update(a)
            fh.write(a)
            arrays.append({"name": name, "shape": list(a.shape)})
    header = {
        "format": CHECKPOINT_FORMAT,
        "loss_kind": model.loss_kind.value,
        "context_len": model.context_len,
        "horizon": model.horizon,
        "arrays": arrays,
        "data": {"file": data_path.name, "sha256": digest.hexdigest()},
    }
    if model.tokenizer is not None:
        header["tokenizer"] = asdict(model.tokenizer)
    return header


def read_checkpoint(path) -> LinearForecaster:
    """Load the model of the checkpoint header at ``path`` and its data file.

    The arrays are writable and bitwise equal to the ones written.  Raises
    CheckpointError naming the file when the header is not a JSON object, a
    field is missing or invalid (the format must be known, the data file a
    plain file name), an array's shape does not fit the header's dimensions
    (naming the array), or the data file is missing or its size or sha256
    differs from what the header records.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            header = json.load(fh)
    except ValueError as exc:
        raise CheckpointError(f"{path}: header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    fmt = header.get("format")
    if fmt is None:
        raise CheckpointError(f"{path}: no checkpoint format field; nested-list JSON "
                              "checkpoints are no longer read, rerun the variant to rewrite it")
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unknown checkpoint format {fmt!r} "
                              f"(this version reads {CHECKPOINT_FORMAT})")
    try:
        kind = LossKind(header["loss_kind"])
        tokenizer = (TokenizerSpec.from_dict(header["tokenizer"])
                     if kind is LossKind.TOKEN_CE else None)
        L, H = header["context_len"], header["horizon"]
        want = _checkpoint_arrays(kind, L, H, tokenizer and tokenizer.num_bins)
        names = [a["name"] for a in header["arrays"]]
        if names != list(want):
            raise CheckpointError(f"{path}: arrays {names} do not fit a {kind.value} model")
        for a in header["arrays"]:
            if a["shape"] != want[a["name"]]:
                raise CheckpointError(f"{path}: array {a['name']} has shape {a['shape']}, "
                                      f"the header's dimensions give {want[a['name']]}")
        data_file, data_sha256 = header["data"]["file"], header["data"]["sha256"]
        if data_file in (".", ".."):
            raise ValueError(f"Invalid name {data_file!r}")
        data_path = path.with_name(data_file)
    except KeyError as exc:
        raise CheckpointError(f"{path}: no {exc.args[0]!r} field in the header") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header field: {exc}") from None
    try:
        with open(data_path, "rb") as fh:
            data = bytearray(fh.read())
    except FileNotFoundError:
        raise CheckpointError(f"{path}: data file {data_path} is missing") from None
    sizes = [math.prod(a["shape"]) for a in header["arrays"]]
    if len(data) != 8 * sum(sizes):
        raise CheckpointError(
            f"{path}: data file {data_path} holds {len(data)} bytes, "
            f"the header describes {8 * sum(sizes)}"
        )
    if hashlib.sha256(data).hexdigest() != data_sha256:
        raise CheckpointError(f"{path}: data file {data_path} does not match its sha256")
    flat = np.frombuffer(data, dtype="<f8")
    arrays, offset = {}, 0
    for a, n in zip(header["arrays"], sizes):
        arrays[a["name"]] = flat[offset:offset + n].reshape(a["shape"])
        offset += n
    return LinearForecaster(kind, L, H, tokenizer=tokenizer, **arrays)


def _check_context(model: LinearForecaster, context: np.ndarray) -> np.ndarray:
    context = np.asarray(context, dtype=np.float64)
    if context.ndim != 2 or context.shape[0] != model.context_len:
        raise ShapeMismatchError(
            f"context must be ({model.context_len}, C), got {context.shape}"
        )
    return context


def forecast(model: LinearForecaster, context_norm: np.ndarray) -> Forecast:
    """Run the model on an already-normalized context window (L, C)."""
    ctx = _check_context(model, context_norm)
    if model.loss_kind.is_point:
        return Forecast(
            kind=ForecastKind.POINT,
            point=model.weights @ ctx + model.bias[:, None],
        )
    if model.loss_kind is LossKind.GAUSSIAN_NLL:
        mean = model.weights @ ctx + model.bias[:, None]
        log_std = model.sigma_weights @ ctx + model.sigma_bias[:, None]
        return Forecast(
            kind=ForecastKind.GAUSSIAN,
            gauss_mean=mean,
            gauss_std=np.exp(log_std),
        )
    # token head: quantize the context, feed bin-center features
    feats = detokenize(tokenize(ctx, model.tokenizer), model.tokenizer)
    if feats.shape[1] < 2:
        logits = np.einsum("hbl,lc->hcb", np.ascontiguousarray(model.token_weights), feats)
        logits += model.token_bias[:, None, :]
    else:
        wt = np.ascontiguousarray(model.token_weights.transpose(2, 0, 1))
        stack = np.empty((_TOKEN_CHUNK + 1, feats.shape[1], *wt.shape[1:]))
        logits = _token_logits(wt, feats, stack).transpose(1, 0, 2) + model.token_bias[:, None, :]
        del stack  # freed before Forecast copies the logits: a lower peak RSS
    return Forecast(
        kind=ForecastKind.TOKEN,
        token_logits=logits,
        token_spec=model.tokenizer,
    )


def token_point_forecast(f: Forecast) -> np.ndarray:
    """Collapse token logits to point values: argmax bin, then its midpoint."""
    if f.kind is not ForecastKind.TOKEN:
        raise KindMismatchError(f"expected a token forecast, got {f.kind}")
    return detokenize(np.argmax(f.token_logits, axis=-1), f.token_spec)


# ----------------------------------------------------------------------------
# losses: each returns (scalar loss, gradient w.r.t. its direct inputs)
# ----------------------------------------------------------------------------


def _check_pair(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    return pred, target


def _token_ce(logits: np.ndarray, target_bins: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    h_idx, c_idx = np.indices(target_bins.shape)
    loss = float(-log_probs[h_idx, c_idx, target_bins].mean())
    grad = np.exp(log_probs)
    grad[h_idx, c_idx, target_bins] -= 1.0
    return loss, grad / target_bins.size


# The cells a loss averages: of a point loss's difference, or of the Gaussian
# NLL's de-normalized std and squared z-score.
_LOSS_CELLS = {LossKind.MSE: np.square, LossKind.MAE: np.abs,
               LossKind.GAUSSIAN_NLL: lambda raw_std, zz: HALF_LOG_2PI + np.log(raw_std) + 0.5 * zz}


def loss_mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all cells; gradient 2 (pred - target) / N."""
    pred, target = _check_pair(pred, target)
    diff = pred - target
    return float(np.add.reduce(diff * diff, axis=None)) / diff.size, 2.0 * diff / diff.size


def loss_mae(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all cells; subgradient sign(pred - target) / N."""
    pred, target = _check_pair(pred, target)
    diff = pred - target
    return float(np.add.reduce(np.abs(diff), axis=None)) / diff.size, np.sign(diff) / diff.size


def loss_gaussian_nll(
    f: Forecast, target_raw: np.ndarray, stats: NormStats
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean Gaussian NLL of the raw target under the de-normalized distribution.

    ``f`` holds (mean, std) in normalized space; the distribution is mapped
    through ``stats`` before scoring, which shifts the loss by the mean log
    scale but leaves the gradients w.r.t. (mean, log std) untouched.
    Returns (loss, (d_mean, d_log_std)).
    """
    if f.kind is not ForecastKind.GAUSSIAN:
        raise KindMismatchError(f"expected a gaussian forecast, got {f.kind}")
    target_raw = np.asarray(target_raw, dtype=np.float64)
    if target_raw.shape != f.gauss_mean.shape:
        raise ShapeMismatchError(
            f"target {target_raw.shape} vs mean {f.gauss_mean.shape}"
        )
    if f.gauss_mean.ndim != 2 or stats.shift.ndim != 1 or f.gauss_mean.shape[1] != stats.channels:
        raise ShapeMismatchError(
            f"mean {f.gauss_mean.shape} does not match the statistics {stats.shift.shape}"
        )
    # scale is positive, so this also rejects a non-positive normalized std
    if (f.gauss_std * stats.scale <= 0).any():
        raise NonPositiveSigmaError("predicted std must be positive")
    raw_std = f.gauss_std * stats.scale
    z = (target_raw - (f.gauss_mean * stats.scale + stats.shift)) / raw_std
    zz = z * z
    nll_cells = _LOSS_CELLS[LossKind.GAUSSIAN_NLL](raw_std, zz)
    n = nll_cells.size
    return float(np.add.reduce(nll_cells, axis=None)) / n, (-z / f.gauss_std / n, (1.0 - zz) / n)


def loss_token_ce(
    logits: np.ndarray, target_bins: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean categorical cross-entropy over (H, C) cells with softmax over bins.

    Gradient w.r.t. logits is (softmax - onehot) / (H*C).
    """
    logits = np.asarray(logits, dtype=np.float64)
    target_bins = np.asarray(target_bins)
    if logits.ndim != 3 or target_bins.shape != logits.shape[:2]:
        raise ShapeMismatchError(
            f"logits (H, C, B) and target_bins (H, C) required, "
            f"got {logits.shape} and {target_bins.shape}"
        )
    num_bins = logits.shape[2]
    if target_bins.size and (target_bins.min() < 0 or target_bins.max() >= num_bins):
        raise BadBinIndexError(f"target bins must lie in [0, {num_bins})")
    return _token_ce(logits, target_bins)


# ----------------------------------------------------------------------------
# training
# ----------------------------------------------------------------------------


@dataclass
class TrainTrace:
    """Per-step training record plus pool statistics.

    ``grad_norms[t][c]`` is the norm of step t's context-weight gradient
    contribution from channel c (the product of the per-channel output
    gradient norm and input norm for the linear map).
    """

    losses: np.ndarray
    grad_norms: list
    rejected: int
    pool_size: int
    seed: int
    lr: float

    @property
    def rejection_rate(self) -> float:
        total = self.rejected + self.pool_size
        return self.rejected / total if total else 0.0

    def to_csv(self, path) -> None:
        """Write one row per step: ``step,loss,grad_norm_c0,...``, floats as
        ``repr``, rows with fewer channels padded with empty cells, CRLF line
        ends (the bytes ``csv.writer`` gives).  The file at ``path`` is
        replaced only once complete (see ``atomic_open``)."""
        max_c = max((len(g) for g in self.grad_norms), default=0)
        lines = [",".join(["step", "loss"] + [f"grad_norm_c{c}" for c in range(max_c)])]
        for step, (loss, norms) in enumerate(zip(self.losses.tolist(), self.grad_norms)):
            cells = [str(step), repr(loss), *map(repr, norms.tolist())]
            lines.append(",".join(cells) + "," * (max_c - len(norms)))
        with atomic_open(path, newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")


def prepare_training_pool(
    batch: InstanceBatch,
    scheme: Scheme,
    model: LinearForecaster,
) -> tuple[InstanceBatch, int]:
    """Apply a scheme's train-time normalization placement to a batch's raw instances.

    Returns (pool, number of clip-rejected instances): the pool is the
    ``InstanceBatch`` of the admitted draws, in the batch's order, and
    ``build_rows`` gives their rows.  Point models under a scheme that
    ``clips`` normalize context and horizon with the context's statistics,
    keep the loss in normalized space and discard instances beyond
    ``CLIP_THRESHOLD``; under hybrid they de-normalize the prediction with
    the instance statistics before the loss.  The Gaussian head always
    de-normalizes its distribution; token models quantize after the instance
    step.  A scheme's dataset step comes with the instances: each part of the
    batch carries its dataset's statistics and normalizes the windows the
    pool stacks, so dataset-level schemes add no instance step here.

    The pool is lazy: only the clip decisions are made here, for every
    instance, a block of ``batch.blocks`` at a time, and when nothing clips
    the pool is ``batch`` itself.  Each block's statistics and clip
    decisions take a few array operations.  Raises TypeError for anything
    but an ``InstanceBatch``, and StatsOverflowError naming the dataset and
    method when the instance statistics of its windows overflow float64.
    """
    if not isinstance(batch, InstanceBatch):
        raise TypeError(f"training input must be an InstanceBatch, got {type(batch).__name__}")
    if (batch.context_len, batch.horizon_len) != (model.context_len, model.horizon):
        raise ShapeMismatchError(
            f"instance ({batch.context_len}, {batch.horizon_len}) does not match "
            f"model ({model.context_len}, {model.horizon})"
        )
    if not (model.loss_kind.is_point and scheme.clips):
        return batch, 0
    admitted = np.empty(len(batch), dtype=bool)
    for d, at, (contexts, horizons) in batch.blocks(np.arange(len(batch))):
        stats = _window_stats(contexts, scheme.instance_method, d.name)
        admitted[at] = ~(instance_max_abs(normalize(contexts, stats), normalize(horizons, stats))
                         > CLIP_THRESHOLD)
    return batch.select(admitted), len(batch) - int(np.count_nonzero(admitted))


def build_rows(pool: InstanceBatch, ids, scheme: Scheme, model: LinearForecaster) -> list:
    """The rows of draws ``ids`` of a training pool under ``scheme``, in that
    order, built a block of ``pool.blocks`` at a time.  A row is the one form
    of a training sample, as the SGD kernels take it: (inputs, target, scale,
    shift, input norms), scale and shift None when the loss runs on the target.
    Every row is bitwise equal to what the same steps give on its instance
    alone, whichever draws share its block; its arrays are rows of its block's."""
    rows = [None] * len(ids)
    for d, at, windows in pool.blocks(ids):
        for i, row in zip(at.tolist(), _pool_rows(*windows, scheme, model, d.name)):
            rows[i] = row
    return rows


def _window_stats(contexts: np.ndarray, method: Method, name: str) -> NormStats:
    """Per-window statistics of a block of dataset ``name``'s training windows."""
    try:
        return fit_inference_stats(contexts, method)
    except NonFiniteError:  # the windows are finite, so a statistic overflowed
        raise StatsOverflowError(name, method, "training windows") from None


def _pool_rows(contexts: np.ndarray, horizons: np.ndarray, scheme: Scheme,
               model: LinearForecaster, name: str) -> list:
    """Pool rows of a block of dataset ``name``'s admitted instances' stacked windows."""
    kind, method = model.loss_kind, scheme.instance_method
    if method is not None:
        stats = _window_stats(contexts, method, name)
        contexts = normalize(contexts, stats)
    none = repeat(None)
    if kind is LossKind.TOKEN_CE:
        spec = model.tokenizer
        if method is not None:
            horizons = normalize(horizons, stats)
        inputs = detokenize(tokenize(contexts, spec), spec)
        return list(zip(inputs, tokenize(horizons, spec), none, none,
                        _channel_norms(inputs, axis=-2)))
    norms = _channel_norms(contexts, axis=-2)
    if method is None:
        scale = shift = none
        if kind is LossKind.GAUSSIAN_NLL:
            identity = raw_stats(contexts.shape[-1])
            scale, shift = repeat(identity.scale), repeat(identity.shift)
        return list(zip(contexts, horizons, scale, shift, norms))
    if kind.is_point and scheme.clips:
        return list(zip(contexts, normalize(horizons, stats), none, none, norms))
    # hybrid point models and the Gaussian head de-normalize with the instance stats
    return list(zip(contexts, horizons, stats.scale, stats.shift, norms))


def _channel_norms(x: np.ndarray, axis=0) -> np.ndarray:
    """Euclidean norm of each channel of ``x``, reducing ``axis`` in a fixed order."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


# Steps per block: a block's losses, gradient norms and finiteness check run after
# its last step.  At 64 the slots of an eight-channel Gaussian head take 0.3 MB.
STEP_BLOCK = 64


class _LinearKernel:
    """Block-deferred SGD for the point and Gaussian heads.  ``step(k, *row)``
    updates the weights on one pool row and leaves in slot k its loss cells
    (see ``_LOSS_CELLS``) and output gradient.  The arithmetic is the
    ``loss_*`` functions', with two exact rewrites: 2*d/n as d/(n/2) and
    -z/std/n as (z/std)/(-n).  The Gaussian heads become the halves of one
    (2H, L) array, one product each way."""

    def __init__(self, model: LinearForecaster, lr: float, channels: set):
        self.lr, self.kind, self.h = lr, model.loss_kind, model.horizon
        self.w, self.b = model.weights, model.bias
        if self.kind is LossKind.GAUSSIAN_NLL:
            self.w = np.concatenate([model.weights, model.sigma_weights])
            self.b = np.concatenate([model.bias, model.sigma_bias])
            model.weights, model.sigma_weights = self.w[:self.h], self.w[self.h:]
            model.bias, model.sigma_bias = self.b[:self.h], self.b[self.h:]
        self.b_col, rows, h = self.b[:, None], len(self.w), self.h
        self.w_grad, self.b_grad = np.empty_like(self.w), np.empty_like(self.b)
        # slot k of a buffer is the first rows*C cells of its row k, as a (rows, C) array
        self.cells = np.empty((rows // h, STEP_BLOCK, h * max(channels)))
        self.grads = np.empty((STEP_BLOCK, rows * max(channels)))
        self.slots = {c: [[cells[k, :h * c].reshape(h, c) for cells in self.cells]
                          + [self.grads[k, :rows * c].reshape(rows, c)]
                          for k in range(STEP_BLOCK)] for c in channels}

    def step(self, k, ctx, target, scale, shift, in_norms):
        *cells, g = self.slots[ctx.shape[1]][k]
        # the gradient's slot holds the forward pass until it holds the gradient
        np.matmul(self.w, ctx, out=g)
        g += self.b_col
        if self.kind is LossKind.GAUSSIAN_NLL:
            # the mean rows become z, then d_mean; the std rows become d_log_std
            z, std = g[:len(g) // 2], g[len(g) // 2:]
            np.exp(std, out=std)
            raw_std = np.multiply(std, scale, out=cells[0])
            z *= scale
            z += shift
            np.subtract(target, z, out=z)
            z /= raw_std
            zz = np.multiply(z, z, out=cells[1])
            z /= std
            z /= -zz.size
            np.subtract(1.0, zz, out=std)
            std /= zz.size
        else:
            if scale is not None:
                # prediction de-normalized with instance stats before the loss
                g *= scale
                g += shift
            d = np.subtract(g, target, out=cells[0])
            if self.kind is LossKind.MSE:
                np.divide(d, d.size / 2, out=g)
            else:
                np.sign(d, out=g)
                g /= d.size
            if scale is not None:
                g *= scale
        np.matmul(g, ctx.T, out=self.w_grad)
        self.w_grad *= self.lr
        self.w -= self.w_grad
        np.add.reduce(g, axis=1, out=self.b_grad)
        self.b_grad *= self.lr
        self.b -= self.b_grad

    def finish(self, block: list, losses: np.ndarray, norms: np.ndarray):
        """Reduce the slots of the steps on pool rows ``block`` into ``losses`` and ``norms``."""
        h, counts = self.h, np.array([len(row[-1]) for row in block])
        for c in set(counts.tolist()):
            at = np.flatnonzero(counts == c)
            cells = _LOSS_CELLS[self.kind](*self.cells[:, at, :h * c])
            losses[at] = np.add.reduce(cells, axis=1) / (h * c)
            g = self.grads[at, :len(self.w) * c].reshape(len(at), -1, h, c)
            in_norms = np.array([block[i][-1] for i in at.tolist()])
            p = _channel_norms(g, axis=2) * in_norms[:, None]
            norms[at, :c] = np.sqrt(np.add.reduce(p * p, axis=1))


def _token_step(token_weights, token_bias, lr, losses, norms, slot,
                ctx, target, scale, shift, in_norms):
    logits = np.einsum("hbl,lc->hcb", token_weights, ctx)
    logits += token_bias[:, None, :]
    losses[slot], g = _token_ce(logits, target)
    p = _channel_norms(g, axis=(0, 2)) * in_norms
    token_weights -= lr * np.einsum("hcb,lc->hbl", g, ctx)
    token_bias -= lr * g.sum(axis=1)
    norms[slot, :len(in_norms)] = np.sqrt(p * p)


# l-rows per chunk of the token kernels: large enough to amortize the per-call
# cost of a ufunc, small enough that a chunk's (K, C, H, B) products stay in
# cache at the default 24 x 128 head.
_TOKEN_CHUNK = 16


def _token_logits(wt, x, stack):
    """Token logits (C, H, B) of (L, H, B) weights ``wt`` on features ``x`` (L, C).

    Bitwise equal to ``einsum("hbl,lc->hcb")`` on the (H, B, L) weights for
    C >= 2, transposed: each chunk's products land in ``stack[1:]``, a
    (K + 1, C, H, B) buffer, and one reduction over the leading axis adds
    them, in order, onto the running sum in ``stack[0]``, which starts at 0.0
    as einsum's does.  Returns ``stack[0]``.
    """
    stack[0] = 0.0
    for l0 in range(0, len(wt), _TOKEN_CHUNK):
        k = min(_TOKEN_CHUNK, len(wt) - l0)
        np.multiply(wt[l0:l0 + k, None], x[l0:l0 + k, :, None, None], out=stack[1:k + 1])
        np.add.reduce(stack[:k + 1], axis=0, out=stack[0])
    return stack[0]


def _token_ce_c2(logits, target, cells, grad) -> tuple[float, np.ndarray]:
    """``_token_ce`` and the channel norms of its gradient on two-channel logits
    laid out bins outermost, with the bits that ``_token_ce`` and
    ``_channel_norms(g, axis=(0, 2))`` give on einsum's (H, B, C) layout.

    ``logits`` is a (B, H, C) array and becomes the log-probabilities: the max
    and the exp-sum reduce its leading axis, adding the bins one after another
    as numpy does on einsum's layout, in long inner loops over the (h, c)
    cells.  The gradient lands in ``grad``, a (C, H, B) buffer.  Each
    channel's squared-gradient sum runs over (h, b), h-major and in order, as
    the last column of a cumulative sum.  ``cells`` are the (H, C) index
    grids.  Returns (loss, gradient norm of each channel).
    """
    logits -= np.maximum.reduce(logits, axis=0)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=0))
    h_idx, c_idx = cells
    loss = float(-logits[target, h_idx, c_idx].mean())
    np.exp(logits.transpose(2, 1, 0), out=grad)
    grad[c_idx, h_idx, target] -= 1.0
    grad /= target.size
    return loss, np.sqrt(np.cumsum((grad * grad).reshape(2, -1), axis=1)[:, -1])


def _token_step_c2(wt, token_bias, lr, stack, logits, grad, cells, prod0, prod1,
                   losses, norms, slot, ctx, target, scale, shift, in_norms):
    """``_token_step`` for a two-channel sample on (L, H, B) working weights,
    with its loss on (B, H, C) ``logits`` (see ``_token_ce_c2``)."""
    np.add(_token_logits(wt, ctx, stack).T, token_bias.T[:, :, None], out=logits)
    losses[slot], p = _token_ce_c2(logits, target, cells, grad)
    p *= in_norms
    g0, g1 = grad
    for l0 in range(0, len(wt), _TOKEN_CHUNK):
        k = min(_TOKEN_CHUNK, len(wt) - l0)
        # lr * (g0*x0 + g1*x1), rounded in einsum's order
        a, b = prod0[:k], prod1[:k]
        np.multiply(ctx[l0:l0 + k, 0, None, None], g0, out=a)
        np.multiply(ctx[l0:l0 + k, 1, None, None], g1, out=b)
        a += b
        a *= lr
        wt[l0:l0 + k] -= a
    token_bias -= (g0 + g1) * lr
    norms[slot, :2] = np.sqrt(p * p)


class _TokenKernel:
    """Token SGD.  A step leaves its loss and gradient norms in slot k: a
    (H, C, B) gradient is too large to keep per slot.  A pool of two-channel
    samples only gets the array kernel, with its logits bins-outer, on (L, H, B)
    weights whose (H, B, L) view becomes the model's ``token_weights``."""

    def __init__(self, model: LinearForecaster, lr: float, channels: set):
        self.losses, self.norms = np.empty(STEP_BLOCK), np.zeros((STEP_BLOCK, max(channels)))
        if channels != {2}:
            model.token_weights = np.ascontiguousarray(model.token_weights)
            self.step = partial(_token_step, model.token_weights, model.token_bias, lr,
                                self.losses, self.norms)
        else:
            wt = np.ascontiguousarray(model.token_weights.transpose(2, 0, 1))
            model.token_weights = wt.transpose(1, 2, 0)
            _, horizon, bins = wt.shape
            stack = np.empty((_TOKEN_CHUNK + 1, 2, horizon, bins))
            # the update reuses the forward's product rows, free once it has summed
            products = stack[1:].reshape(2, _TOKEN_CHUNK, horizon, bins)
            self.step = partial(_token_step_c2, wt, model.token_bias, lr, stack,
                                np.empty((bins, horizon, 2)), np.empty((2, horizon, bins)),
                                np.indices((horizon, 2)), *products, self.losses, self.norms)

    def finish(self, block: list, losses: np.ndarray, norms: np.ndarray):
        losses[:], norms[:] = self.losses[:len(block)], self.norms[:len(block)]


def train(
    model: LinearForecaster,
    batch: InstanceBatch,
    scheme: Scheme,
    steps: int,
    lr: float,
    seed: int,
) -> tuple[LinearForecaster, TrainTrace]:
    """SGD-train a copy of ``model`` on the scheme-normalized pool of ``batch``.

    Deterministic given ``seed``: the pool order is a seeded permutation,
    redrawn each epoch, and all reductions are fixed-order.  Every epoch's
    permutation is drawn before the first step, and ``build_rows`` builds
    only the pool draws the steps visit.  Steps run in blocks of
    ``STEP_BLOCK``; raises DivergedError, with the index and loss of the
    first step whose loss leaves the finite range, at the end of that step's
    block.  The input model is not mutated.
    """
    model = copy.deepcopy(model)
    pool, rejected = prepare_training_pool(batch, scheme, model)
    if not pool:
        raise TsnormError("no admissible training instances after clipping")
    n, channels = len(pool), {d.channels for d, ids in pool.groups() if len(ids)}
    rng = np.random.default_rng(seed)
    # the permutations stepping through the pool epoch by epoch would draw
    epochs = max(1, -(-steps // n))
    order = np.concatenate([rng.permutation(n) for _ in range(epochs)])[:steps]
    drawn, slots = np.unique(order, return_inverse=True)
    rows = build_rows(pool, drawn, scheme, model)
    losses, norms = np.empty(steps), np.zeros((steps, max(channels)))
    kernel = (_TokenKernel if model.loss_kind is LossKind.TOKEN_CE else _LinearKernel)(
        model, lr, channels)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, steps, STEP_BLOCK):
            block = [rows[j] for j in slots[lo:lo + STEP_BLOCK].tolist()]
            for k, row in enumerate(block):
                kernel.step(k, *row)
            hi = lo + len(block)
            kernel.finish(block, losses[lo:hi], norms[lo:hi])
            bad = np.flatnonzero(~np.isfinite(losses[lo:hi]))
            if len(bad):
                raise DivergedError(lo + int(bad[0]), float(losses[lo + bad[0]]))
    trace = TrainTrace(
        losses=losses,
        grad_norms=[g[:len(rows[j][-1])] for g, j in zip(norms, slots.tolist())],
        rejected=rejected,
        pool_size=n,
        seed=seed,
        lr=lr,
    )
    return model, trace
