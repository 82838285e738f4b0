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

The token head is one array kernel for every channel count C, on the model's
C-order (L, H, B) ``token_weights`` (a checkpoint's data file holds them in
(H, B, L) order, see ``write_checkpoint_data``):

* forward: each logit sums its products over ``l`` in order, starting from 0.0
  (``_token_logits``);
* loss: the logits are laid out (B, H, C), bins outermost, so the softmax's
  max and exp-sum add the bins one after another, and each channel's
  gradient norm sums over (h, b) in order, h-major (``_token_ce_norms``);
* backward: ``lr * (g0*x0 + g1*x1 + ... + g_{C-1}*x_{C-1})``, the lanes added
  in order, and the bias moves by ``np.add.reduce(grad, axis=0) * lr``.

At C = 2 these are the bits of the einsum contractions "hbl,lc->hcb" and
"hcb,lc->hbl" on C-order (H, B, L) weights, with ``_token_ce`` between them.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
import math
import numbers
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
    normalize,
    window_rows,
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


def _is_a(value, kind) -> bool:
    """``isinstance(value, kind)``, except that a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
        if not _is_a(self.num_bins, numbers.Integral) or self.num_bins < 1:
            raise TsnormError(f"num_bins must be a positive integer, got {self.num_bins!r}")
        if not all(_is_a(v, numbers.Real) and math.isfinite(v) for v in (self.lo, self.hi)):
            raise TsnormError(f"lo and hi must be finite numbers, got {self.lo!r} and {self.hi!r}")
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
    second (H, L)/(H,) pair producing log-std, and the token head uses a
    C-order (L, H, B) ``token_weights`` and an (H, B) ``token_bias`` to emit
    logits over B bins.  Only the checkpoint files order the token weights
    (H, B, L).
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
        """A model of ``loss_kind`` with weights drawn from N(0, ``init_scale``)
        by a generator seeded with ``seed`` (``weights`` first, then a token
        head's ``token_weights``), zero biases and, for the Gaussian head,
        zero log-std weights.  The token weights are drawn one horizon row at
        a time straight into the C-order (L, H, B) ``token_weights``, so
        creating them holds one copy of them plus a row."""
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
            # row h of one (H, B, L) draw at a time: the same bits, no second copy
            bins = model.tokenizer.num_bins
            model.token_weights = np.empty((context_len, horizon, bins))
            for h in range(horizon):
                model.token_weights[:, h] = rng.normal(0.0, init_scale, (bins, context_len)).T
            model.token_bias = np.zeros((horizon, bins))
        return model


class CheckpointError(TsnormError):
    """A checkpoint header or its data file is missing, unknown or does not match."""


# The form of the checkpoint that ``write_checkpoint_data`` writes and
# ``read_checkpoint`` reads; a header without a "format" field is the older
# nested-list JSON form, which is no longer read.
CHECKPOINT_FORMAT = 1


def _checkpoint_arrays(kind: LossKind, L=None, H=None, B=None) -> dict:
    """The ``LinearForecaster`` arrays a checkpoint of ``kind`` holds, in file
    order, and their shapes in the file at context length L, horizon H and B
    token bins: the (L, H, B) ``token_weights`` are stored (H, B, L)."""
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
    give identical files.  The (L, H, B) ``token_weights`` go to the file in
    (H, B, L) order.  Each array is converted, hashed and written one
    leading-axis slice at a time, so writing copies no whole array, such as
    the C-order bytes of the token weights' (H, B, L) view.
    """
    data_path = Path(header_path).with_suffix(".f64")
    digest = hashlib.sha256()
    arrays = []
    with atomic_open(data_path, "wb") as fh:
        for name in _checkpoint_arrays(model.loss_kind):
            a = getattr(model, name)
            if name == "token_weights":
                a = a.transpose(1, 2, 0)
            for part in np.atleast_2d(a):
                part = np.ascontiguousarray(part, dtype="<f8")
                digest.update(part)
                fh.write(part)
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


def _field(obj, key: str, kind: type):
    """``obj[key]`` of a checkpoint header; a ValueError unless it is a ``kind``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{obj!r} is not an object with a {key!r} field")
    if not _is_a(obj[key], kind):
        raise ValueError(f"{key!r} is {obj[key]!r}, not of type {kind.__name__}")
    return obj[key]


def read_checkpoint(path) -> LinearForecaster:
    """Load the model of the checkpoint header at ``path`` and its data file.

    The arrays are writable and bitwise equal to the ones written; the file's
    (H, B, L) token weights become a fresh C-order (L, H, B) array.  Raises
    CheckpointError naming the file when the header is not a JSON object, a
    field is missing, of the wrong JSON type or invalid (the format must be
    known, the dimensions positive, the tokenizer a valid ``TokenizerSpec``,
    the data file a plain file name), an array's shape does not fit the
    header's dimensions (naming the array), or the data file is missing,
    cannot be read, or its size or sha256 differs from what the header records.
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
    if not _is_a(fmt, int) or fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unknown checkpoint format {fmt!r} "
                              f"(this version reads {CHECKPOINT_FORMAT})")
    try:
        kind = LossKind(header["loss_kind"])
        L, H = _field(header, "context_len", int), _field(header, "horizon", int)
        for key, n in (("context_len", L), ("horizon", H)):
            if n < 1:
                raise ValueError(f"{key!r} is {n}, not a positive integer")
        tokenizer = (TokenizerSpec.from_dict(_field(header, "tokenizer", dict))
                     if kind is LossKind.TOKEN_CE else None)
        arrays, data = _field(header, "arrays", list), _field(header, "data", dict)
        layout = [(_field(a, "name", str), a["shape"]) for a in arrays]
        data_file, data_sha256 = _field(data, "file", str), _field(data, "sha256", str)
        if data_file in (".", ".."):
            raise ValueError(f"Invalid name {data_file!r}")
        data_path = path.with_name(data_file)
    except KeyError as exc:
        raise CheckpointError(f"{path}: no {exc.args[0]!r} field in the header") from None
    except (ValueError, TsnormError) as exc:
        raise CheckpointError(f"{path}: bad header field: {exc}") from None
    want = _checkpoint_arrays(kind, L, H, tokenizer and tokenizer.num_bins)
    names = [name for name, _ in layout]
    if names != list(want):
        raise CheckpointError(f"{path}: arrays {names} do not fit a {kind.value} model")
    for name, shape in layout:
        if shape != want[name]:
            raise CheckpointError(f"{path}: array {name} has shape {shape}, "
                                  f"the header's dimensions give {want[name]}")
    try:
        with open(data_path, "rb") as fh:
            data = bytearray(fh.read())
    except FileNotFoundError:
        raise CheckpointError(f"{path}: data file {data_path} is missing") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise CheckpointError(f"{path}: data file {data_path} cannot be read: "
                              f"{exc.strerror}") from None
    sizes = [math.prod(shape) for shape in want.values()]
    if len(data) != 8 * sum(sizes):
        raise CheckpointError(
            f"{path}: data file {data_path} holds {len(data)} bytes, "
            f"the header describes {8 * sum(sizes)}"
        )
    if hashlib.sha256(data).hexdigest() != data_sha256:
        raise CheckpointError(f"{path}: data file {data_path} does not match its sha256")
    flat = np.frombuffer(data, dtype="<f8")
    arrays, offset = {}, 0
    for (name, shape), n in zip(want.items(), sizes):
        arrays[name] = flat[offset:offset + n].reshape(shape)
        offset += n
    if kind is LossKind.TOKEN_CE:
        arrays["token_weights"] = np.ascontiguousarray(arrays["token_weights"].transpose(2, 0, 1))
    return LinearForecaster(kind, L, H, tokenizer=tokenizer, **arrays)


def _check_context(model: LinearForecaster, context: np.ndarray) -> np.ndarray:
    context = np.asarray(context, dtype=np.float64)
    if context.ndim != 2 or context.shape[0] != model.context_len:
        raise ShapeMismatchError(
            f"context must be ({model.context_len}, C), got {context.shape}"
        )
    return context


def _frozen(a: np.ndarray) -> np.ndarray:
    """A fresh array made read-only, so that ``Forecast`` keeps it without a copy."""
    a.setflags(write=False)
    return a


def _affine(weights: np.ndarray, bias: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    """``weights @ ctx + bias[:, None]``, the bias added in place."""
    out = weights @ ctx
    out += bias[:, None]
    return out


def forecast(model: LinearForecaster, context_norm: np.ndarray) -> Forecast:
    """Run the model on an already-normalized context window (L, C)."""
    ctx = _check_context(model, context_norm)
    if model.loss_kind.is_point:
        return Forecast(
            kind=ForecastKind.POINT,
            point=_frozen(_affine(model.weights, model.bias, ctx)),
        )
    if model.loss_kind is LossKind.GAUSSIAN_NLL:
        std = _affine(model.sigma_weights, model.sigma_bias, ctx)
        return Forecast(
            kind=ForecastKind.GAUSSIAN,
            gauss_mean=_frozen(_affine(model.weights, model.bias, ctx)),
            gauss_std=_frozen(np.exp(std, out=std)),
        )
    # token head: quantize the context, feed bin-center features
    feats = detokenize(tokenize(ctx, model.tokenizer), model.tokenizer)
    wt = model.token_weights
    stack = _token_stack(feats.shape[1], *wt.shape[1:])
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
    the pool is ``batch`` itself.  Each block's rows are stacked once,
    outermost (``batch.rows``); its statistics are fitted on the context
    rows, and an instance's largest |x - shift| of each channel is divided
    by the channel's scale once.  Division by a positive scale is monotone,
    so this decides as normalizing every value first would, bit for bit.
    Raises TypeError for anything but an ``InstanceBatch``, and
    StatsOverflowError naming the dataset and method when the instance
    statistics of its windows overflow float64.
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
    for d, at, ids in batch.blocks(np.arange(len(batch))):
        rows = batch.rows(ids)
        stats = _window_stats(rows[:batch.context_len].transpose(1, 0, 2),
                              scheme.instance_method, d.name)
        rows -= stats.shift  # finite values and shifts: no NaN, at worst an infinity
        peak = np.abs(rows, out=rows).max(axis=0)
        peak /= stats.scale
        admitted[at] = ~(peak.max(axis=1) > CLIP_THRESHOLD)
    return batch.select(admitted), len(batch) - int(np.count_nonzero(admitted))


def build_rows(pool: InstanceBatch, ids, scheme: Scheme, model: LinearForecaster) -> list:
    """The rows of draws ``ids`` of a training pool under ``scheme``, in that
    order, built a block of ``pool.blocks`` at a time.  A row is the one form
    of a training sample, as the SGD kernels take it: (inputs, target, scale,
    shift, input norms), scale and shift None when the loss runs on the target.
    Every row is bitwise equal to what the same steps give on its instance
    alone, whichever draws share its block; its arrays are rows of its block's."""
    rows = [None] * len(ids)
    for d, at, drawn in pool.blocks(ids):
        for i, row in zip(at.tolist(), _pool_rows(*pool.windows(drawn), scheme, model, d.name)):
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
            # each (step, head)'s rows as one window of H rows and c channels
            g = window_rows(self.grads[at, :len(self.w) * c].reshape(-1, h, c))
            in_norms = np.array([block[i][-1] for i in at.tolist()])
            p = _channel_norms(g).reshape(len(at), -1, c) * in_norms[:, None]
            norms[at, :c] = np.sqrt(np.add.reduce(p * p, axis=1))


def _token_stack(channels: int, horizon: int, bins: int) -> np.ndarray:
    """A (K + 1, P, H, B) summation stack for ``_token_logits`` at C = ``channels``.
    A row has P = max(C, 2) planes (numpy's multiply of one-channel products
    in contiguous rows takes about twice as long), and K l-rows a chunk make
    about 32 product planes: enough to amortize a ufunc call, few enough to
    stay in cache at the default 24 x 128 head."""
    return np.empty((max(1, 32 // max(channels, 2)) + 1, max(channels, 2), horizon, bins))


def _token_logits(wt, x, stack):
    """Token logits (C, H, B) of (L, H, B) weights ``wt`` on features ``x`` (L, C),
    each the sum of its products over ``l`` in order from 0.0: a chunk's
    products land in the first C planes of ``stack[1:]`` (a ``_token_stack``),
    and one reduction over the leading axis adds them, in order, onto the
    running sum in ``stack[0]``, which is returned."""
    stack = stack[:, :x.shape[1]]
    stack[0] = 0.0
    for l0 in range(0, len(wt), len(stack) - 1):
        k = min(len(stack) - 1, len(wt) - l0)
        np.multiply(wt[l0:l0 + k, None], x[l0:l0 + k, :, None, None], out=stack[1:k + 1])
        np.add.reduce(stack[:k + 1], axis=0, out=stack[0])
    return stack[0]


def _token_ce_norms(logits, target, cells, grad) -> tuple[float, np.ndarray]:
    """``_token_ce`` on (B, H, C) ``logits``, bins outermost, and the gradient
    norm of each channel.  The logits become the log-probabilities: the max
    and the exp-sum add the bins one after another, in long inner loops over
    the (h, c) cells.  The gradient lands in the (C, H, B) ``grad``; each
    channel's squares sum over (h, b), h-major and in order, as the last
    column of a cumulative sum.  ``cells`` are the (H, C) index grids."""
    logits -= np.maximum.reduce(logits, axis=0)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=0))
    h_idx, c_idx = cells
    loss = float(-logits[target, h_idx, c_idx].mean())
    np.exp(logits.transpose(2, 1, 0), out=grad)
    grad[c_idx, h_idx, target] -= 1.0
    grad /= target.size
    return loss, np.sqrt(np.cumsum((grad * grad).reshape(len(grad), -1), axis=1)[:, -1])


def _token_step(wt, token_bias, lr, stack, logits, grad, cells, prod0, prod1,
                losses, norms, slot, ctx, target, scale, shift, in_norms):
    """One token SGD step on (L, H, B) working weights ``wt``, logits laid out
    (B, H, C); the loss and gradient norms land in slot ``slot``."""
    np.add(_token_logits(wt, ctx, stack).T, token_bias.T[:, :, None], out=logits)
    losses[slot], p = _token_ce_norms(logits, target, cells, grad)
    p *= in_norms
    chunk, (g0, *lanes) = len(stack) - 1, grad
    for l0 in range(0, len(wt), chunk):
        k = min(chunk, len(wt) - l0)
        # lr * (g0*x0 + g1*x1 + ...), the lanes added in order
        a, b = prod0[:k], prod1[:k]
        np.multiply(ctx[l0:l0 + k, 0, None, None], g0, out=a)
        for c, g in enumerate(lanes, 1):
            np.multiply(ctx[l0:l0 + k, c, None, None], g, out=b)
            a += b
        a *= lr
        wt[l0:l0 + k] -= a
    token_bias -= np.add.reduce(grad, axis=0) * lr
    norms[slot, :len(p)] = np.sqrt(p * p)


class _TokenKernel:
    """Token SGD on the model's (L, H, B) ``token_weights``, in place, one step
    with its own buffers per channel count of the pool.  A step leaves its loss and
    gradient norms in slot k of ``out``: a (C, H, B) gradient is too large to keep."""

    def __init__(self, model: LinearForecaster, lr: float, channels: set):
        self.out = np.empty(STEP_BLOCK), np.zeros((STEP_BLOCK, max(channels)))
        wt = model.token_weights
        _, horizon, bins = wt.shape
        self.steps = {}
        for c in channels:
            stack = _token_stack(c, horizon, bins)
            # the update reuses the forward's product rows, free once it has summed
            prod0, prod1 = stack[1:].reshape(-1, len(stack) - 1, horizon, bins)[:2]
            self.steps[c] = partial(_token_step, wt, model.token_bias, lr, stack,
                                    np.empty((bins, horizon, c)), np.empty((c, horizon, bins)),
                                    np.indices((horizon, c)), prod0, prod1, *self.out)

    def step(self, k, ctx, *row):
        self.steps[ctx.shape[1]](k, ctx, *row)

    def finish(self, block: list, losses: np.ndarray, norms: np.ndarray):
        losses[:], norms[:] = (a[:len(block)] for a in self.out)


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
