"""Toy linear forecasters covering the three loss families and their scale behavior.

One weight matrix maps a context window to the horizon, shared across channels,
so channel count is free and every gradient is analytic.  Three heads:

* point (MSE or MAE): horizon values directly;
* Gaussian NLL: a mean head plus a log-std head (std stays positive by
  construction), with the loss computed on the de-normalized distribution;
* token cross-entropy: the context is quantized into uniform bins and a linear
  head over bin-center features emits per-step logits, so the loss never sees
  raw magnitudes.

Training is plain SGD with a fixed learning rate and seeded shuffling.  Each
step runs one array kernel for the model's loss family (point, Gaussian,
token) on arrays prepared once per pool sample; the kernels call the same
unchecked loss cores as the public, validating ``loss_*`` functions, so each
loss formula is written once.  Every reduction runs in a fixed order, so
identical seeds give bitwise-identical weights, losses and gradient norms.
Those per-sample arrays come from the lazy pool of ``prepare_training_pool``:
it makes every clip decision up front, and ``train`` has it build only the
samples the seeded permutations draw, stacking their windows a block at a
time and computing statistics and input norms in a few array operations,
with the bits each instance alone would give.

The token head is defined by two ``np.einsum`` contractions and computed
without them where that gives the same bits:

* forward, ``einsum("hbl,lc->hcb", W, x)``: for a C-contiguous (L, C) context
  with C >= 2 it sums over ``l`` strictly in order, starting from 0.0, and
  returns (H, C, B) logits stored in (H, B, C) memory order, i.e. strides
  (B*C*8, 8, C*8).  The softmax reductions of the loss round by that layout,
  so ``_token_logits`` writes into a buffer laid out the same way.  At C = 1
  einsum takes a vectorized dot with another summation order, so a
  one-channel context keeps einsum;
* backward, ``einsum("hcb,lc->hbl", g, x)``: at C = 2 it computes
  ``g0*x0 + g1*x1`` rounded in that order (at C = 3 it sums the lanes as
  ``(p0+p2)+p1``).  Only a training pool whose every sample has exactly two
  channels runs the array kernel, on an (L, H, B) working copy of the token
  weights that is written back when training ends; any other pool runs the
  einsum step unchanged.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
import math
import operator
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    Forecast,
    ForecastKind,
    Instance,
    KindMismatchError,
    Method,
    NormStats,
    Scope,
    ShapeMismatchError,
    TsnormError,
    atomic_open,
    raw_stats,
)
from .data import InstanceBatch
from .norm import (
    CLIP_THRESHOLD,
    WINDOW_BLOCK,
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

    def to_dict(self) -> dict:
        return {"num_bins": self.num_bins, "lo": self.lo, "hi": self.hi}

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
    (H, B, L)/(H, B) to emit logits over B bins.
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


def _checkpoint_array_names(kind: LossKind) -> tuple[str, ...]:
    """The ``LinearForecaster`` arrays a checkpoint of ``kind`` holds, in file order."""
    if kind is LossKind.GAUSSIAN_NLL:
        return ("weights", "bias", "sigma_weights", "sigma_bias")
    if kind is LossKind.TOKEN_CE:
        return ("weights", "bias", "token_weights", "token_bias")
    return ("weights", "bias")


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
        for name in _checkpoint_array_names(model.loss_kind):
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
        header["tokenizer"] = model.tokenizer.to_dict()
    return header


def read_checkpoint(path) -> LinearForecaster:
    """Load the model of the checkpoint header at ``path`` and its data file.

    The arrays are writable and bitwise equal to the ones written.  Raises
    CheckpointError naming the file when the header's format is missing or
    unknown, or when the data file is missing or its size or sha256 differs
    from what the header records.
    """
    path = Path(path)
    with open(path) as fh:
        header = json.load(fh)
    fmt = header.get("format")
    if fmt is None:
        raise CheckpointError(
            f"{path}: no checkpoint format field; nested-list JSON checkpoints "
            "are no longer read, rerun the variant to rewrite it"
        )
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unknown checkpoint format {fmt!r} (this version reads "
            f"{CHECKPOINT_FORMAT})"
        )
    kind = LossKind(header["loss_kind"])
    names = [a["name"] for a in header["arrays"]]
    if names != list(_checkpoint_array_names(kind)):
        raise CheckpointError(f"{path}: arrays {names} do not fit a {kind.value} model")
    data_path = path.with_name(header["data"]["file"])
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
    if hashlib.sha256(data).hexdigest() != header["data"]["sha256"]:
        raise CheckpointError(f"{path}: data file {data_path} does not match its sha256")
    flat = np.frombuffer(data, dtype="<f8")
    arrays, offset = {}, 0
    for a, n in zip(header["arrays"], sizes):
        arrays[a["name"]] = flat[offset:offset + n].reshape(a["shape"])
        offset += n
    tokenizer = header.get("tokenizer")
    return LinearForecaster(
        loss_kind=kind,
        context_len=header["context_len"],
        horizon=header["horizon"],
        tokenizer=TokenizerSpec.from_dict(tokenizer) if tokenizer is not None else None,
        **arrays,
    )


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
        logits = np.einsum("hbl,lc->hcb", model.token_weights, feats)
    else:
        wt = np.ascontiguousarray(model.token_weights.transpose(2, 0, 1))
        logits = _token_logits(wt, feats, *_token_buffers(wt, feats.shape[1]))
    logits += model.token_bias[:, None, :]
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


def _mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    return float(np.add.reduce(diff * diff, axis=None)) / diff.size, 2.0 * diff / diff.size


def _mae(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    return (float(np.add.reduce(np.abs(diff), axis=None)) / diff.size,
            np.sign(diff) / diff.size)


def _gaussian_nll(
    mean: np.ndarray,
    std: np.ndarray,
    target_raw: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    raw_std = std * scale
    # scale is positive, so this also rejects a non-positive normalized std
    if (raw_std <= 0).any():
        raise NonPositiveSigmaError("predicted std must be positive")
    z = (target_raw - (mean * scale + shift)) / raw_std
    zz = z * z
    nll_cells = HALF_LOG_2PI + np.log(raw_std) + 0.5 * zz
    n = nll_cells.size
    return float(np.add.reduce(nll_cells, axis=None)) / n, (-z / std / n, (1.0 - zz) / n)


def _token_ce(logits: np.ndarray, target_bins: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    h_idx, c_idx = np.indices(target_bins.shape)
    loss = float(-log_probs[h_idx, c_idx, target_bins].mean())
    grad = np.exp(log_probs)
    grad[h_idx, c_idx, target_bins] -= 1.0
    return loss, grad / target_bins.size


def loss_mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all cells; gradient 2 (pred - target) / N."""
    return _mse(*_check_pair(pred, target))


def loss_mae(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all cells; subgradient sign(pred - target) / N."""
    return _mae(*_check_pair(pred, target))


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
    return _gaussian_nll(f.gauss_mean, f.gauss_std, target_raw, stats.scale, stats.shift)


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


@dataclass(frozen=True)
class TrainSample:
    """One normalized training example ready for an SGD step.

    ``inputs`` is the (L, C) matrix fed to the linear map; ``target`` is the
    (H, C) value matrix, or int bin indices for token CE.  ``stats`` carries
    the de-normalization applied before the loss (hybrid point models and the
    Gaussian head); None means the loss runs directly on ``target``.
    """

    inputs: np.ndarray
    target: np.ndarray
    stats: Optional[NormStats] = None


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


class TrainingPool(Sequence):
    """The admitted samples of a training pool, in instance order, built on request.

    ``build(ids)`` computes the rows of samples ``ids`` as the SGD kernels
    take them: (inputs, target, scale, shift, input norms), scale and shift
    being None when the loss runs directly on the target.  It works a block
    of up to ``WINDOW_BLOCK`` stacked windows at a time, and every row is
    bitwise the same whichever samples share its block; ``rows`` builds every
    sample.  A sample's arrays are rows of its block's arrays, except that a
    pool made from a plain sequence of instances keeps the instances' own
    context and horizon arrays where the scheme leaves them un-normalized.
    Indexing the pool gives a ``TrainSample`` view of one sample, its
    statistics of family ``method``.  ``channels`` holds the channel counts
    of every admitted sample, built or not.  ``prepare_training_pool`` makes
    it from the instances' groups and the mask of admitted instances.
    """

    def __init__(self, source, scheme: Scheme, model: LinearForecaster,
                 groups: list, admitted: np.ndarray):
        self._source, self._scheme, self._model = source, scheme, model
        group_of = np.empty(len(admitted), dtype=np.intp)
        for g, (_, ids) in enumerate(groups):
            group_of[ids] = g
        self._ids = np.flatnonzero(admitted)
        self._group = group_of[self._ids]
        self.method = scheme.instance_method or Method.RAW
        self.channels = {groups[g][0] for g in set(self._group.tolist())}

    def __len__(self) -> int:
        return len(self._ids)

    def build(self, ids) -> list:
        """The rows of samples ``ids``, in that order."""
        ids = np.asarray(ids, dtype=np.intp)
        groups = self._group[ids]
        rows = [None] * len(ids)
        for g in set(groups.tolist()):
            at = np.flatnonzero(groups == g)
            for lo in range(0, len(at), WINDOW_BLOCK):
                part = at[lo:lo + WINDOW_BLOCK]
                sel = self._ids[ids[part]]
                windows = self._source.windows(sel)
                own = (self._source.arrays(sel) if isinstance(self._source, _InstanceList)
                       else windows)
                for i, row in zip(part.tolist(),
                                  _pool_rows(*windows, self._scheme, self._model, own)):
                    rows[i] = row
        return rows

    @property
    def rows(self) -> list:
        """The rows of every sample."""
        return self.build(np.arange(len(self)))

    def __getitem__(self, i) -> TrainSample:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"sample {i} out of range for a pool of {n}")
        return self._sample(self.build([i % n])[0])

    def __iter__(self):
        return map(self._sample, self.rows)

    def _sample(self, row: tuple) -> TrainSample:
        inputs, target, scale, shift, _ = row
        if scale is None:
            return TrainSample(inputs, target)
        stats = NormStats(shift=shift, scale=scale, scope=Scope.INSTANCE, method=self.method)
        return TrainSample(inputs, target, stats)


class _InstanceList:
    """A plain sequence of instances, read as the pool reads an ``InstanceBatch``:
    grouped by channel count, windows stacked from the instances' arrays.
    ``arrays`` gives those arrays themselves, which un-normalized rows keep
    rather than rows of a stacked copy."""

    def __init__(self, instances: Sequence[Instance]):
        self.instances = instances

    def groups(self) -> list:
        by_channels: dict = {}
        for i, inst in enumerate(self.instances):
            by_channels.setdefault(inst.channels, []).append(i)
        return [(c, np.array(ids)) for c, ids in by_channels.items()]

    def windows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        chunk = [self.instances[i] for i in ids.tolist()]
        return (np.stack([inst.context for inst in chunk]),
                np.stack([inst.horizon for inst in chunk]))

    def arrays(self, ids) -> tuple[list, list]:
        chunk = [self.instances[i] for i in ids.tolist()]
        return [inst.context for inst in chunk], [inst.horizon for inst in chunk]


def prepare_training_pool(
    instances: Sequence[Instance],
    scheme: Scheme,
    model: LinearForecaster,
) -> tuple[TrainingPool, int]:
    """Apply a scheme's train-time normalization placement to raw instances.

    Returns (admissible samples, number of clip-rejected instances).  Point
    models under a scheme that ``clips`` normalize context and horizon with
    the context's statistics, keep the loss in normalized space and discard
    instances beyond ``CLIP_THRESHOLD``; under hybrid they de-normalize the
    prediction with the instance statistics before the loss.  The Gaussian
    head always de-normalizes its distribution; token models quantize after
    the instance step.  A scheme's dataset step comes with the instances:
    each part of an ``InstanceBatch`` carries its dataset's statistics and
    normalizes the windows the pool stacks, so dataset-level schemes add no
    instance step here.

    The pool is lazy: only the clip decisions are made here, for every
    instance, and a sample's arrays are computed when ``TrainingPool.build``
    asks for them.  The work is block-wise: the windows of up to
    ``WINDOW_BLOCK`` instances of one group are stacked at a time, one fancy
    index per block for an ``InstanceBatch`` (whose groups are its
    datasets), and each block's statistics, clip decisions and input norms
    take a few array operations.  Any other sequence of instances is grouped
    by channel count.  Every sample is bitwise equal to what the same steps
    give on its instance alone, and the pool keeps the instances' order.
    """
    if isinstance(instances, InstanceBatch):
        source, shapes = instances, {(instances.context_len, instances.horizon_len)}
    else:
        source = _InstanceList(instances)
        shapes = {(inst.context_len, inst.horizon_len) for inst in instances}
    for context_len, horizon in shapes:
        if (context_len, horizon) != (model.context_len, model.horizon):
            raise ShapeMismatchError(
                f"instance ({context_len}, {horizon}) does not match "
                f"model ({model.context_len}, {model.horizon})"
            )
    groups = source.groups()
    admitted = np.ones(len(instances), dtype=bool)
    if model.loss_kind.is_point and scheme.clips:
        for _, ids in groups:
            for lo in range(0, len(ids), WINDOW_BLOCK):
                part = ids[lo:lo + WINDOW_BLOCK]
                admitted[part] = ~_clipped(*source.windows(part), scheme.instance_method)
    pool = TrainingPool(source, scheme, model, groups, admitted)
    return pool, len(instances) - len(pool)


def _clipped(contexts: np.ndarray, horizons: np.ndarray, method: Method) -> np.ndarray:
    """Whether each instance of a block exceeds ``CLIP_THRESHOLD`` once
    normalized with its context's statistics."""
    stats = fit_inference_stats(contexts, method)
    return instance_max_abs(normalize(contexts, stats), normalize(horizons, stats)) > CLIP_THRESHOLD


def _pool_rows(contexts: np.ndarray, horizons: np.ndarray, scheme: Scheme,
               model: LinearForecaster, own) -> list:
    """Pool rows of a block of admitted instances' stacked windows.

    ``own`` holds the instances' (contexts, horizons) as the rows keep them
    where they stay un-normalized: the stacked arrays themselves, or each
    instance's own arrays.
    """
    kind, method = model.loss_kind, scheme.instance_method
    if method is not None:
        stats = fit_inference_stats(contexts, method)
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
        return list(zip(*own, scale, shift, norms))
    if kind.is_point and scheme.clips:
        return list(zip(contexts, normalize(horizons, stats), none, none, norms))
    # hybrid point models and the Gaussian head de-normalize with the instance stats
    return list(zip(contexts, own[1], stats.scale, stats.shift, norms))


def _channel_norms(x: np.ndarray, axis=0) -> np.ndarray:
    """Euclidean norm of each channel of ``x``, reducing ``axis`` in a fixed order."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


# SGD kernels, one per loss family.  Each updates the weight arrays it is bound
# to in place and returns (loss, per-channel gradient norms) for one pool
# sample (inputs, target, scale, shift, input norms); scale/shift are None when
# the loss runs directly on the target.  A channel's gradient norm is its output
# gradient norm times its input norm, summed in quadrature over heads.


def _point_step(core, weights, bias, lr, ctx, target, scale, shift, in_norms):
    pred = weights @ ctx + bias[:, None]
    if scale is None:
        loss, g = core(pred, target)
    else:
        # prediction de-normalized with instance stats before the loss
        loss, g = core(pred * scale + shift, target)
        g = g * scale
    p = _channel_norms(g) * in_norms
    weights -= lr * (g @ ctx.T)
    bias -= lr * g.sum(axis=1)
    return loss, np.sqrt(p * p)


def _gaussian_step(weights, bias, sigma_weights, sigma_bias, lr,
                   ctx, target, scale, shift, in_norms):
    mean = weights @ ctx + bias[:, None]
    std = np.exp(sigma_weights @ ctx + sigma_bias[:, None])
    loss, (d_mean, d_log_std) = _gaussian_nll(mean, std, target, scale, shift)
    p_mean = _channel_norms(d_mean) * in_norms
    p_std = _channel_norms(d_log_std) * in_norms
    weights -= lr * (d_mean @ ctx.T)
    bias -= lr * d_mean.sum(axis=1)
    sigma_weights -= lr * (d_log_std @ ctx.T)
    sigma_bias -= lr * d_log_std.sum(axis=1)
    return loss, np.sqrt(p_mean * p_mean + p_std * p_std)


def _token_step(token_weights, token_bias, lr, ctx, target, scale, shift, in_norms):
    logits = np.einsum("hbl,lc->hcb", token_weights, ctx)
    logits += token_bias[:, None, :]
    loss, g = _token_ce(logits, target)
    p = _channel_norms(g, axis=(0, 2)) * in_norms
    token_weights -= lr * np.einsum("hcb,lc->hbl", g, ctx)
    token_bias -= lr * g.sum(axis=1)
    return loss, np.sqrt(p * p)


# l-rows per chunk of the token kernels: large enough to amortize the per-call
# cost of a ufunc, small enough that a chunk's (K, C, H, B) products stay in
# cache at the default 24 x 128 head.
_TOKEN_CHUNK = 16


def _token_buffers(wt: np.ndarray, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for ``_token_logits``: the summation stack and the logits buffer."""
    _, horizon, bins = wt.shape
    return (np.empty((_TOKEN_CHUNK + 1, channels, horizon, bins)),
            np.empty((horizon, bins, channels)))


def _token_logits(wt, x, stack, out):
    """Token logits (H, C, B) of (L, H, B) weights ``wt`` on features ``x`` (L, C).

    Bitwise equal to ``einsum("hbl,lc->hcb")`` on the (H, B, L) weights for
    C >= 2, strides included: each chunk's products land in ``stack[1:]`` and
    one reduction over the leading axis adds them, in order, onto the running
    sum in ``stack[0]``, which starts at 0.0 as einsum's does.  The result is
    a view of ``out``, an (H, B, C) buffer.
    """
    stack[0] = 0.0
    for l0 in range(0, len(wt), _TOKEN_CHUNK):
        k = min(_TOKEN_CHUNK, len(wt) - l0)
        np.multiply(wt[l0:l0 + k, None], x[l0:l0 + k, :, None, None], out=stack[1:k + 1])
        np.add.reduce(stack[:k + 1], axis=0, out=stack[0])
    out.transpose(2, 0, 1)[...] = stack[0]
    return out.transpose(0, 2, 1)


def _token_step_c2(wt, token_bias, lr, stack, out, prod0, prod1,
                   ctx, target, scale, shift, in_norms):
    """``_token_step`` for a two-channel sample on (L, H, B) working weights."""
    logits = _token_logits(wt, ctx, stack, out)
    logits += token_bias[:, None, :]
    loss, g = _token_ce(logits, target)
    p = _channel_norms(g, axis=(0, 2)) * in_norms
    g0, g1 = g[:, 0], g[:, 1]
    for l0 in range(0, len(wt), _TOKEN_CHUNK):
        k = min(_TOKEN_CHUNK, len(wt) - l0)
        # lr * (g0*x0 + g1*x1), rounded in einsum's order
        a, b = prod0[:k], prod1[:k]
        np.multiply(ctx[l0:l0 + k, 0, None, None], g0, out=a)
        np.multiply(ctx[l0:l0 + k, 1, None, None], g1, out=b)
        a += b
        a *= lr
        wt[l0:l0 + k] -= a
    token_bias -= lr * g.sum(axis=1)
    return loss, np.sqrt(p * p)


@contextmanager
def _bound_kernel(model: LinearForecaster, lr: float, channels: set):
    """The SGD kernel of ``model``'s loss family, bound to its weight arrays.

    ``channels`` holds the channel counts of the training pool.  A token model
    trained on two-channel samples only gets the array kernel, whose working
    weights are written back to ``model`` when the block exits normally.
    """
    kind = model.loss_kind
    if kind.is_point:
        core = _mse if kind is LossKind.MSE else _mae
        yield partial(_point_step, core, model.weights, model.bias, lr)
    elif kind is LossKind.GAUSSIAN_NLL:
        yield partial(_gaussian_step, model.weights, model.bias,
                      model.sigma_weights, model.sigma_bias, lr)
    elif channels != {2}:
        yield partial(_token_step, model.token_weights, model.token_bias, lr)
    else:
        wt = np.ascontiguousarray(model.token_weights.transpose(2, 0, 1))
        stack, out = _token_buffers(wt, 2)
        # the update reuses the forward's product rows, free once it has summed
        products = stack[1:].reshape((2, _TOKEN_CHUNK) + wt.shape[1:])
        yield partial(_token_step_c2, wt, model.token_bias, lr, stack, out, *products)
        model.token_weights[...] = wt.transpose(1, 2, 0)


def train(
    model: LinearForecaster,
    instances: Sequence[Instance],
    scheme: Scheme,
    steps: int,
    lr: float,
    seed: int,
) -> tuple[LinearForecaster, TrainTrace]:
    """SGD-train a copy of ``model`` on the scheme-normalized instance pool.

    Deterministic given ``seed``: the pool order is a seeded permutation,
    redrawn each epoch, and all reductions are fixed-order.  Every epoch's
    permutation is drawn before the first step, and only the samples the
    steps visit are built.  Raises DivergedError (with the step index) if
    the loss leaves the finite range.  The input model is not mutated.
    """
    model = copy.deepcopy(model)
    pool, rejected = prepare_training_pool(instances, scheme, model)
    if not pool:
        raise TsnormError("no admissible training instances after clipping")
    n = len(pool)
    rng = np.random.default_rng(seed)
    # the permutations stepping through the pool epoch by epoch would draw
    epochs = max(1, -(-steps // n))
    order = np.concatenate([rng.permutation(n) for _ in range(epochs)])[:steps]
    drawn, slots = np.unique(order, return_inverse=True)
    rows = pool.build(drawn)
    losses = np.empty(steps)
    grad_norms: list[np.ndarray] = []
    with _bound_kernel(model, lr, pool.channels) as step_fn, \
            np.errstate(over="ignore", invalid="ignore"):
        for step, j in enumerate(slots.tolist()):
            loss, norms = step_fn(*rows[j])
            if not math.isfinite(loss):
                raise DivergedError(step, loss)
            losses[step] = loss
            grad_norms.append(norms)
    trace = TrainTrace(
        losses=losses,
        grad_norms=grad_norms,
        rejected=rejected,
        pool_size=n,
        seed=seed,
        lr=lr,
    )
    return model, trace
