"""Leave-one-dataset-out benchmark protocol: pretrain per scheme, evaluate ZS/ID.

One variant = (model kind, scheme, withheld dataset).  The variant's model is
trained on every corpus dataset except the withheld one (train rows only; a
scheme's dataset step fits each dataset's own train statistics, which the
training pool applies to the windows it builds), then scored zero-shot on the
withheld dataset's test rows and in-domain on every training dataset's test
rows.  All data access runs through auditable entry points so leakage
assertions can be checked after the fact.  Under ``--jobs N`` the corpus
crosses to each worker process once, as a file, not once per variant.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import os
import pickle
import re
import tempfile
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    Dataset,
    EvalEntry,
    EvalReport,
    ForecastKind,
    Setting,
    ShapeMismatchError,
    TsnormError,
)
from .data import InstanceBatch, sample_instances
from .metrics import improvement, mase, naive_mae
from .models import (
    LinearForecaster,
    LossKind,
    Scheme,
    TrainTrace,
    forecast,
    token_point_forecast,
    train,
)
from .norm import WINDOW_BLOCK, denormalize, fit_dataset_stats, fit_inference_stats, normalize

AVERAGE_ID = "average"


class InsufficientTestDataError(TsnormError):
    """A dataset's test rows cannot fit a single evaluation window."""


class EmptyInputError(TsnormError):
    """Report assembly requires at least one entry."""


class MissingDatasetError(TsnormError):
    """A plan references a dataset that was not supplied."""


class LeakageError(TsnormError):
    """An audited data access violated the protocol."""


_FREQ_RE = re.compile(r"^\s*(\d+)\s*(min|h|d)\s*$", re.IGNORECASE)


def horizon_for_frequency(frequency: str, span_hours: int = 24) -> int:
    """Prediction length covering a fixed wall-clock span at a given frequency.

    A 24-hour span gives 24 steps for "1h", 96 for "15min", 144 for "10min".
    """
    m = _FREQ_RE.match(frequency)
    if not m:
        raise TsnormError(f"cannot parse frequency {frequency!r} (use e.g. '1h', '15min')")
    n, unit = int(m.group(1)), m.group(2).lower()
    minutes = n * {"min": 1, "h": 60, "d": 1440}[unit]
    span = span_hours * 60
    if minutes <= 0 or span % minutes:
        raise TsnormError(
            f"frequency {frequency!r} does not divide a {span_hours}h span evenly"
        )
    return span // minutes


@dataclass
class AccessLog:
    """Append-only record of every audited dataset access.

    Events are (variant_key, kind, dataset, row_lo, row_hi) with kind one of
    "fit_stats" / "sample" (training side) or "evaluate".  Row bounds are
    half-open absolute dataset row indices.  A "sample" event covers all the
    instances a variant drew from one dataset: from the first row of the
    lowest draw to the end of the highest; an "evaluate" event covers all the
    windows a variant scored on one dataset.
    """

    events: list = field(default_factory=list)

    def record(self, variant: str, kind: str, dataset: str, lo: int, hi: int) -> None:
        self.events.append((variant, kind, dataset, int(lo), int(hi)))

    def extend(self, other: "AccessLog") -> None:
        self.events.extend(other.events)

    def verify(self, datasets: dict) -> None:
        """Raise LeakageError if any training-side access saw test rows or a
        withheld dataset (the variant key's last component) was touched outside
        its evaluation."""
        for variant, kind, name, lo, hi in self.events:
            withheld = variant.rsplit("|", 1)[-1]
            if kind != "evaluate":
                if name == withheld:
                    raise LeakageError(
                        f"variant {variant}: training-side access to withheld {name!r}"
                    )
                split = datasets[name].split_index
                if hi > split or lo < 0:
                    raise LeakageError(
                        f"variant {variant}: {kind} on {name!r} rows [{lo}, {hi}) "
                        f"crosses the split at {split}"
                    )


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of a benchmark run.

    ``horizons`` maps each corpus dataset to its evaluation prediction length
    (a consistent wall-clock span when frequencies differ); models are trained
    with the longest horizon and truncated per dataset at evaluation.
    ``naive_lag`` overrides the per-dataset seasonal period for the MASE
    denominator when set; it must be at least 1.  The integer fields and the
    ``horizons`` values take Python or numpy integers (not ``bool``), stored
    as ``int``; every horizon is at least 1.  ``lr`` is a finite positive
    real number.
    """

    corpus: tuple
    schemes: tuple
    model_kinds: tuple
    context_len: int
    horizons: dict
    withheld: tuple
    steps: int
    lr: float
    seed: int
    instances_per_dataset: int = 256
    naive_lag: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "corpus", tuple(self.corpus))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "model_kinds", tuple(self.model_kinds))
        object.__setattr__(self, "withheld", tuple(self.withheld))
        if not self.corpus or not self.schemes or not self.model_kinds or not self.withheld:
            raise TsnormError("corpus, schemes, model_kinds, and withheld must be non-empty")
        for label, seq in (("corpus", self.corpus), ("withheld", self.withheld),
                           ("schemes", self.schemes), ("model_kinds", self.model_kinds)):
            if len(set(seq)) != len(seq):
                raise TsnormError(f"{label} contains duplicates")
        missing = [n for n in self.withheld if n not in self.corpus]
        if missing:
            raise MissingDatasetError(f"withheld {missing} not in corpus")
        if len(self.corpus) - 1 < 1:
            raise TsnormError("need at least two corpus datasets to withhold one")
        for name in self.corpus:
            if name not in self.horizons:
                raise TsnormError(f"no horizon configured for dataset {name!r}")
        horizons = {}
        for name, h in self.horizons.items():
            if not isinstance(h, numbers.Integral) or isinstance(h, bool) or h < 1:
                raise TsnormError(f"horizons[{name!r}] must be an integer >= 1, got {h!r}")
            horizons[name] = int(h)
        object.__setattr__(self, "horizons", horizons)
        for name in ("context_len", "steps", "seed", "instances_per_dataset", "naive_lag"):
            value = getattr(self, name)
            if value is None and name == "naive_lag":
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TsnormError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        lr = self.lr
        if not isinstance(lr, numbers.Real) or isinstance(lr, bool) or not math.isfinite(lr):
            raise TsnormError(f"lr must be a finite real number, got {lr!r}")
        if lr <= 0:
            raise TsnormError(f"lr must be positive, got {lr!r}")
        if self.context_len < 1 or self.steps < 0 or self.instances_per_dataset < 1:
            raise TsnormError("context_len, steps, instances_per_dataset out of range")
        if self.naive_lag is not None and self.naive_lag < 1:
            raise TsnormError(f"naive_lag must be at least 1 when set, got {self.naive_lag}")

    @property
    def train_horizon(self) -> int:
        return max(self.horizons[n] for n in self.corpus)

    def variants(self) -> list:
        """All (model_kind, scheme, withheld) runs, in canonical order."""
        return [
            (mk, sc, wh)
            for mk in self.model_kinds
            for sc in self.schemes
            for wh in self.withheld
        ]

    @classmethod
    def from_datasets(
        cls,
        datasets,
        schemes,
        model_kinds,
        context_len: int,
        withheld,
        steps: int,
        lr: float,
        seed: int,
        instances_per_dataset: int = 256,
        naive_lag: int | None = None,
        horizon_overrides: dict | None = None,
    ) -> "ExperimentPlan":
        overrides = horizon_overrides or {}
        horizons = {
            d.name: overrides.get(d.name, horizon_for_frequency(d.frequency))
            for d in datasets
        }
        return cls(
            corpus=tuple(d.name for d in datasets),
            schemes=tuple(schemes),
            model_kinds=tuple(model_kinds),
            context_len=context_len,
            horizons=horizons,
            withheld=tuple(withheld),
            steps=steps,
            lr=lr,
            seed=seed,
            instances_per_dataset=instances_per_dataset,
            naive_lag=naive_lag,
        )

    def validate_against(self, datasets: dict) -> list:
        """Collect every plan/data inconsistency (empty list when runnable)."""
        problems = []
        for name in self.corpus:
            if name not in datasets:
                problems.append(f"dataset {name!r} missing")
                continue
            d = datasets[name]
            h = self.horizons[name]
            lag = self.naive_lag or d.seasonal_period
            if self.context_len <= lag:
                problems.append(
                    f"{name}: context_len {self.context_len} must exceed naive lag {lag}"
                )
            if d.length - d.split_index < self.context_len + h:
                problems.append(
                    f"{name}: test rows {d.length - d.split_index} cannot fit one "
                    f"evaluation window of {self.context_len}+{h}"
                )
            if self.context_len + self.train_horizon > d.split_index:
                problems.append(
                    f"{name}: train rows {d.split_index} cannot fit one training "
                    f"window of {self.context_len}+{self.train_horizon}"
                )
        return problems


def variant_key(model_kind: LossKind, scheme: Scheme, withheld: str) -> str:
    return f"{model_kind.value}|{scheme.value}|{withheld}"


def variant_seed(plan_seed: int, model_kind: LossKind, scheme: Scheme, withheld: str) -> int:
    """Order-independent per-variant seed, stable across processes and runs."""
    key = f"{plan_seed}|{variant_key(model_kind, scheme, withheld)}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def evaluate(
    model: LinearForecaster,
    scheme: Scheme,
    dataset: Dataset,
    context_len: int,
    horizon: int,
    naive_lag: int | None = None,
    audit: AccessLog | None = None,
    variant: str = "",
) -> list:
    """Score non-overlapping windows over a dataset's test rows.

    Windows start at offsets 0, H, 2H, ... into the test rows.  Per window the
    scheme's statistic family is fitted on the raw context, the context is
    normalized, the model forecast is de-normalized with the same statistics,
    and MASE is computed in raw scale against the context's naive MAE.
    Statistics, (de-)normalization and naive MAE run block-wise, on a strided
    view of up to ``WINDOW_BLOCK`` windows at a time, with the same bits as
    window by window; ``forecast`` and ``mase`` run once per window.
    Returns [(offset, mase), ...].
    """
    if horizon > model.horizon:
        raise ShapeMismatchError(
            f"dataset horizon {horizon} exceeds model horizon {model.horizon}"
        )
    test = dataset.test_values
    window = context_len + horizon
    if test.shape[0] < window:
        raise InsufficientTestDataError(
            f"{dataset.name}: {test.shape[0]} test rows < one window of {window}"
        )
    lag = naive_lag or dataset.seasonal_period
    # windows[i] is test rows [i*H, i*H + window), a (window, C) view
    windows = sliding_window_view(test, window, axis=0)[::horizon].transpose(0, 2, 1)
    scores = []
    if audit is not None:
        # one event from the first window's first row to the last window's end
        start = dataset.split_index
        audit.record(variant, "evaluate", dataset.name,
                     start, start + (len(windows) - 1) * horizon + window)
    for lo in range(0, len(windows), WINDOW_BLOCK):
        block = windows[lo : lo + WINDOW_BLOCK]
        offsets = range(lo * horizon, (lo + len(block)) * horizon, horizon)
        contexts = block[:, :context_len]
        stats = fit_inference_stats(contexts, scheme.inference_method)
        preds = []
        for ctx in normalize(contexts, stats):
            f = forecast(model, ctx)
            if f.kind is ForecastKind.POINT:
                pred = f.point
            elif f.kind is ForecastKind.GAUSSIAN:
                pred = f.gauss_mean
            else:
                pred = token_point_forecast(f)
            preds.append(pred[:horizon])
        preds = denormalize(np.stack(preds), stats)
        naive = naive_mae(contexts, lag)
        for i, offset in enumerate(offsets):
            scores.append((offset, mase(preds[i], block[i, context_len:], naive[i])))
    return scores


def run_variant(
    plan: ExperimentPlan,
    datasets: dict,
    scheme: Scheme,
    model_kind: LossKind,
    withheld: str,
    audit: AccessLog | None = None,
) -> tuple[LinearForecaster, TrainTrace, list]:
    """Train one variant and produce its ZS and ID report entries."""
    if withheld not in plan.corpus:
        raise MissingDatasetError(f"withheld {withheld!r} not in plan corpus")
    for name in plan.corpus:
        if name not in datasets:
            raise MissingDatasetError(f"dataset {name!r} not supplied")
    variant = variant_key(model_kind, scheme, withheld)
    seed = variant_seed(plan.seed, model_kind, scheme, withheld)
    train_names = [n for n in plan.corpus if n != withheld]

    ds_method = scheme.dataset_method
    batches = []
    for i, name in enumerate(train_names):
        d = datasets[name]
        stats = None
        if ds_method is not None:
            # fitted on the train rows; the pool normalizes only the rows it builds
            stats = fit_dataset_stats(d, ds_method)
            if audit is not None:
                audit.record(variant, "fit_stats", name, 0, d.split_index)
        drawn = sample_instances(
            d, plan.context_len, plan.train_horizon, plan.instances_per_dataset, seed + i,
            stats,
        )
        if audit is not None and len(drawn):
            # one event spanning every draw: it crosses the split or touches
            # the withheld dataset exactly when one of the draws does
            span = plan.context_len + plan.train_horizon
            audit.record(variant, "sample", name, drawn.starts.min(), drawn.starts.max() + span)
        batches.append(drawn)

    model = LinearForecaster.create(
        model_kind, plan.context_len, plan.train_horizon, seed=seed
    )
    trained, trace = train(
        model, InstanceBatch.concat(batches), scheme, plan.steps, plan.lr, seed
    )

    rows = []
    zs = evaluate(
        trained, scheme, datasets[withheld], plan.context_len,
        plan.horizons[withheld], plan.naive_lag, audit, variant,
    )
    rows.append(
        EvalEntry(
            model_id=model_kind.value,
            method=scheme.value,
            dataset=withheld,
            setting=Setting.ZS,
            mase=float(np.mean([s for _, s in zs])),
            withheld=withheld,
        )
    )
    for name in train_names:
        scores = evaluate(
            trained, scheme, datasets[name], plan.context_len,
            plan.horizons[name], plan.naive_lag, audit, variant,
        )
        rows.append(
            EvalEntry(
                model_id=model_kind.value,
                method=scheme.value,
                dataset=name,
                setting=Setting.ID,
                mase=float(np.mean([s for _, s in scores])),
                withheld=withheld,
            )
        )
    return trained, trace, rows


def assemble_report(rows) -> EvalReport:
    """Aggregate variant entries into per-(model, method, setting) statistics.

    ZS aggregates are mean +- std over the leave-one-out variants (one value
    per withheld dataset); ID values are first averaged over each variant's
    training datasets with equal weight, then aggregated the same way.  An
    ``average`` pseudo-model row holds the unweighted mean over models, and
    the improvement matrix is the percentage MASE drop between every ordered
    pair of methods on that row.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInputError("no evaluation entries to aggregate")
    entries = tuple(
        sorted(rows, key=lambda e: (e.model_id, e.method, e.setting.value, e.dataset, e.withheld))
    )
    models = sorted({e.model_id for e in entries})
    methods = [s.value for s in Scheme if s.value in {e.method for e in entries}]

    aggregates = {}
    for model in models:
        for method in methods:
            for setting in (Setting.ZS, Setting.ID):
                sub = [
                    e for e in entries
                    if e.model_id == model and e.method == method and e.setting == setting
                ]
                if not sub:
                    continue
                variants = sorted({e.withheld for e in sub})
                per_variant = [
                    float(np.mean([e.mase for e in sub if e.withheld == w]))
                    for w in variants
                ]
                aggregates[(model, method, setting.value)] = (
                    float(np.mean(per_variant)),
                    float(np.std(per_variant)),
                )
    for method in methods:
        for setting in (Setting.ZS, Setting.ID):
            means = [
                aggregates[(m, method, setting.value)][0]
                for m in models
                if (m, method, setting.value) in aggregates
            ]
            if means:
                aggregates[(AVERAGE_ID, method, setting.value)] = (
                    float(np.mean(means)),
                    float(np.std(means)),
                )

    improvements = {}
    for setting in (Setting.ZS, Setting.ID):
        for ref in methods:
            key_r = (AVERAGE_ID, ref, setting.value)
            if key_r not in aggregates:
                continue
            for method in methods:
                key_m = (AVERAGE_ID, method, setting.value)
                if key_m not in aggregates:
                    continue
                improvements[(setting.value, ref, method)] = (
                    0.0
                    if ref == method
                    else improvement(aggregates[key_r][0], aggregates[key_m][0])
                )
    return EvalReport(entries=entries, aggregates=aggregates, improvements=improvements)


class _CorpusFile(Mapping):
    """A plan's datasets by reference to a file that holds them, pickled.

    It pickles as the file's path, loaded or not, so a pool task that carries
    it stays small.  A process loads the file on first use and keeps the
    datasets until it reads another corpus file, so each pool worker loads
    the corpus once, whatever number of variants it runs.
    """

    def __init__(self, path: str):
        self.path = path

    @classmethod
    def write(cls, datasets: dict, directory: str) -> "_CorpusFile":
        path = os.path.join(directory, "corpus.pickle")
        with open(path, "wb") as fh:
            pickle.dump(dict(datasets), fh, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(path)

    def __reduce__(self):
        return type(self), (self.path,)

    def __getitem__(self, name):
        return _load_corpus(self.path)[name]

    def __iter__(self):
        return iter(_load_corpus(self.path))

    def __len__(self) -> int:
        return len(_load_corpus(self.path))


@functools.lru_cache(maxsize=1)
def _load_corpus(path: str) -> dict:
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _run_variant_worker(args):
    plan, datasets, scheme, model_kind, withheld = args
    audit = AccessLog()
    trained, trace, rows = run_variant(plan, datasets, scheme, model_kind, withheld, audit)
    return variant_key(model_kind, scheme, withheld), trained, trace, rows, audit


@dataclass
class PlanResult:
    """A plan's report and audit log; models and traces go to ``on_variant``."""

    report: EvalReport
    audit: AccessLog


def run_plan(
    plan: ExperimentPlan,
    datasets: dict,
    jobs: int = 1,
    completed: dict | None = None,
    on_variant=None,
) -> PlanResult:
    """Execute every variant of a plan and assemble the report.

    ``completed`` maps variant keys to previously computed row lists; those
    variants are skipped (resume support).  With jobs > 1 variants run in
    parallel processes; results are collected and ordered deterministically,
    so the report is identical to a serial run.  The datasets then cross to
    the workers once: they are written to a file in a private temporary
    directory, which each worker loads on its first variant, and the
    directory is removed once the pool has shut down, on failure too.  A
    serial run writes no file.  ``on_variant(key, model, trace, rows)`` is
    called in plan order as each variant's result arrives, so variants that
    finished before a failure have already been handed on.
    It is the only place a trained model and its trace come out: the result
    keeps neither, so a caller that wants them collects them there.
    """
    problems = plan.validate_against(datasets)
    if problems:
        raise TsnormError("invalid plan: " + "; ".join(problems))
    completed = dict(completed or {})
    pending = [
        (mk, sc, wh)
        for mk, sc, wh in plan.variants()
        if variant_key(mk, sc, wh) not in completed
    ]
    audit = AccessLog()
    all_rows = []
    for rows in completed.values():
        all_rows.extend(rows)
    with ExitStack() as stack:
        run_all, corpus = map, datasets
        if jobs > 1 and len(pending) > 1:
            # entered first, so removed after the pool has shut down
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="tsnorm-"))
            corpus = _CorpusFile.write(datasets, tmp)
            run_all = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        results = run_all(_run_variant_worker,
                          [(plan, corpus, sc, mk, wh) for mk, sc, wh in pending])
        # each variant is handed on as it finishes, so a later failure keeps it
        for key, trained, trace, rows, variant_audit in results:
            audit.extend(variant_audit)
            all_rows.extend(rows)
            if on_variant is not None:
                on_variant(key, trained, trace, rows)
            del trained, trace  # not kept while the next variant trains
    audit.verify(datasets)
    return PlanResult(report=assemble_report(all_rows), audit=audit)
