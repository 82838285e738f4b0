"""Leave-one-dataset-out benchmark protocol: pretrain per scheme, evaluate ZS/ID.

One variant = (model kind, scheme, withheld dataset).  The variant's model is
trained on every corpus dataset except the withheld one (train rows only; a
scheme's dataset step fits each dataset's own train statistics, which the
training pool applies to the windows it builds), then scored zero-shot on the
withheld dataset's test rows and in-domain on every training dataset's test
rows.  All data access runs through auditable entry points so leakage
assertions can be checked after the fact.  Under ``--jobs N`` the corpus and
its fitted dataset step cross to each worker once, not per variant: a forked
worker uses the corpus it inherits from the parent and reads nothing, and a
spawn or forkserver worker loads it once from a file the parent writes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import os
import pickle
import re
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    Dataset,
    EvalEntry,
    EvalReport,
    ForecastKind,
    NonFiniteError,
    Setting,
    ShapeMismatchError,
    TsnormError,
)
from .data import MAX_SYNTHETIC_VALUES, InstanceBatch, sample_instances
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
from .norm import (WINDOW_BLOCK, StatsOverflowError, denormalize, fit_dataset_stats,
                   fit_inference_stats, normalize)

AVERAGE_ID = "average"


class InsufficientTestDataError(TsnormError):
    """A dataset's test rows cannot fit a single evaluation window."""


class EmptyInputError(TsnormError):
    """Report assembly requires at least one entry."""


class MissingDatasetError(TsnormError):
    """A plan references a dataset that was not supplied."""


class LeakageError(TsnormError):
    """An audited data access violated the protocol."""


class NonFiniteScoreError(TsnormError):
    """A dataset's test windows score a non-finite MASE: their values
    overflow float64 in the scheme's arithmetic."""


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


def _plan_list(raw: dict, key: str, kind=None) -> list:
    """The list of strings under plan key ``key``, read as members of the
    enum ``kind`` when one is given."""
    value = raw.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TsnormError(f"plan {key!r} must be a list of strings, got {value!r}")
    if kind is None:
        return value
    allowed = [k.value for k in kind]
    unknown = [v for v in value if v not in allowed]
    if unknown:
        raise TsnormError(f"plan {key!r} has unknown values {unknown}; allowed: {allowed}")
    return [kind(v) for v in value]


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
    as ``int``; every horizon is at least 1.  ``steps`` and
    ``instances_per_dataset`` size arrays, so each is at most
    ``MAX_SYNTHETIC_VALUES``.  ``lr`` is a finite positive real number.  A
    corpus name holds no ``|``, ``/``, ``\\`` or NUL: variant keys and file names
    hold it.  The field defaults are the defaults of a plan file (see ``from_dict``).
    """

    corpus: tuple
    schemes: tuple
    model_kinds: tuple
    withheld: tuple
    horizons: dict
    context_len: int = 96
    steps: int = 3000
    lr: float = 1e-4
    seed: int = 0
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
        for name in self.corpus:
            if set(str(name)) & set("|/\\\0"):
                raise TsnormError(f"dataset name {name!r} holds '|', '/', '\\' or NUL, "
                                  "which variant keys and file names cannot")
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
        for name in ("steps", "instances_per_dataset"):
            if getattr(self, name) > MAX_SYNTHETIC_VALUES:
                raise TsnormError(f"{name} must be at most {MAX_SYNTHETIC_VALUES}, "
                                  f"got {getattr(self, name)}")
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
    def from_dict(cls, raw: dict, datasets) -> "ExperimentPlan":
        """Read a plan object over its corpus, the sequence of ``Dataset``
        that the object's corpus key (``synthetic`` or ``datasets``) names.

        The keys are the field names, except that ``models`` holds the
        ``model_kinds`` and ``horizon_overrides`` pins the ``horizons``, which
        otherwise follow each dataset's frequency; ``corpus`` is the datasets'
        names.  ``schemes``, ``models`` and ``withheld`` are required lists of
        strings; a missing scalar key takes its field default.  Raises
        TsnormError naming the key for an unknown key or a value of the wrong
        shape, and MissingDatasetError for an override outside the corpus.
        """
        scalars = {f.name for f in fields(cls)} - {
            "corpus", "schemes", "model_kinds", "withheld", "horizons"}
        # the corpus keys are the caller's: it resolves them into ``datasets``
        unknown = sorted(set(raw) - scalars - {
            "schemes", "models", "withheld", "horizon_overrides", "synthetic", "datasets"})
        if unknown:
            raise TsnormError(f"unknown plan keys {unknown}")
        overrides = raw.get("horizon_overrides")
        if not isinstance(overrides, (dict, type(None))):
            raise TsnormError(f"plan 'horizon_overrides' must be an object, got {overrides!r}")
        overrides = overrides or {}
        outside = sorted(set(overrides) - {d.name for d in datasets})
        if outside:
            raise MissingDatasetError(f"horizon_overrides {outside} not in corpus")
        return cls(
            corpus=[d.name for d in datasets],
            schemes=_plan_list(raw, "schemes", Scheme),
            model_kinds=_plan_list(raw, "models", LossKind),
            withheld=_plan_list(raw, "withheld"),
            horizons={d.name: overrides[d.name] if d.name in overrides
                      else horizon_for_frequency(d.frequency) for d in datasets},
            **{k: raw[k] for k in scalars if k in raw},
        )

    def to_dict(self) -> dict:
        """The plan as ``report.json`` and ``manifest.json`` record it: every
        field by name, enums by value and ``model_kinds`` as ``models``."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record.update(
            corpus=list(self.corpus),
            schemes=[s.value for s in self.schemes],
            models=[m.value for m in record.pop("model_kinds")],
            withheld=list(self.withheld),
            horizons=dict(sorted(self.horizons.items())),
        )
        return record

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


def _fitted(dataset: Dataset, key: tuple, fit):
    """``fit()``, kept under ``key`` in ``dataset._fits`` and pickled with it,
    never by name, which two corpora may share: a dataset's values are
    read-only, so a fit depends on the object alone.  A fit that raises stores nothing."""
    if key not in dataset._fits:
        dataset._fits[key] = fit()
    return dataset._fits[key]


def _dataset_stats(dataset: Dataset, method):
    """The dataset step of ``dataset`` under ``method``; None without one."""
    if method is None:
        return None
    return _fitted(dataset, (method,), lambda: fit_dataset_stats(dataset, method))


@np.errstate(over="ignore", invalid="ignore")
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
    window by window; ``forecast`` and ``mase`` run once per window.  The
    statistics and naive MAE depend on no model: they are fitted once per
    ``dataset`` object and kept on it (see ``_fitted``).  Statistics that overflow
    raise StatsOverflowError, and a non-finite naive MAE or score, checked
    once per call, raises NonFiniteScoreError; neither lets a numpy warning
    out.
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
    method, starts = scheme.inference_method, range(0, len(windows), WINDOW_BLOCK)
    try:
        fits = _fitted(dataset, (method, context_len, horizon, lag), lambda: [
            (fit_inference_stats(windows[lo : lo + WINDOW_BLOCK, :context_len], method),
             naive_mae(windows[lo : lo + WINDOW_BLOCK, :context_len], lag)) for lo in starts])
    except NonFiniteError:  # the contexts are finite, so a statistic overflowed
        raise StatsOverflowError(dataset.name, method, "test-row contexts") from None
    scores = []
    if audit is not None:
        # one event from the first window's first row to the last window's end
        start = dataset.split_index
        audit.record(variant, "evaluate", dataset.name,
                     start, start + (len(windows) - 1) * horizon + window)
    for lo, (stats, naive) in zip(starts, fits):
        block = windows[lo : lo + WINDOW_BLOCK]
        offsets = range(lo * horizon, (lo + len(block)) * horizon, horizon)
        preds = []
        for ctx in normalize(block[:, :context_len], stats):
            f = forecast(model, ctx)
            if f.kind is ForecastKind.POINT:
                pred = f.point
            elif f.kind is ForecastKind.GAUSSIAN:
                pred = f.gauss_mean
            else:
                pred = token_point_forecast(f)
            preds.append(pred[:horizon])
        preds = denormalize(np.stack(preds), stats)
        for i, offset in enumerate(offsets):
            scores.append((offset, mase(preds[i], block[i, context_len:], naive[i])))
    if not (np.isfinite([s for _, s in scores]).all()
            and all(np.isfinite(naive).all() for _, naive in fits)):
        raise NonFiniteScoreError(
            f"dataset {dataset.name!r}: {scheme.value} MASE of its test windows is not "
            f"finite; its values overflow float64 when scored")
    return scores


def run_variant(
    plan: ExperimentPlan,
    datasets: dict,
    scheme: Scheme,
    model_kind: LossKind,
    withheld: str,
    audit: AccessLog | None = None,
) -> tuple[LinearForecaster, TrainTrace, list]:
    """Train one variant and produce its ZS and ID report entries; each
    dataset's statistics are kept on it (see ``_fitted``), so each is fitted once.

    The untrained model is made in the call to ``train`` and referenced
    nowhere else: once ``train`` has copied it (CPython 3.11 and later hand
    call arguments to the callee), the copy is the only model left, and
    ``evaluate`` runs on the trained one alone.  A token variant so holds its
    weights at most twice, while ``train`` copies them."""
    if withheld not in plan.corpus:
        raise MissingDatasetError(f"withheld {withheld!r} not in plan corpus")
    for name in plan.corpus:
        if name not in datasets:
            raise MissingDatasetError(f"dataset {name!r} not supplied")
    variant = variant_key(model_kind, scheme, withheld)
    seed = variant_seed(plan.seed, model_kind, scheme, withheld)
    train_names = [n for n in plan.corpus if n != withheld]

    batches = []
    for i, name in enumerate(train_names):
        d = datasets[name]
        # fitted on the train rows; the pool normalizes only the rows it builds
        stats = _dataset_stats(d, scheme.dataset_method)
        if stats is not None and audit is not None:
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

    # created in the call, so ``train``'s copy is the only reference left to it
    trained, trace = train(
        LinearForecaster.create(model_kind, plan.context_len, plan.train_horizon, seed=seed),
        InstanceBatch.concat(batches), scheme, plan.steps, plan.lr, seed,
    )

    rows = []
    for name, setting in [(withheld, Setting.ZS)] + [(n, Setting.ID) for n in train_names]:
        scores = evaluate(
            trained, scheme, datasets[name], plan.context_len,
            plan.horizons[name], plan.naive_lag, audit, variant,
        )
        rows.append(
            EvalEntry(
                model_id=model_kind.value,
                method=scheme.value,
                dataset=name,
                setting=setting,
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
    pair of methods on that row.  Entries of a method outside ``Scheme`` are
    kept but not aggregated.
    """
    entries = tuple(
        sorted(rows, key=lambda e: (e.model_id, e.method, e.setting.value, e.dataset, e.withheld))
    )
    if not entries:
        raise EmptyInputError("no evaluation entries to aggregate")
    schemes = {s.value for s in Scheme}
    aggregates, model_means = {}, {}
    cells = itertools.groupby((e for e in entries if e.method in schemes),
                              lambda e: (e.model_id, e.method, e.setting.value))
    for (model, method, setting), cell in cells:
        by_variant: dict = {}
        for e in cell:
            by_variant.setdefault(e.withheld, []).append(e.mase)
        per_variant = [float(np.mean(by_variant[w])) for w in sorted(by_variant)]
        mean = float(np.mean(per_variant))
        aggregates[(model, method, setting)] = (mean, float(np.std(per_variant)))
        # entries are sorted by model first, so each list is in model order
        model_means.setdefault(setting, {}).setdefault(method, []).append(mean)
    improvements = {}
    for setting, by_method in model_means.items():
        for method, means in by_method.items():
            aggregates[(AVERAGE_ID, method, setting)] = (float(np.mean(means)), float(np.std(means)))
        average = {method: aggregates[(AVERAGE_ID, method, setting)][0] for method in by_method}
        for ref, method in itertools.product(average, repeat=2):
            improvements[(setting, ref, method)] = (
                0.0 if ref == method else improvement(average[ref], average[method])
            )
    return EvalReport(entries=entries, aggregates=aggregates, improvements=improvements)


def ProcessPoolExecutor(max_workers: int):
    """The process pool ``run_plan`` runs ``--jobs N`` variants in, with at
    most one worker per pending variant: a
    ``concurrent.futures.ProcessPoolExecutor``, imported on the first call, so
    a serial run or a ``--dry-run`` never loads ``multiprocessing``.  A test or
    a tracer replaces this name with a pool of its own."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


# The corpus this process holds for a corpus file, (path, datasets), or None.
_corpus = None


def _load_corpus(path: str) -> dict:
    """A corpus file's datasets, with their fits, kept until another corpus file
    is read: a pool worker loads a corpus once, whatever number of variants it
    runs.  While ``run_plan``'s pool runs, the parent holds the datasets it
    wrote to ``path``, so a forked worker finds them here and reads nothing;
    a spawn or forkserver worker starts empty and reads the file."""
    global _corpus
    if _corpus is None or _corpus[0] != path:
        _corpus = None  # the old corpus goes before the new one is read
        with open(path, "rb") as fh:
            _corpus = (path, pickle.load(fh))
    return _corpus[1]


@contextmanager
def _holding_corpus(path: str, datasets: dict):
    """Hold ``datasets`` as the corpus of ``path`` in this process while the block runs."""
    global _corpus
    _corpus = (path, datasets)
    try:
        yield
    finally:
        _corpus = None


def _run_variant_worker(args):
    plan, datasets, scheme, model_kind, withheld = args
    if isinstance(datasets, str):
        datasets = _load_corpus(datasets)
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
    variants are skipped (resume support).  The pending variants' dataset step
    is fitted first, once per (training dataset, method), so an overflowing
    one is refused before any variant trains.  With jobs > 1 variants run in
    parallel processes; results are collected and ordered deterministically,
    so the report is identical to a serial run.  The pool starts at most one
    worker per pending variant, and only a run with more than one loads it
    (see ``ProcessPoolExecutor``).  The datasets then cross to
    the workers once: they are written to a file in a private temporary
    directory, and each task carries only its path.  While the pool runs,
    this process also holds them as that file's corpus (see ``_load_corpus``),
    so a forked worker uses the datasets it inherits and reads nothing, and a
    spawn or forkserver worker loads the file on its first variant.  Once the
    pool has shut down, on failure too, the corpus is let go and the
    directory removed.  A serial run writes no file and passes the datasets
    themselves.  ``on_variant(key, model, trace, rows)`` is called in plan
    order as each variant's result arrives, so variants that finished before
    a failure have already been handed on.
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
    for mk, sc, wh in pending:  # the workers then find these fits in the corpus file
        for name in plan.corpus:
            if name != wh:
                _dataset_stats(datasets[name], sc.dataset_method)
    audit = AccessLog()
    all_rows = []
    for rows in completed.values():
        all_rows.extend(rows)
    with ExitStack() as stack:
        run_all, corpus = map, datasets
        if jobs > 1 and len(pending) > 1:
            # entered first, so removed after the pool has shut down
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="tsnorm-"))
            corpus = os.path.join(tmp, "corpus.pickle")
            shipped = dict(datasets)
            with open(corpus, "wb") as fh:
                pickle.dump(shipped, fh, protocol=pickle.HIGHEST_PROTOCOL)
            # held before the workers fork, let go after the pool has shut down
            stack.enter_context(_holding_corpus(corpus, shipped))
            # fork starts every worker up front: no more than there are variants
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
            run_all = stack.enter_context(pool).map
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
