"""In-memory span tracing of tsnorm from outside the package.

``install`` wraps the names that ``tsnorm.cli``, ``tsnorm.harness`` and
``tsnorm.models`` look up at call time, so every call into a layer's entry
point records one span: (id, parent id, name, start, end, attrs).  Nothing
under ``src/`` changes.  Spans stay in memory; the caller writes them once.

With ``--jobs N`` the harness's process pool is replaced by ``TracedPool``:
each worker records its own spans and returns them with the variant result,
and the parent re-numbers them under its open ``harness.run_plan`` span.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn, describe=None):
        """Return ``fn`` recording a span per call; ``describe(args, kwargs,
        result)`` supplies the span's count attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, None)
            if describe is not None:
                self.spans[sid] = (sid, parent, name, start, end, describe(args, kwargs, result))
            return result

        return traced

    def adopt(self, spans: list, parent) -> None:
        """Append spans recorded in another process; its roots hang off ``parent``."""
        offset = len(self.spans)
        for sid, par, name, start, end, attrs in spans:
            self.spans.append(
                (sid + offset, parent if par is None else par + offset, name, start, end, attrs)
            )


_ACTIVE: Tracer | None = None


def _pickled_bytes(task, result) -> int:
    return len(pickle.dumps(task)) + len(pickle.dumps(result))


def _arg(fn, name):
    """Describe-helper reading one bound argument of ``fn`` by name."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


class TracedPool:
    """Stand-in for ``harness.ProcessPoolExecutor`` that carries worker spans home."""

    def __init__(self, max_workers=None):
        self._pool = ProcessPoolExecutor(max_workers=max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown(wait=True)
        return False

    def map(self, fn, iterable):
        import tsnorm.harness as harness

        if fn is not harness._run_variant_worker:
            raise TypeError(f"TracedPool only runs the harness variant worker, got {fn!r}")
        tracer = _ACTIVE
        parent = tracer.stack[-1] if tracer.stack else None
        results = []
        for result, spans in self._pool.map(_worker_entry, iterable):
            tracer.adopt(spans, parent)
            results.append(result)
        return results


def _worker_entry(task):
    """Run one variant in a pool worker with a fresh span buffer."""
    import tsnorm.harness as harness

    if _ACTIVE is None:  # spawned (not forked) worker: patches are not inherited
        install()
    _ACTIVE.reset()
    result = harness._run_variant_worker(task)
    return result, _ACTIVE.spans


def install() -> Tracer:
    """Patch tsnorm's layer entry points; idempotent per process."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    import tsnorm.cli as cli
    import tsnorm.harness as harness
    import tsnorm.models as models

    t = Tracer()
    size_of = lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])}
    train_model = _arg(models.train, "model")
    train_steps = _arg(models.train, "steps")

    patches = [
        (cli, "cmd_run", "cli.run", None),
        (cli, "_load_plan_file", "cli.load_plan", None),
        (cli, "generate_synthetic", "data.synth", None),
        (cli, "run_plan", "harness.run_plan", None),
        (cli, "_write_json", "cli.write", size_of),
        (harness, "sample_instances", "data.sample",
         lambda a, k, r: {"n": len(r)}),
        (harness, "fit_dataset_stats", "norm.fit_dataset_stats", None),
        (harness, "normalize", "norm.normalize", None),
        (harness, "fit_inference_stats", "norm.inference_fit", None),
        (harness, "train", "models.train",
         lambda a, k, r: {"kind": train_model(a, k).loss_kind.value, "steps": train_steps(a, k)}),
        (harness, "evaluate", "harness.evaluate",
         lambda a, k, r: {"windows": len(r)}),
        (harness, "forecast", "models.forecast", None),
        (harness, "naive_mae", "metrics.naive_mae", None),
        (harness, "mase", "metrics.mase", None),
        (harness, "assemble_report", "harness.report", None),
        (models, "prepare_training_pool", "models.pool",
         lambda a, k, r: {"pool_size": len(r[0]), "rejected": int(r[1])}),
    ]
    for module, attr, name, describe in patches:
        setattr(module, attr, t.wrap(name, getattr(module, attr), describe))

    harness.AccessLog.verify = t.wrap(
        "harness.verify", harness.AccessLog.verify,
        lambda a, k, r: {"events": len(a[0].events)},
    )
    models.TrainTrace.to_csv = t.wrap(
        "cli.write", models.TrainTrace.to_csv,
        lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    )

    # The pickled size of a variant's task and result is what a process pool
    # ships; it is measured for every variant, under its own span so that
    # the cost shows as tracing overhead rather than inside a layer.
    pickled = t.wrap("trace.pickle", _pickled_bytes, lambda a, k, r: {"bytes": r})
    run_worker = t.wrap("harness.variant", harness._run_variant_worker)

    @functools.wraps(harness._run_variant_worker)
    def variant(task):
        result = run_worker(task)
        pickled(task, result)
        return result

    harness._run_variant_worker = variant
    harness.ProcessPoolExecutor = TracedPool
    _ACTIVE = t
    return t
