import dataclasses
import gc
import os
import pickle
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import tsnorm.harness as harness
from tsnorm import (
    Dataset,
    EvalEntry,
    ExperimentPlan,
    ForecastKind,
    LinearForecaster,
    LossKind,
    Scheme,
    Setting,
    SyntheticSpec,
    assemble_report,
    denormalize,
    evaluate,
    fit_inference_stats,
    forecast,
    generate_synthetic,
    horizon_for_frequency,
    naive_mae,
    mase,
    normalize,
    run_plan,
    run_variant,
)
from tsnorm.core import NonFiniteError, TsnormError
from tsnorm.data import InstanceBatch
from tsnorm.harness import (
    AccessLog,
    InsufficientTestDataError,
    EmptyInputError,
    LeakageError,
    MissingDatasetError,
    variant_seed,
)
from tsnorm.models import DivergedError, token_point_forecast


def small_corpus(seed=13):
    spec = SyntheticSpec(
        n_datasets=3, channels=2, length=600, scale_exponents=(1.0, 0.0, -1.5),
        level_shifts=1, seed=seed, seasonal_period=24, split_fraction=0.8,
    )
    return {d.name: d for d in generate_synthetic(spec)}


def small_plan(datasets, schemes=(Scheme.REVIN, Scheme.RAW), models=(LossKind.MSE,),
               withheld=("synth0", "synth2"), steps=120, seed=3):
    return ExperimentPlan.from_datasets(
        list(datasets.values()),
        schemes=schemes,
        model_kinds=models,
        context_len=48,
        withheld=withheld,
        steps=steps,
        lr=1e-4,
        seed=seed,
        instances_per_dataset=32,
    )


class TestHorizonRule:
    def test_frequency_table(self):
        assert horizon_for_frequency("1h") == 24
        assert horizon_for_frequency("15min") == 96
        assert horizon_for_frequency("10min") == 144
        assert horizon_for_frequency("30min") == 48
        assert horizon_for_frequency("1d") == 1

    def test_unparseable_or_uneven(self):
        with pytest.raises(TsnormError):
            horizon_for_frequency("fortnight")
        with pytest.raises(TsnormError):
            horizon_for_frequency("7min")


class TestPlan:
    def test_withheld_must_be_in_corpus(self):
        datasets = small_corpus()
        with pytest.raises(MissingDatasetError):
            small_plan(datasets, withheld=("nope",))

    def test_variant_matrix(self):
        datasets = small_corpus()
        plan = small_plan(datasets, schemes=tuple(Scheme), withheld=("synth0",))
        assert len(plan.variants()) == 7

    def test_validate_against_reports_problems(self):
        datasets = small_corpus()
        plan = small_plan(datasets)
        assert plan.validate_against(datasets) == []
        long_plan = ExperimentPlan.from_datasets(
            list(datasets.values()), schemes=(Scheme.RAW,), model_kinds=(LossKind.MSE,),
            context_len=470, withheld=("synth0",), steps=1, lr=0.1, seed=0,
        )
        problems = long_plan.validate_against(datasets)
        assert problems and any("test rows" in p for p in problems)

    def test_integer_fields_take_python_and_numpy_ints(self):
        datasets = small_corpus()
        plan = small_plan(datasets, steps=np.int64(5), seed=np.int32(3))
        assert type(plan.steps) is int and plan.steps == 5
        assert type(plan.seed) is int and plan.seed == 3

    def test_horizons_take_python_and_numpy_ints(self):
        datasets = small_corpus()
        plan = ExperimentPlan.from_datasets(
            list(datasets.values()), schemes=(Scheme.RAW,), model_kinds=(LossKind.MSE,),
            context_len=48, withheld=("synth0",), steps=1, lr=0.1, seed=0,
            horizon_overrides={"synth0": np.int64(12), "synth1": 6},
        )
        assert plan.horizons == {"synth0": 12, "synth1": 6, "synth2": 24}
        assert all(type(h) is int for h in plan.horizons.values())

    @pytest.mark.parametrize("horizon", [2.5, 0, -3, True, np.float64(4), "24"])
    def test_horizons_checked(self, horizon):
        datasets = small_corpus()
        with pytest.raises(TsnormError, match="horizons"):
            ExperimentPlan.from_datasets(
                list(datasets.values()), schemes=(Scheme.RAW,), model_kinds=(LossKind.MSE,),
                context_len=48, withheld=("synth0",), steps=1, lr=0.1, seed=0,
                horizon_overrides={"synth1": horizon},
            )

    @pytest.mark.parametrize("lr", [0.0, -1e-4, -0.0])
    def test_lr_must_be_positive(self, lr):
        datasets = small_corpus()
        with pytest.raises(TsnormError, match="lr must be positive"):
            ExperimentPlan.from_datasets(
                list(datasets.values()), schemes=(Scheme.RAW,), model_kinds=(LossKind.MSE,),
                context_len=48, withheld=("synth0",), steps=1, lr=lr, seed=0,
            )

    @pytest.mark.parametrize("field, value", [
        ("context_len", 48.0), ("steps", True), ("seed", "3"), ("naive_lag", np.float64(2)),
        ("instances_per_dataset", np.bool_(True)), ("lr", float("nan")), ("lr", False),
        ("lr", "1e-4"),
    ])
    def test_field_types_checked(self, field, value):
        datasets = small_corpus()
        fields = dict(schemes=(Scheme.RAW,), model_kinds=(LossKind.MSE,), context_len=48,
                      withheld=("synth0",), steps=1, lr=0.1, seed=0)
        fields[field] = value
        with pytest.raises(TsnormError, match=field):
            ExperimentPlan.from_datasets(list(datasets.values()), **fields)

    def test_variant_seed_stable_and_distinct(self):
        a = variant_seed(7, LossKind.MSE, Scheme.REVIN, "x")
        assert a == variant_seed(7, LossKind.MSE, Scheme.REVIN, "x")
        assert a != variant_seed(7, LossKind.MSE, Scheme.RAW, "x")
        assert a != variant_seed(8, LossKind.MSE, Scheme.REVIN, "x")


class TestEvaluate:
    def test_non_overlapping_stride(self, tiny_dataset):
        model = LinearForecaster.create(LossKind.MSE, 48, 24, init_scale=0.0)
        scores = evaluate(model, Scheme.REVIN, tiny_dataset, 48, 24)
        offsets = [o for o, _ in scores]
        assert offsets == [0]  # 80 test rows fit exactly one 48+24 window

    def test_offsets_advance_by_horizon(self):
        datasets = small_corpus()
        d = datasets["synth0"]
        model = LinearForecaster.create(LossKind.MSE, 48, 24, init_scale=0.0)
        scores = evaluate(model, Scheme.REVIN, d, 48, 24)
        assert [o for o, _ in scores] == [0, 24, 48]

    def test_insufficient_test_data(self, tiny_dataset):
        model = LinearForecaster.create(LossKind.MSE, 96, 24, init_scale=0.0)
        with pytest.raises(InsufficientTestDataError):
            evaluate(model, Scheme.REVIN, tiny_dataset, 96, 24)

    def test_minmax_substitutes_context_stats(self):
        # a zero model forecasts 0 in normalized space, so the de-normalized
        # prediction must equal the context minimum under test-time MinMax
        datasets = small_corpus()
        d = datasets["synth1"]
        model = LinearForecaster.create(LossKind.MSE, 48, 24, init_scale=0.0)
        (first, *_rest) = evaluate(model, Scheme.MINMAX, d, 48, 24)
        ctx = d.test_values[:48]
        actual = d.test_values[48:72]
        pred = np.tile(ctx.min(axis=0), (24, 1))
        expected = mase(pred, actual, naive_mae(ctx, d.seasonal_period))
        assert abs(first[1] - expected) <= 1e-12

    def test_raw_scheme_scores_directly(self):
        datasets = small_corpus()
        d = datasets["synth1"]
        model = LinearForecaster.create(LossKind.MSE, 48, 24, init_scale=0.0)
        (first, *_rest) = evaluate(model, Scheme.RAW, d, 48, 24)
        ctx = d.test_values[:48]
        actual = d.test_values[48:72]
        expected = mase(np.zeros((24, 2)), actual, naive_mae(ctx, d.seasonal_period))
        assert abs(first[1] - expected) <= 1e-12

    def test_hybrid_and_revin_paths_identical(self):
        datasets = small_corpus()
        d = datasets["synth1"]
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 48, 24, seed=5)
        a = evaluate(model, Scheme.HYBRID, d, 48, 24)
        b = evaluate(model, Scheme.REVIN, d, 48, 24)
        assert a == b

    def test_model_horizon_truncated_to_dataset_horizon(self):
        datasets = small_corpus()
        d = datasets["synth1"]
        model = LinearForecaster.create(LossKind.MSE, 48, 36, init_scale=0.0)
        scores = evaluate(model, Scheme.REVIN, d, 48, 24)
        assert len(scores) == 3


def _reference_evaluate(model, scheme, dataset, context_len, horizon, naive_lag=None):
    """The window-by-window evaluation that block-wise evaluation replaced."""
    test = dataset.test_values
    window = context_len + horizon
    lag = naive_lag or dataset.seasonal_period
    scores = []
    for offset in range(0, test.shape[0] - window + 1, horizon):
        ctx = test[offset : offset + context_len]
        actual = test[offset + context_len : offset + window]
        stats = fit_inference_stats(ctx, scheme.inference_method)
        f = forecast(model, normalize(ctx, stats))
        if f.kind is ForecastKind.POINT:
            pred = denormalize(f.point[:horizon], stats)
        elif f.kind is ForecastKind.GAUSSIAN:
            pred = (f.gauss_mean * stats.scale + stats.shift)[:horizon]
        else:
            pred = denormalize(token_point_forecast(f)[:horizon], stats)
        scores.append((offset, mase(pred, actual, naive_mae(ctx, lag))))
    return scores


class TestEvaluateMatchesReference:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_bitwise_equal_scores(self, kind, scheme, channels):
        rng = np.random.default_rng(81)
        values = np.cumsum(rng.normal(0.0, 1.0, (1500, channels)), axis=0)
        values *= 10.0 ** rng.uniform(-3, 3, channels)
        values[900:960, 0] = 4.0  # constant contexts: the eps guards
        d = Dataset(name="d", values=values, frequency="1h", seasonal_period=24,
                    split_index=450)
        model = LinearForecaster.create(kind, 37, 5, seed=6, init_scale=0.05)
        if kind is LossKind.GAUSSIAN_NLL:
            model.sigma_weights = rng.normal(0.0, 0.01, model.sigma_weights.shape)
        # 337 windows of horizon 3: more than one block of windows
        got = evaluate(model, scheme, d, 37, 3)
        want = _reference_evaluate(model, scheme, d, 37, 3)
        assert len(got) == 337
        assert [o for o, _ in got] == [o for o, _ in want]
        assert np.array([m for _, m in got]).tobytes() == np.array([m for _, m in want]).tobytes()


class TestRunVariant:
    def test_zs_and_id_row_sets(self):
        datasets = small_corpus()
        plan = small_plan(datasets)
        _, _, rows = run_variant(plan, datasets, Scheme.REVIN, LossKind.MSE, "synth2")
        zs = [e for e in rows if e.setting is Setting.ZS]
        id_ = [e for e in rows if e.setting is Setting.ID]
        assert [e.dataset for e in zs] == ["synth2"]
        assert sorted(e.dataset for e in id_) == ["synth0", "synth1"]
        assert all(e.withheld == "synth2" for e in rows)

    def test_leakage_audit_clean(self):
        datasets = small_corpus()
        plan = small_plan(datasets)
        audit = AccessLog()
        run_variant(plan, datasets, Scheme.STANDARDIZATION, LossKind.MSE,
                    "synth2", audit)
        audit.verify(datasets)
        kinds = {k for _, k, *_ in audit.events}
        assert kinds == {"fit_stats", "sample", "evaluate"}
        # the withheld dataset is only ever touched by evaluation
        touched = {(k, n) for _, k, n, *_ in audit.events if n == "synth2"}
        assert touched == {("evaluate", "synth2")}

    def test_one_evaluate_event_per_dataset_spans_every_window(self):
        datasets = small_corpus()
        plan = small_plan(datasets)
        audit = AccessLog()
        run_variant(plan, datasets, Scheme.REVIN, LossKind.MSE, "synth2", audit)
        events = [e for e in audit.events if e[1] == "evaluate"]
        assert sorted(n for _, _, n, _, _ in events) == ["synth0", "synth1", "synth2"]
        for variant, _, name, lo, hi in events:
            d, h = datasets[name], plan.horizons[name]
            window = plan.context_len + h
            n = (d.length - d.split_index - window) // h + 1  # windows at 0, H, 2H, ...
            assert n > 1
            assert variant == "point_mse|revin|synth2"
            assert (lo, hi) == (d.split_index, d.split_index + (n - 1) * h + window)
        audit.verify(datasets)

    def test_one_sample_event_per_dataset_still_catches_one_bad_draw(self, monkeypatch):
        datasets = small_corpus()
        plan = small_plan(datasets)
        audit = AccessLog()
        run_variant(plan, datasets, Scheme.RAW, LossKind.MSE, "synth2", audit)
        assert sorted(n for _, k, n, *_ in audit.events if k == "sample") == ["synth0", "synth1"]
        audit.verify(datasets)

        sample_instances = harness.sample_instances
        window = plan.context_len + plan.train_horizon

        def one_draw_crosses_the_split(d, context_len, horizon, count, seed, stats=None):
            drawn = sample_instances(d, context_len, horizon, count, seed, stats)
            if d.name == "synth1":
                starts = drawn.starts.copy()
                starts[7] = d.split_index - window + 1  # its last row is the first test row
                drawn = InstanceBatch([(d, starts, stats)], context_len, horizon)
                assert drawn[7].origin == (d.name, d.split_index - window + 1)
            return drawn

        monkeypatch.setattr(harness, "sample_instances", one_draw_crosses_the_split)
        audit = AccessLog()
        run_variant(plan, datasets, Scheme.RAW, LossKind.MSE, "synth2", audit)
        with pytest.raises(LeakageError, match="synth1"):
            audit.verify(datasets)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_fit_stats_events_cover_each_training_datasets_train_rows(self, scheme):
        datasets = small_corpus()
        plan = small_plan(datasets, steps=5)
        audit = AccessLog()
        run_variant(plan, datasets, scheme, LossKind.MSE, "synth2", audit)
        fits = [e for e in audit.events if e[1] == "fit_stats"]
        key = f"point_mse|{scheme.value}|synth2"
        want = [(key, "fit_stats", n, 0, datasets[n].split_index) for n in ("synth0", "synth1")]
        assert fits == (want if scheme.dataset_method is not None else [])
        audit.verify(datasets)

    @pytest.mark.parametrize("scheme", [Scheme.HYBRID, Scheme.STANDARDIZATION, Scheme.MINMAX])
    def test_overflowing_train_rows_raise_before_training(self, scheme, monkeypatch):
        datasets = small_corpus()
        split = datasets["synth1"].split_index
        t = np.arange(datasets["synth1"].length)
        huge = 1.5e308 * np.column_stack([np.sin(2 * np.pi * t / 24), np.cos(2 * np.pi * t / 24)])
        datasets["synth1"] = Dataset("synth1", huge, "1h", 24, split)
        plan = small_plan(datasets, schemes=(scheme,))
        monkeypatch.setattr(harness, "train", lambda *a, **k: pytest.fail("training started"))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            run_variant(plan, datasets, scheme, LossKind.MSE, "synth2")

    @pytest.mark.parametrize("kind", [LossKind.MSE, LossKind.GAUSSIAN_NLL, LossKind.TOKEN_CE])
    @pytest.mark.parametrize("scheme", [s for s in Scheme if s.dataset_method is not None])
    def test_dataset_step_trains_as_on_normalized_copies(self, scheme, kind, monkeypatch):
        datasets = small_corpus()
        plan = small_plan(datasets, steps=60)
        got = run_variant(plan, datasets, scheme, kind, "synth2")
        sample_instances = harness.sample_instances

        def from_normalized_copy(d, context_len, horizon, count, seed, stats):
            # every row normalized first, test rows included, then sampled raw
            copy = Dataset(d.name, normalize(d.values, stats), d.frequency,
                           d.seasonal_period, d.split_index)
            return sample_instances(copy, context_len, horizon, count, seed)

        monkeypatch.setattr(harness, "sample_instances", from_normalized_copy)
        want = run_variant(plan, datasets, scheme, kind, "synth2")
        assert got[2] == want[2]
        assert got[1].losses.tobytes() == want[1].losses.tobytes()
        for name in ("weights", "bias", "sigma_weights", "sigma_bias",
                     "token_weights", "token_bias"):
            a, b = getattr(got[0], name), getattr(want[0], name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_leakage_detector_fires(self):
        datasets = small_corpus()
        audit = AccessLog()
        audit.record("point_mse|raw|synth2", "sample", "synth0", 400, 500)
        with pytest.raises(LeakageError):
            audit.verify(datasets)  # split at 480, sample reaches row 500
        audit = AccessLog()
        audit.record("point_mse|raw|synth2", "fit_stats", "synth2", 0, 480)
        with pytest.raises(LeakageError):
            audit.verify(datasets)


class TestAssembleReport:
    def test_singleton(self):
        entry = EvalEntry("m", "revin", "d", Setting.ZS, 1.5, "d")
        report = assemble_report([entry])
        mean, std = report.aggregates[("m", "revin", "zs")]
        assert mean == 1.5 and std == 0.0
        assert report.aggregates[("average", "revin", "zs")] == (1.5, 0.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            assemble_report([])

    def test_improvement_matrix_diagonal_and_sign(self):
        entries = [
            EvalEntry("m", "raw", "a", Setting.ZS, 9.38, "a"),
            EvalEntry("m", "revin", "a", Setting.ZS, 1.02, "a"),
        ]
        report = assemble_report(entries)
        assert report.improvements[("zs", "raw", "raw")] == 0.0
        assert report.improvements[("zs", "revin", "revin")] == 0.0
        delta = report.improvements[("zs", "raw", "revin")]
        assert abs(delta - 89.1) < 0.05
        assert report.improvements[("zs", "revin", "raw")] < 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        entries = [
            EvalEntry("m", s, d, setting, float(rng.uniform(0.5, 3.0)), w)
            for s in ("revin", "raw")
            for d, w in (("a", "a"), ("b", "b"))
            for setting in (Setting.ZS, Setting.ID)
        ]
        a = assemble_report(entries)
        b = assemble_report(list(reversed(entries)))
        assert a.aggregates == b.aggregates
        assert a.entries == b.entries

    def test_id_weights_datasets_equally_within_variant(self):
        entries = [
            EvalEntry("m", "revin", "a", Setting.ID, 1.0, "c"),
            EvalEntry("m", "revin", "b", Setting.ID, 3.0, "c"),
            EvalEntry("m", "revin", "a", Setting.ID, 5.0, "d"),
            EvalEntry("m", "revin", "b", Setting.ID, 5.0, "d"),
        ]
        report = assemble_report(entries)
        mean, std = report.aggregates[("m", "revin", "id")]
        assert mean == pytest.approx(3.5)  # variants average to 2.0 and 5.0
        assert std == pytest.approx(1.5)

    def test_average_row_is_unweighted_model_mean(self):
        entries = [
            EvalEntry("m1", "revin", "a", Setting.ZS, 1.0, "a"),
            EvalEntry("m2", "revin", "a", Setting.ZS, 3.0, "a"),
        ]
        report = assemble_report(entries)
        assert report.aggregates[("average", "revin", "zs")][0] == 2.0


def _collecting(handed):
    """An ``on_variant`` that records each key it is handed, in order."""
    def on_variant(key, trained, trace, rows):
        handed.append(key)
    return on_variant


class TestRunPlan:
    def test_full_small_plan(self):
        datasets = small_corpus()
        plan = small_plan(datasets)
        handed = []
        result = run_plan(plan, datasets, on_variant=_collecting(handed))
        assert handed == [harness.variant_key(*v) for v in plan.variants()]
        assert len(handed) == len(plan.variants()) == 4
        settings = {(e.method, e.setting.value) for e in result.report.entries}
        assert ("revin", "zs") in settings and ("raw", "id") in settings
        result.audit.verify(datasets)

    def test_result_keeps_no_model_or_trace(self):
        datasets = small_corpus()
        plan = small_plan(datasets, steps=20)
        refs = []

        def on_variant(key, trained, trace, rows):
            refs.extend((weakref.ref(trained), weakref.ref(trace)))

        result = run_plan(plan, datasets, on_variant=on_variant)
        gc.collect()
        assert len(refs) == 2 * len(plan.variants())
        assert all(ref() is None for ref in refs)
        assert result.report.entries

    def test_resume_equals_fresh(self):
        datasets = small_corpus()
        plan = small_plan(datasets)
        fresh_keys = []
        fresh = run_plan(plan, datasets, on_variant=_collecting(fresh_keys))
        key = fresh_keys[0]
        completed_rows = [e for e in fresh.report.entries
                          if f"{e.model_id}|{e.method}|{e.withheld}" == key]
        resumed_keys = []
        resumed = run_plan(plan, datasets, completed={key: completed_rows},
                           on_variant=_collecting(resumed_keys))
        assert resumed.report.entries == fresh.report.entries
        assert resumed.report.aggregates == fresh.report.aggregates
        assert resumed_keys == fresh_keys[1:]  # not re-trained

    def test_parallel_matches_serial(self):
        # every scheme, dataset steps included, with a point and a Gaussian head
        datasets = small_corpus()
        plan = small_plan(datasets, schemes=tuple(Scheme),
                          models=(LossKind.MSE, LossKind.GAUSSIAN_NLL), steps=40)
        runs = []
        for jobs in (1, 2):
            handed = []

            def on_variant(key, trained, trace, rows):
                handed.append((key, trained.weights.tobytes(), trace.losses.tobytes()))

            runs.append((run_plan(plan, datasets, jobs=jobs, on_variant=on_variant), handed))
        (serial, serial_handed), (parallel, parallel_handed) = runs
        assert len(serial_handed) == len(plan.variants()) == 28
        assert serial_handed == parallel_handed
        assert serial.report.entries == parallel.report.entries
        assert serial.audit.events == parallel.audit.events


def _big_corpus():
    """Three datasets of 4 x 12,000 float64 values: more than 1 MB pickled."""
    spec = SyntheticSpec(
        n_datasets=3, channels=4, length=12000, scale_exponents=(1.0, 0.0, -1.5),
        level_shifts=1, seed=5, seasonal_period=24, split_fraction=0.8,
    )
    return {d.name: d for d in generate_synthetic(spec)}


_RUN_VARIANT_WORKER = harness._run_variant_worker


def _worker_dying_at_synth2(args):
    """A variant worker whose process dies without a word at withheld synth2."""
    if args[4] == "synth2":
        os._exit(9)
    return _RUN_VARIANT_WORKER(args)


@pytest.fixture
def recording_pool(monkeypatch, tmp_path):
    """``harness.ProcessPoolExecutor`` replaced by a real pool that records the
    pickled size of each task and what the temporary directory, pointed at
    ``tmp``, holds as the pool starts.  Returns (tmp, pools made)."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self._pool = ProcessPoolExecutor(max_workers=max_workers)
            self.files = sorted(p.relative_to(tmp).parts[1:] for p in tmp.rglob("*"))
            self.task_bytes = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._pool.shutdown(wait=True)
            return False

        def map(self, fn, iterable):
            tasks = list(iterable)
            self.task_bytes = [len(pickle.dumps(task)) for task in tasks]
            return self._pool.map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return tmp, pools


class TestCorpusByReference:
    def test_tasks_carry_the_corpus_by_reference(self, recording_pool):
        tmp, pools = recording_pool
        datasets = _big_corpus()
        assert len(pickle.dumps(datasets)) > 1_000_000
        plan = small_plan(datasets, schemes=(Scheme.STANDARDIZATION, Scheme.REVIN), steps=40)
        parallel = run_plan(plan, datasets, jobs=2)
        (pool,) = pools
        assert pool.files == [(), ("corpus.pickle",)]  # one directory, one file
        assert len(pool.task_bytes) == len(plan.variants()) == 4
        assert max(pool.task_bytes) < 64_000
        assert list(tmp.iterdir()) == []
        serial = run_plan(plan, datasets, jobs=1)
        assert len(pools) == 1  # a serial run starts no pool and writes no file
        assert serial.report.entries == parallel.report.entries

    def test_directory_removed_when_a_variant_diverges(self, recording_pool):
        tmp, pools = recording_pool
        datasets = small_corpus()
        plan = dataclasses.replace(small_plan(datasets, schemes=(Scheme.RAW,)), lr=100.0)
        with pytest.raises(DivergedError):
            run_plan(plan, datasets, jobs=2)
        assert pools[0].files == [(), ("corpus.pickle",)]
        assert list(tmp.iterdir()) == []

    def test_directory_removed_when_a_worker_dies(self, recording_pool, monkeypatch):
        tmp, pools = recording_pool
        datasets = small_corpus()
        plan = small_plan(datasets, schemes=(Scheme.RAW,), withheld=("synth0", "synth1", "synth2"))
        monkeypatch.setattr(harness, "_run_variant_worker", _worker_dying_at_synth2)
        with pytest.raises(BrokenProcessPool):
            run_plan(plan, datasets, jobs=2)
        assert pools[0].files == [(), ("corpus.pickle",)]
        assert list(tmp.iterdir()) == []

    def test_loads_once_per_process_and_pickles_as_its_path(self, tmp_path, monkeypatch):
        harness._load_corpus.cache_clear()
        datasets = small_corpus()
        corpus = harness._CorpusFile.write(datasets, str(tmp_path))
        loads = []
        load = pickle.load
        monkeypatch.setattr(pickle, "load", lambda fh: loads.append(fh.name) or load(fh))
        task = pickle.loads(pickle.dumps(corpus))
        assert loads == []  # unpickling reads nothing
        assert list(task) == list(datasets) and len(task) == 3
        for name, d in datasets.items():
            got = task[name]
            assert got.values.tobytes() == d.values.tobytes()
            assert (got.name, got.frequency, got.seasonal_period, got.split_index) == (
                d.name, d.frequency, d.seasonal_period, d.split_index)
        again = pickle.loads(pickle.dumps(task))  # loaded, it still pickles as its path
        assert len(pickle.dumps(task)) == len(pickle.dumps(corpus)) < 1_000
        assert again["synth1"] is task["synth1"]
        assert loads == [corpus.path]
        harness._load_corpus.cache_clear()
