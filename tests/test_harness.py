import dataclasses
import gc
import itertools
import multiprocessing
import os
import json
import pickle
import subprocess
import sys
import tempfile
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
    export_csv,
    fit_inference_stats,
    forecast,
    generate_synthetic,
    horizon_for_frequency,
    naive_mae,
    mase,
    normalize,
    run_plan,
    run_variant,
    sample_instances,
    train,
)
from tsnorm.cli import main
from tsnorm.core import EvalReport, Method, NonFiniteError, TsnormError
from tsnorm.data import MAX_SYNTHETIC_VALUES, InstanceBatch
from tsnorm.harness import (
    AVERAGE_ID,
    AccessLog,
    InsufficientTestDataError,
    EmptyInputError,
    LeakageError,
    MissingDatasetError,
    NonFiniteScoreError,
    variant_seed,
)
from tsnorm.metrics import improvement
from tsnorm.models import DivergedError, token_point_forecast
from tsnorm.norm import StatsOverflowError

from conftest import traced_peak


def small_corpus(seed=13):
    spec = SyntheticSpec(
        n_datasets=3, channels=2, length=600, scale_exponents=(1.0, 0.0, -1.5),
        level_shifts=1, seed=seed, seasonal_period=24, split_fraction=0.8,
    )
    return {d.name: d for d in generate_synthetic(spec)}


def small_plan(datasets, schemes=(Scheme.REVIN, Scheme.RAW), models=(LossKind.MSE,),
               withheld=("synth0", "synth2"), steps=120, seed=3):
    return ExperimentPlan(
        corpus=list(datasets),
        schemes=schemes,
        model_kinds=models,
        withheld=withheld,
        horizons={n: horizon_for_frequency(d.frequency) for n, d in datasets.items()},
        context_len=48,
        steps=steps,
        lr=1e-4,
        seed=seed,
        instances_per_dataset=32,
    )


def raw_plan(datasets, **patch):
    """A one-variant plan object read by ``ExperimentPlan.from_dict``."""
    raw = dict(schemes=["raw"], models=["point_mse"], withheld=["synth0"], context_len=48,
               steps=1, lr=0.1, seed=0)
    return ExperimentPlan.from_dict(raw | patch, list(datasets.values()))


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
        long_plan = raw_plan(datasets, context_len=470)
        problems = long_plan.validate_against(datasets)
        assert problems and any("test rows" in p for p in problems)

    @pytest.mark.parametrize("field", ["steps", "instances_per_dataset"])
    def test_array_sizes_are_bounded(self, field):
        datasets = small_corpus()
        assert getattr(raw_plan(datasets, **{field: MAX_SYNTHETIC_VALUES}),
                       field) == MAX_SYNTHETIC_VALUES
        for value in (MAX_SYNTHETIC_VALUES + 1, 10**20):
            with pytest.raises(TsnormError, match=f"{field} must be at most"):
                raw_plan(datasets, **{field: value})

    def test_integer_fields_take_python_and_numpy_ints(self):
        datasets = small_corpus()
        plan = small_plan(datasets, steps=np.int64(5), seed=np.int32(3))
        assert type(plan.steps) is int and plan.steps == 5
        assert type(plan.seed) is int and plan.seed == 3

    def test_horizons_take_python_and_numpy_ints(self):
        datasets = small_corpus()
        plan = raw_plan(datasets, horizon_overrides={"synth0": np.int64(12), "synth1": 6})
        assert plan.horizons == {"synth0": 12, "synth1": 6, "synth2": 24}
        assert all(type(h) is int for h in plan.horizons.values())

    def test_overrides_skip_the_frequency_rule(self):
        spec = SyntheticSpec(n_datasets=2, length=600, seed=5, frequency="7min")
        datasets = {d.name: d for d in generate_synthetic(spec)}
        plan = raw_plan(datasets, horizon_overrides={"synth0": 24, "synth1": 24})
        assert plan.horizons == {"synth0": 24, "synth1": 24}
        with pytest.raises(TsnormError, match="does not divide a 24h span"):
            raw_plan(datasets, horizon_overrides={"synth0": 24})

    @pytest.mark.parametrize("horizon", [2.5, 0, -3, True, np.float64(4), "24"])
    def test_horizons_checked(self, horizon):
        datasets = small_corpus()
        with pytest.raises(TsnormError, match="horizons"):
            raw_plan(datasets, horizon_overrides={"synth1": horizon})

    @pytest.mark.parametrize("lr", [0.0, -1e-4, -0.0])
    def test_lr_must_be_positive(self, lr):
        datasets = small_corpus()
        with pytest.raises(TsnormError, match="lr must be positive"):
            raw_plan(datasets, lr=lr)

    @pytest.mark.parametrize("field, value", [
        ("context_len", 48.0), ("steps", True), ("seed", "3"), ("naive_lag", np.float64(2)),
        ("instances_per_dataset", np.bool_(True)), ("lr", float("nan")), ("lr", False),
        ("lr", "1e-4"),
    ])
    def test_field_types_checked(self, field, value):
        datasets = small_corpus()
        with pytest.raises(TsnormError, match=field):
            raw_plan(datasets, **{field: value})

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

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "the bound rests on CPython 3.11 and later handing call arguments to the callee; "
        "an older caller's frame keeps the untrained model alive through train"))
    def test_a_token_variant_holds_its_weights_at_most_twice(self):
        datasets = small_corpus()
        plan = dataclasses.replace(small_plan(datasets, models=(LossKind.TOKEN_CE,)),
                                   context_len=96, steps=20)
        args = (plan, datasets, Scheme.REVIN, LossKind.TOKEN_CE, "synth2")
        run_variant(*args)  # the datasets' statistics, kept on them, and first-call imports
        (trained, _, _), peak = traced_peak(run_variant, *args)
        # the untrained model and train's copy of it; then the copy alone, as
        # it trains and is evaluated
        assert peak <= 2.3 * trained.token_weights.nbytes

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
                assert drawn.starts[7] == d.split_index - window + 1
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


# ``assemble_report`` in its per-cell scanning form, kept as the reference that
# the one-pass form must match bit for bit.
def _reference_assemble_report(rows) -> EvalReport:
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


def _random_rows(rng) -> list:
    """Leave-one-out rows over 1-4 models, 1-7 schemes and 2-5 datasets, some
    dropped or repeated, sometimes with an unknown method or a zero-MASE scheme,
    in shuffled order."""
    models = rng.choice(["point_mse", "gaussian_nll", "m", "zeta"], rng.integers(1, 5),
                        replace=False).tolist()
    schemes = rng.choice([s.value for s in Scheme], rng.integers(1, 8), replace=False).tolist()
    if rng.random() < 0.1:
        schemes.append("mystery")
    datasets = [f"d{i}" for i in range(rng.integers(2, 6))]
    withheld = rng.choice(datasets, rng.integers(1, len(datasets) + 1), replace=False).tolist()
    zero = schemes[rng.integers(len(schemes))] if rng.random() < 0.1 else None
    rows = []
    for model, method, w in itertools.product(models, schemes, withheld):
        for d in datasets:
            if rng.random() < 0.1:
                continue
            for _ in range(2 if rng.random() < 0.02 else 1):
                mase = 0.0 if method == zero else float(np.exp(rng.normal(0.0, 1.0)))
                setting = Setting.ZS if d == w else Setting.ID
                rows.append(EvalEntry(model, method, d, setting, mase, w))
    return [rows[i] for i in rng.permutation(len(rows))]


def _outcome(assemble, rows):
    """Everything ``assemble(rows)`` returns, floats as their hex form, or the
    error it raises."""
    try:
        report = assemble(rows)
    except TsnormError as exc:
        return type(exc), str(exc)

    def hexed(values):
        assert all(type(v) is float for v in values)
        return tuple(v.hex() for v in values)

    return (
        [(e.model_id, e.method, e.dataset, e.setting, e.mase.hex(), e.withheld)
         for e in report.entries],
        {k: hexed(v) for k, v in report.aggregates.items()},
        {k: hexed([v]) for k, v in report.improvements.items()},
    )


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

    def test_matches_the_reference_bitwise(self):
        rng = np.random.default_rng(15)
        outcomes = []
        for i in range(300):
            rows = _random_rows(rng)
            expected = _outcome(_reference_assemble_report, rows)
            assert _outcome(assemble_report, rows) == expected, f"row set {i}"
            outcomes.append(expected)
        raised = sum(isinstance(o[0], type) for o in outcomes)
        assert 0 < raised < 60  # the zero-MASE cases raise, the rest aggregate

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
    pickled size of each task, the workers asked for and what the temporary
    directory, pointed at ``tmp``, holds as the pool starts.  Returns (tmp,
    pools made)."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self._pool = ProcessPoolExecutor(max_workers=max_workers)
            self.max_workers = max_workers
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


@pytest.fixture
def no_held_corpus(monkeypatch):
    """This process starts with no corpus held, like a spawned worker; the
    corpus a test loads is let go when it ends."""
    monkeypatch.setattr(harness, "_corpus", None)


def _pool_starting_workers_by(monkeypatch, method: str):
    """``harness.ProcessPoolExecutor`` replaced by a pool whose workers start by ``method``."""
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda max_workers: ProcessPoolExecutor(
        max_workers=max_workers, mp_context=context))


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

    def test_a_pool_starts_at_most_one_worker_per_pending_variant(self, recording_pool):
        # fork starts every worker up front; small counts only, each is a process
        _, pools = recording_pool
        datasets = small_corpus()
        plan = small_plan(datasets, schemes=(Scheme.RAW,), steps=5)
        run_plan(plan, datasets, jobs=4)
        assert len(plan.variants()) == 2 and [p.max_workers for p in pools] == [2]
        three = small_plan(datasets, schemes=(Scheme.RAW,),
                           withheld=("synth0", "synth1", "synth2"), steps=5)
        done = {}
        serial = run_plan(three, datasets,
                          on_variant=lambda key, model, trace, rows: done.update({key: rows}))
        first = harness.variant_key(LossKind.MSE, Scheme.RAW, "synth0")
        resumed = run_plan(three, datasets, jobs=4, completed={first: done[first]})
        assert [p.max_workers for p in pools] == [2, 2]
        assert resumed.report.entries == serial.report.entries

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

    @staticmethod
    def _corpus_file(datasets, tmp_path) -> str:
        path = str(tmp_path / "corpus.pickle")
        with open(path, "wb") as fh:
            pickle.dump(datasets, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    def test_a_path_task_gives_the_rows_of_a_dataset_task(self, tmp_path, no_held_corpus):
        datasets = small_corpus()
        path = self._corpus_file(datasets, tmp_path)
        plan = small_plan(datasets, steps=40)
        for mk, sc, wh in plan.variants():
            key, _, _, rows, audit = harness._run_variant_worker((plan, path, sc, mk, wh))
            want_key, _, _, want_rows, want_audit = harness._run_variant_worker(
                (plan, datasets, sc, mk, wh))
            assert key == want_key
            assert rows == want_rows
            assert audit.events == want_audit.events

    def test_two_path_tasks_load_the_file_once(self, tmp_path, monkeypatch, no_held_corpus):
        datasets = small_corpus()
        path = self._corpus_file(datasets, tmp_path)
        loads = []
        load = pickle.load
        monkeypatch.setattr(pickle, "load", lambda fh: loads.append(fh.name) or load(fh))
        plan = small_plan(datasets, steps=40)
        for mk, sc, wh in plan.variants()[:2]:
            harness._run_variant_worker((plan, path, sc, mk, wh))
        assert loads == [path]

    def test_a_forked_worker_reads_no_corpus_file(self, monkeypatch):
        _pool_starting_workers_by(monkeypatch, "fork")

        def refuse(fh):  # forked workers inherit the patch
            raise AssertionError(f"{os.getpid()} unpickled {fh.name}")

        monkeypatch.setattr(pickle, "load", refuse)
        plan = small_plan(small_corpus(), schemes=(Scheme.STANDARDIZATION, Scheme.REVIN), steps=40)
        parallel = run_plan(plan, small_corpus(), jobs=2)
        serial = run_plan(plan, small_corpus())
        assert parallel.report.entries == serial.report.entries
        assert parallel.audit.events == serial.audit.events

    def test_a_spawned_worker_loads_the_corpus_file(self, monkeypatch):
        _pool_starting_workers_by(monkeypatch, "spawn")
        plan = small_plan(small_corpus(), schemes=(Scheme.STANDARDIZATION, Scheme.REVIN), steps=40)
        parallel = run_plan(plan, small_corpus(), jobs=2)
        serial = run_plan(plan, small_corpus())
        assert parallel.report.entries == serial.report.entries
        assert parallel.audit.events == serial.audit.events

    @pytest.mark.parametrize("lr", [1e-4, 100.0], ids=["returns", "diverges"])
    def test_a_parallel_run_keeps_no_dataset_once_it_ends(self, lr):
        datasets = small_corpus()
        plan = dataclasses.replace(small_plan(datasets, schemes=(Scheme.RAW,)), lr=lr)
        refs = [weakref.ref(d) for d in datasets.values()]
        try:
            diverged = run_plan(plan, datasets, jobs=2) is None
        except DivergedError:
            diverged = True
        assert diverged == (lr == 100.0)
        del datasets
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]


ROOT = Path(__file__).resolve().parent.parent


def _rescaled(datasets: dict, name: str, factor: float) -> dict:
    """``datasets`` with ``name``'s values times ``factor``, under the same name."""
    d = datasets[name]
    return dict(datasets, **{name: Dataset(name, d.values * factor, d.frequency,
                                           d.seasonal_period, d.split_index)})


def _csv_plan_file(root: Path, datasets: dict) -> Path:
    """A plan file over ``datasets`` exported as CSV under ``root``."""
    root.mkdir()
    entries = []
    for d in datasets.values():
        export_csv(d, root / f"{d.name}.csv")
        entries.append({"name": d.name, "path": str(root / f"{d.name}.csv"),
                        "frequency": d.frequency, "seasonal_period": d.seasonal_period,
                        "split_index": d.split_index})
    plan = {"seed": 3, "context_len": 48, "steps": 40, "lr": 1e-4, "instances_per_dataset": 16,
            "schemes": ["revin", "standardization"], "models": ["point_mse"],
            "withheld": ["synth0", "synth2"], "datasets": entries}
    path = root / "plan.json"
    path.write_text(json.dumps(plan))
    return path


class TestStatisticsMemo:
    """Dataset and window statistics are fitted once per corpus, kept on the
    Dataset object, and live no longer than the dataset."""

    def test_fits_each_dataset_and_method_once_per_run(self, monkeypatch):
        datasets = small_corpus()
        schemes = (Scheme.HYBRID, Scheme.STANDARDIZATION, Scheme.MINMAX, Scheme.REVIN)
        plan = small_plan(datasets, schemes=schemes, withheld=tuple(datasets), steps=5)
        fits = {"dataset": [], "window": []}
        fit_dataset_stats, fit_windows = harness.fit_dataset_stats, harness.fit_inference_stats
        monkeypatch.setattr(harness, "fit_dataset_stats", lambda d, m: (
            fits["dataset"].append((d.name, m.value)) or fit_dataset_stats(d, m)))
        monkeypatch.setattr(harness, "fit_inference_stats", lambda c, m: (
            fits["window"].append(m.value) or fit_windows(c, m)))
        result = run_plan(plan, datasets)
        # hybrid and standardization share the standardization dataset step
        assert sorted(fits["dataset"]) == sorted(
            (n, m) for n in datasets for m in ("standardization", "minmax"))
        # one block of windows per dataset and inference method: revin (hybrid
        # and revin), standardization and minmax
        assert sorted(fits["window"]) == sorted(3 * ["revin", "standardization", "minmax"])
        events = [e for e in result.audit.events if e[1] in ("fit_stats", "evaluate")]
        assert len(events) == 12 * 3 + 9 * 2  # every variant still records its accesses

    def test_a_parallel_run_fits_the_dataset_step_once_in_the_parent(self, tmp_path,
                                                                     monkeypatch):
        datasets = small_corpus()
        schemes = (Scheme.HYBRID, Scheme.STANDARDIZATION, Scheme.MINMAX, Scheme.REVIN)
        plan = small_plan(datasets, schemes=schemes, withheld=tuple(datasets), steps=5)
        log = tmp_path / "fits"
        fit_dataset_stats = harness.fit_dataset_stats

        def logged(d, m):  # forked workers inherit the patch and append to the log
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {d.name} {m.value}\n")
            return fit_dataset_stats(d, m)

        monkeypatch.setattr(harness, "fit_dataset_stats", logged)
        fits = {}
        for jobs in (1, 2):
            log.write_text("")
            run_plan(plan, small_corpus(), jobs=jobs)
            lines = [line.split() for line in log.read_text().splitlines()]
            assert {int(pid) for pid, _, _ in lines} == {os.getpid()}
            fits[jobs] = sorted((name, method) for _, name, method in lines)
        assert fits[1] == fits[2] == sorted(
            (n, m) for n in datasets for m in ("standardization", "minmax"))

    def test_two_corpora_with_the_same_names_match_fresh_processes(self, tmp_path):
        datasets = small_corpus()
        plans = [_csv_plan_file(tmp_path / "original", datasets),
                 _csv_plan_file(tmp_path / "rescaled", _rescaled(datasets, "synth1", 3.0))]
        # back to back in this process, serially
        for plan in plans:
            assert main(["run", "--plan", str(plan), "--out", str(plan.parent / "out")]) == 0
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        reports = []
        for plan in plans:
            fresh = plan.parent / "fresh"
            subprocess.run([sys.executable, "-m", "tsnorm", "run", "--plan", str(plan),
                            "--out", str(fresh)], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=300)
            report = (plan.parent / "out" / "report.json").read_bytes()
            assert report == (fresh / "report.json").read_bytes()
            reports.append(report)
        assert reports[0] != reports[1]

    def test_a_run_keeps_no_dataset_once_it_returns(self):
        datasets = small_corpus()
        refs = [weakref.ref(d) for d in datasets.values()]
        result = run_plan(small_plan(datasets, schemes=(Scheme.HYBRID,), steps=5), datasets)
        # hybrid's dataset step, kept on each dataset
        refs += [weakref.ref(d._fits[(Method.STANDARDIZATION,)]) for d in datasets.values()]
        del datasets
        gc.collect()
        assert [ref() for ref in refs] == 6 * [None]  # each fit went with its dataset
        assert result.report.entries

    def test_direct_evaluate_gives_the_reference_bits(self):
        datasets = small_corpus()
        model = LinearForecaster.create(LossKind.MSE, 48, 24, seed=6, init_scale=0.05)
        for corpus in (datasets, _rescaled(datasets, "synth1", 3.0), datasets):
            for scheme in (Scheme.REVIN, Scheme.MINMAX):
                got = evaluate(model, scheme, corpus["synth1"], 48, 24)
                want = _reference_evaluate(model, scheme, corpus["synth1"], 48, 24)
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_a_worker_fits_once_per_loaded_corpus(self, tmp_path, monkeypatch, no_held_corpus):
        datasets = small_corpus()
        path = str(tmp_path / "corpus.pickle")
        with open(path, "wb") as fh:
            pickle.dump(datasets, fh, protocol=pickle.HIGHEST_PROTOCOL)
        plan = small_plan(datasets, schemes=(Scheme.STANDARDIZATION,), steps=5)
        fits = []
        fit_dataset_stats = harness.fit_dataset_stats
        monkeypatch.setattr(harness, "fit_dataset_stats",
                            lambda d, m: fits.append(d.name) or fit_dataset_stats(d, m))
        for mk, sc, wh in plan.variants():  # withheld synth0, then synth2
            harness._run_variant_worker((plan, path, sc, mk, wh))
        assert sorted(fits) == ["synth0", "synth1", "synth2"]
        loaded = harness._load_corpus(path)
        assert all((Method.STANDARDIZATION,) in d._fits for d in loaded.values())
        # another corpus file evicts the first, and its fits go with its datasets
        other = str(tmp_path / "other.pickle")
        with open(other, "wb") as fh:
            pickle.dump(small_corpus(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        refs = [weakref.ref(d) for d in loaded.values()]
        del loaded
        harness._load_corpus(other)
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        for mk, sc, wh in plan.variants():
            harness._run_variant_worker((plan, other, sc, mk, wh))
        assert sorted(fits[3:]) == ["synth0", "synth1", "synth2"]


class TestStatisticsOverflow:
    @staticmethod
    def _huge(d: Dataset) -> Dataset:
        return Dataset(d.name, d.values * 1e200, d.frequency, d.seasonal_period, d.split_index)

    def test_window_fit_names_the_dataset_and_method_and_stores_nothing(self):
        d = self._huge(small_corpus()["synth2"])
        model = LinearForecaster.create(LossKind.MSE, 48, 24, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StatsOverflowError, match=(
                    "dataset 'synth2': revin statistics of its test-row contexts overflow")):
                evaluate(model, Scheme.REVIN, d, 48, 24)
        assert d._fits == {}

    def test_dataset_fit_names_the_dataset_and_method_and_stores_nothing(self):
        datasets = small_corpus()
        datasets["synth1"] = self._huge(datasets["synth1"])
        plan = small_plan(datasets, schemes=(Scheme.STANDARDIZATION,), steps=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StatsOverflowError, match=(
                    "dataset 'synth1': standardization statistics of its train rows")):
                run_variant(plan, datasets, Scheme.STANDARDIZATION, LossKind.MSE, "synth2")
        # synth0 was fitted before synth1 failed; nothing of synth1 is kept
        assert [bool(datasets[n]._fits) for n in datasets] == [True, False, False]

    @pytest.mark.parametrize("kind, scheme", [
        (LossKind.MSE, Scheme.REVIN), (LossKind.MSE, Scheme.HYBRID),
        (LossKind.GAUSSIAN_NLL, Scheme.REVIN)], ids=["clip", "hybrid", "gaussian"])
    def test_training_window_fit_names_the_dataset_and_method(self, kind, scheme):
        # the clip decision, and the rows of a point and a Gaussian pool
        rng = np.random.default_rng(5)
        big = Dataset("big", rng.normal(500.0, 2.0, (400, 2)) * 1e200, "1h", 24, 320)
        model = LinearForecaster.create(kind, 32, 8, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StatsOverflowError, match=(
                    "dataset 'big': revin statistics of its training windows overflow")):
                train(model, sample_instances(big, 32, 8, 16, seed=0), scheme, 5, 1e-3, 0)

    def test_non_finite_scores_name_the_dataset_and_method(self):
        t = np.arange(600)
        huge = 1.5e308 * np.column_stack([np.sin(2 * np.pi * t / 24),
                                          np.cos(2 * np.pi * t / 24)])
        d = Dataset("huge", huge, "1h", 24, 480)
        model = LinearForecaster.create(LossKind.MSE, 48, 24, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScoreError, match=(
                    "dataset 'huge': maxabs MASE of its test windows is not finite")):
                evaluate(model, Scheme.MAXABS, d, 48, 24)
