"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The benchmark criteria share one full 7-scheme x 3-withheld x 2-model plan on
the seeded synthetic multi-scale corpus (42 training runs); it executes once
per session through the CLI and once in-process for the audit log, and the
two reports must match byte for byte.  That report and the ``token`` and
``wide`` benchmark workloads' must also hash to the sha256s the benchmark
records in ``perfbench/reference.json``, and each of the three ``--out``
trees, checkpoints, traces and variant files included, to a pinned digest.
Criterion 10 holds the whole plan-to-report path to the paper's claim: a
power-of-two rescale of one dataset leaves every normalizing scheme's report
rows and checkpoints bitwise equal, and raw, the negative control, moves.
"""

import hashlib
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tsnorm import (
    Dataset,
    ExperimentPlan,
    LinearForecaster,
    LossKind,
    Method,
    NormStats,
    Scheme,
    SyntheticSpec,
    TokenizerSpec,
    fit_dataset_stats,
    fit_inference_stats,
    generate_synthetic,
    loss_gaussian_nll,
    loss_mae,
    loss_mse,
    loss_token_ce,
    mase,
    naive_mae,
    normalize,
    denormalize,
    export_csv,
    raw_stats,
    sample_instances,
    train,
)
from tsnorm.cli import _report_to_json, _write_json, main
from tsnorm.core import Forecast, ForecastKind, Scope
from tsnorm.harness import AVERAGE_ID, run_plan
from tsnorm.models import build_rows, prepare_training_pool

from conftest import central_difference, window_batch
from test_metrics import brute_force_mase

BENCH_SYNTH = {
    "n_datasets": 4,
    "channels": 2,
    "length": 2400,
    "scale_exponents": [0.5, 0.0, -2.0, -3.0],
    "level_shifts": 2,
    "seed": 11,
    "seasonal_period": 24,
    "split_fraction": 0.8,
}

BENCH_PLAN = {
    "seed": 7,
    "context_len": 96,
    "steps": 5000,
    "lr": 6e-4,
    "instances_per_dataset": 256,
    "schemes": ["revin", "meanabs", "hybrid", "standardization", "minmax", "maxabs", "raw"],
    "models": ["point_mse", "gaussian_nll"],
    "withheld": ["synth0", "synth1", "synth2"],
    "synthetic": BENCH_SYNTH,
}

MEAN_STD_TRIO = ("revin", "hybrid", "standardization")


def ok(line: str) -> None:
    print(f"\n[PASS] {line}")


@pytest.fixture(scope="session")
def bench_run(tmp_path_factory):
    """Full benchmark executed through the CLI; returns (out dir, report, seconds)."""
    root = tmp_path_factory.mktemp("bench")
    plan_path = root / "plan.json"
    plan_path.write_text(json.dumps(BENCH_PLAN))
    out = root / "out"
    started = time.perf_counter()
    assert main(["run", "--plan", str(plan_path), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started
    report = json.loads((out / "report.json").read_text())
    return out, report, elapsed


@pytest.fixture(scope="session")
def bench_result():
    """The same benchmark in-process, for the audit log and the report."""
    datasets = {d.name: d for d in generate_synthetic(SyntheticSpec.from_dict(BENCH_SYNTH))}
    plan = ExperimentPlan.from_dict(BENCH_PLAN, list(datasets.values()))
    return datasets, plan, run_plan(plan, datasets)


def test_criterion_1_normalization_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_rel = 0.0
    for _ in range(1000):
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4.0), (64, 3))
        d = Dataset("x", x, "1h", 1, 63)
        stats_by_method = {
            Method.STANDARDIZATION: fit_dataset_stats(d, Method.STANDARDIZATION),
            Method.MINMAX: fit_dataset_stats(d, Method.MINMAX),
            Method.MAXABS: fit_dataset_stats(d, Method.MAXABS),
            Method.REVIN: fit_inference_stats(x, Method.REVIN),
            Method.MEANABS: fit_inference_stats(x, Method.MEANABS),
            Method.RAW: raw_stats(3),
        }
        for stats in stats_by_method.values():
            back = denormalize(normalize(x, stats), stats)
            worst_rel = max(worst_rel, float(np.abs((back - x) / x).max()))

        z = normalize(d.train_values, stats_by_method[Method.STANDARDIZATION])
        assert np.abs(z.mean(axis=0)).max() <= 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-9
        z = normalize(d.train_values, stats_by_method[Method.MINMAX])
        assert (z.min(axis=0) == 0.0).all() and (z.max(axis=0) == 1.0).all()
        z = normalize(d.train_values, stats_by_method[Method.MAXABS])
        assert (np.abs(z).max(axis=0) == 1.0).all()
        z = normalize(x, stats_by_method[Method.REVIN])
        assert np.abs(z.mean(axis=0)).max() <= 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-9
    elapsed = time.perf_counter() - started
    assert worst_rel <= 1e-9
    assert elapsed < 5.0
    ok(f"criterion 1: round-trip/moment suite on 1000 matrices, worst rel err "
       f"{worst_rel:.2e}, {elapsed:.2f}s < 5s")


def test_criterion_2_nll_scale_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    t = np.arange(40)
    base = np.column_stack([np.sin(2 * np.pi * t / 8) + 2.0,
                            np.cos(2 * np.pi * t / 8) - 1.0])
    base += rng.normal(0, 0.1, base.shape)
    model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 32, 8, seed=5)
    runs = {}
    for c in (1e-3, 1.0, 1e3):
        runs[c] = train(model, window_batch([c * base], 32), Scheme.REVIN, steps=25, lr=0.05,
                        seed=1)
    ref_model, ref_trace = runs[1.0]
    for c in (1e-3, 1e3):
        m, tr = runs[c]
        assert np.abs(m.weights - ref_model.weights).max() <= 1e-9
        assert np.abs(m.bias - ref_model.bias).max() <= 1e-9
        assert np.abs(m.sigma_weights - ref_model.sigma_weights).max() <= 1e-9
        np.testing.assert_allclose(tr.losses - ref_trace.losses, np.log(c), atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(f"criterion 2: Gaussian-NLL gradients invariant across c in {{1e-3,1,1e3}} "
       f"under window standardization; loss offset = log c +- 1e-9 ({elapsed:.2f}s < 1s)")


def test_criterion_3_token_ce_scale_decoupling():
    rng = np.random.default_rng(1003)
    t = np.arange(40)
    base = np.column_stack([np.sin(2 * np.pi * t / 8) + 2.0,
                            0.5 * np.cos(2 * np.pi * t / 8) + 1.0])
    base += rng.normal(0, 0.1, base.shape)
    model = LinearForecaster.create(LossKind.TOKEN_CE, 32, 8, seed=6,
                                    tokenizer=TokenizerSpec())
    ref_pool, _ = prepare_training_pool(window_batch([base], 32), Scheme.MEANABS, model)
    ref_inputs, ref_target, *_ = build_rows(ref_pool, [0], Scheme.MEANABS, model)[0]
    ref_model, ref_trace = train(
        model, window_batch([base], 32), Scheme.MEANABS, steps=30, lr=0.1, seed=2)
    for c in (1e-3, 1e3):
        batch = window_batch([c * base], 32)
        pool, _ = prepare_training_pool(batch, Scheme.MEANABS, model)
        inputs, target, *_ = build_rows(pool, [0], Scheme.MEANABS, model)[0]
        np.testing.assert_array_equal(target, ref_target)
        np.testing.assert_array_equal(inputs, ref_inputs)
        trained, trace = train(model, batch, Scheme.MEANABS, steps=30, lr=0.1, seed=2)
        np.testing.assert_array_equal(trace.losses, ref_trace.losses)
        np.testing.assert_array_equal(trained.token_weights, ref_model.token_weights)
        np.testing.assert_array_equal(trained.token_bias, ref_model.token_bias)
    ok("criterion 3: token sequences, losses, and gradients bitwise identical "
       "under mean-abs scaling for c in {1e-3, 1, 1e3}")


def test_criterion_4_mse_magnitude_bias():
    rng = np.random.default_rng(1004)
    t = np.arange(40)
    ch1 = np.sin(2 * np.pi * t / 8) + rng.normal(0, 0.1, 40) + 2.0
    series = np.column_stack([ch1, 1e3 * ch1])
    batch = window_batch([series], 32)
    model = LinearForecaster.create(LossKind.MSE, 32, 8, seed=7)
    _, raw_trace = train(model, batch, Scheme.RAW, steps=1, lr=0.0, seed=0)
    raw_ratio = raw_trace.grad_norms[0][1] / raw_trace.grad_norms[0][0]
    _, revin_trace = train(model, batch, Scheme.REVIN, steps=1, lr=0.0, seed=0)
    revin_ratio = revin_trace.grad_norms[0][1] / revin_trace.grad_norms[0][0]
    assert abs(raw_ratio - 1e6) <= 0.01 * 1e6
    assert abs(revin_ratio - 1.0) <= 0.01
    ok(f"criterion 4: per-channel MSE gradient-norm ratio raw {raw_ratio:.4g} "
       f"(=1e6 +-1%), window-standardized {revin_ratio:.4g} (=1 +-1%)")


def test_criterion_5_gradient_oracle():
    rng = np.random.default_rng(1005)
    checked = 0
    worst = 0.0

    def check(analytic, fd):
        nonlocal checked, worst
        worst = max(worst, float(np.abs(analytic - fd).max()))
        assert np.abs(analytic - fd).max() <= 1e-6
        checked += 1

    for _ in range(25):  # MSE
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        pred, target = rng.normal(0, 2, shape), rng.normal(0, 2, shape)
        check(loss_mse(pred, target)[1],
              central_difference(lambda p: loss_mse(p, target)[0], pred))
    for _ in range(25):  # MAE, kept away from the kink
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        target = rng.normal(0, 2, shape)
        pred = target + rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 2.0, shape)
        check(loss_mae(pred, target)[1],
              central_difference(lambda p: loss_mae(p, target)[0], pred))
    for _ in range(25):  # Gaussian NLL, both heads
        shape = (int(rng.integers(1, 4)), 2)
        mean = rng.normal(0, 1, shape)
        log_std = rng.normal(0, 0.3, shape)
        target = rng.normal(0, 2, shape)
        stats = NormStats(rng.normal(0, 2, 2), rng.uniform(0.5, 3.0, 2),
                          Scope.INSTANCE, Method.REVIN)

        def nll(mean_arr, log_std_arr):
            f = Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=mean_arr,
                         gauss_std=np.exp(log_std_arr))
            return loss_gaussian_nll(f, target, stats)[0]

        f = Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=mean,
                     gauss_std=np.exp(log_std))
        _, (d_mean, d_log_std) = loss_gaussian_nll(f, target, stats)
        check(d_mean, central_difference(lambda m: nll(m, log_std), mean))
        check(d_log_std, central_difference(lambda s: nll(mean, s), log_std))
    for _ in range(25):  # token cross-entropy
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 6)))
        logits = rng.normal(0, 1.5, shape)
        targets = rng.integers(0, shape[2], shape[:2])
        check(loss_token_ce(logits, targets)[1],
              central_difference(lambda lg: loss_token_ce(lg, targets)[0], logits))
    assert checked >= 100
    ok(f"criterion 5: {checked} analytic gradients match central differences, "
       f"worst abs dev {worst:.2e} <= 1e-6")


def test_criterion_6_clipping_contract():
    # plateau series: long near-constant stretches with large jumps between
    # them force tiny context scales ahead of out-of-scale horizons
    rng = np.random.default_rng(1006)
    levels = np.repeat([5.0, 50.0, 5.0, 50.0], 300)
    noisy = levels + rng.normal(0, 1e-3, levels.size)
    d = Dataset("plateau", noisy[:, None], "1h", 24, 960)
    instances = sample_instances(d, 96, 24, 400, seed=3)
    model = LinearForecaster.create(LossKind.MSE, 96, 24, seed=8)
    pool, rejected = prepare_training_pool(instances, Scheme.REVIN, model)
    assert rejected > 0
    assert pool, "some instances must survive clipping"
    worst = max(
        max(np.abs(inputs).max(), np.abs(target).max())
        for inputs, target, *_ in build_rows(pool, np.arange(len(pool)), Scheme.REVIN, model)
    )
    assert worst <= 10.0
    trained, trace = train(model, instances, Scheme.REVIN, steps=50, lr=1e-3, seed=4)
    assert trace.rejected == rejected and trace.rejection_rate > 0.0
    ok(f"criterion 6: clipping rejected {rejected}/{len(instances)} instances "
       f"(rate {trace.rejection_rate:.1%} > 0); max |normalized| reaching the "
       f"trainer = {worst:.3f} <= 10")


def test_criterion_7_mase_oracle():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(50):
        h, c, L = int(rng.integers(1, 10)), int(rng.integers(1, 4)), int(rng.integers(10, 40))
        m = int(rng.integers(1, 5))
        context = rng.normal(5.0, 3.0, (L, c))
        actual = rng.normal(5.0, 3.0, (h, c))
        pred = actual + rng.normal(0, 1.5, (h, c))
        ours = mase(pred, actual, naive_mae(context, m))
        oracle = brute_force_mase(pred, actual, context, m)
        worst = max(worst, abs(ours - oracle))
        assert abs(ours - oracle) <= 1e-9
    context = rng.normal(10.0, 4.0, (48, 3))
    actual = rng.normal(10.0, 4.0, (12, 3))
    pred = actual + rng.normal(0, 2.0, (12, 3))
    base = mase(pred, actual, naive_mae(context, 3))
    for c in (1e-3, 1e3, 17.0):
        scaled = mase(c * pred, c * actual, naive_mae(c * context, 3))
        assert abs(scaled - base) <= 1e-9 * base
    ok(f"criterion 7: MASE matches brute-force oracle on 50 fixtures "
       f"(worst dev {worst:.2e}) and is rescaling-invariant to 1e-9")


def test_criterion_8_directional_reproduction(bench_run):
    out, report, elapsed = bench_run
    assert elapsed < 600.0
    agg = report["aggregates"][AVERAGE_ID]
    zs = {method: agg[method]["zs"]["mean"] for method in agg}
    assert zs["raw"] >= 2.0 * zs["revin"]
    trio = [zs[m] for m in MEAN_STD_TRIO]
    assert (max(trio) - min(trio)) / min(trio) <= 0.10
    delta = report["improvements"]["zs"]["raw"]["revin"]
    assert delta > 50.0
    n_checkpoints = len(list((out / "checkpoints").glob("*.json")))
    assert n_checkpoints == 42  # 7 schemes x 3 withheld x 2 model kinds
    ok(
        "criterion 8: 42-run plan in "
        f"{elapsed:.0f}s < 600s; ZS means {{"
        + ", ".join(f"{m}: {zs[m]:.2f}" for m in
                    ("revin", "hybrid", "standardization", "minmax", "maxabs", "meanabs", "raw"))
        + f"}}; raw/revin = {zs['raw'] / zs['revin']:.2f} >= 2; trio spread "
        f"{(max(trio) - min(trio)) / min(trio):.1%} <= 10%; Δ(raw→revin) = {delta:.1f}% > 50%"
    )


def test_criterion_9_protocol_hygiene(bench_run, bench_result, tmp_path):
    datasets, plan, result = bench_result
    events = result.audit.events
    assert events, "audit log must not be empty"
    training_side = [(v, k, n, lo, hi) for v, k, n, lo, hi in events if k != "evaluate"]
    for variant, kind, name, lo, hi in training_side:
        withheld = variant.rsplit("|", 1)[-1]
        assert name != withheld, "withheld dataset touched before evaluation"
        assert hi <= datasets[name].split_index, "training access crossed the split"
    result.audit.verify(datasets)

    # the in-process run, written the way the CLI writes its report, must
    # equal the CLI run's report.json byte for byte
    out, _, _ = bench_run
    in_process = tmp_path / "report.json"
    _write_json(in_process, _report_to_json(result.report, plan))
    first = (out / "report.json").read_bytes()
    second = in_process.read_bytes()
    assert first == second
    ok(f"criterion 9: {len(training_side)} training-side accesses all inside "
       f"train rows and never on the withheld dataset; identical seeds gave "
       f"byte-identical report.json from the CLI and in-process ({len(first)} bytes)")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _benchmark_plan(workload: str) -> tuple[dict, int]:
    """(plan, --jobs) of a benchmark workload at the seed of the reference
    sha256s, read from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_plan(workload, REFERENCE["seed"])


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Digests of the seed-7 ``--out`` trees (see ``_tree_digest``).  A change to
# any file of a run, not only its report, changes them.
TREE_DIGESTS = {
    "acceptance": "c1d0cd77da0c4149a78158716caee6a6abe8eb19f450e6361bdea93e2ebe9371",
    "token": "8d081b48e719380ec54745c75b8f70e6c452265f67da72212f4e2b813adaf726",
    "wide": "8a7fc60c1333bddf81d4d8b9709d08d5f529c2a2ad03f27dcb650d68cd80fdeb",
}


def _tree_digest(out: Path) -> str:
    """sha256 over the sorted lines ``relative/path <sha256 of file>`` of every
    file under ``out``, each line ending in a newline."""
    lines = sorted(f"{p.relative_to(out).as_posix()} {_sha256(p)}\n"
                   for p in out.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_acceptance_report_matches_the_benchmark_reference(bench_run):
    plan, _ = _benchmark_plan("acceptance")
    assert plan == BENCH_PLAN
    out, _, _ = bench_run
    assert _sha256(out / "report.json") == REFERENCE["report_sha256"]["acceptance"]
    assert _tree_digest(out) == TREE_DIGESTS["acceptance"]


def test_wide_report_matches_the_benchmark_reference(tmp_path):
    plan, jobs = _benchmark_plan("wide")
    assert jobs == 2
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "out"
    assert main(["run", "--plan", str(path), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert _sha256(out / "report.json") == REFERENCE["report_sha256"]["wide"]
    assert _tree_digest(out) == TREE_DIGESTS["wide"]


def test_token_report_matches_the_benchmark_reference(tmp_path):
    plan, jobs = _benchmark_plan("token")
    assert jobs == 1 and plan["models"] == ["token_ce"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "out"
    assert main(["run", "--plan", str(path), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert _sha256(out / "report.json") == REFERENCE["report_sha256"]["token"]
    assert _tree_digest(out) == TREE_DIGESTS["token"]


# Criterion 10: the paper's claim as an exact end-to-end property.  Every
# normalizing scheme divides by a statistic that scales with the data, so a
# power-of-two rescale of one dataset, which is exact in float64 (each sum,
# extremum and correctly rounded sqrt scales by exactly 2^k), leaves every
# normalized value, hence every trained weight and every MASE, bitwise equal.
# Exactness ends where an epsilon floor (SCALE_EPS, NAIVE_EPS = 1e-8) takes
# over a statistic: this corpus's smallest context naive MAE is 3.3e-3, so
# |k| <= 16 keeps every statistic at least 5x above the floors.
INVARIANCE_SYNTH = SyntheticSpec(n_datasets=3, channels=2, length=800,
                                 scale_exponents=(0.0, 0.5, -1.0), seed=11)
INVARIANCE_PLAN = {
    "seed": 7,
    "context_len": 48,
    "steps": 200,
    "lr": 1e-4,
    "instances_per_dataset": 32,
    "models": ["point_mse", "point_mae", "gaussian_nll", "token_ce"],
    "withheld": ["synth0"],
}
NORMALIZING = ["revin", "meanabs", "hybrid", "standardization", "minmax", "maxabs"]


def _run_corpus(root: Path, datasets, schemes) -> tuple[int, Path]:
    """Export ``datasets`` as CSV under ``root`` and run ``INVARIANCE_PLAN``
    over them with ``schemes`` through the CLI, in this process."""
    root.mkdir(parents=True)
    entries = []
    for d in datasets:
        export_csv(d, root / f"{d.name}.csv")
        entries.append({"name": d.name, "path": str(root / f"{d.name}.csv"),
                        "frequency": d.frequency, "seasonal_period": d.seasonal_period,
                        "split_index": d.split_index})
    plan = root / "plan.json"
    plan.write_text(json.dumps(dict(INVARIANCE_PLAN, schemes=schemes, datasets=entries)))
    return main(["run", "--plan", str(plan), "--out", str(root / "out")]), root / "out"


def _transformed(name: str, fn) -> list:
    """The invariance corpus with dataset ``name``'s values replaced by ``fn(values)``;
    the other datasets are the same objects."""
    return [Dataset(d.name, fn(d.values), d.frequency, d.seasonal_period, d.split_index)
            if d.name == name else d for d in _INVARIANCE_CORPUS]


def _scheme_rows(out: Path, scheme: str) -> list:
    return [r for r in json.loads((out / "report.json").read_text())["rows"]
            if r["method"] == scheme]


def _scheme_files(out: Path, scheme: str) -> dict:
    """Every checkpoint header, checkpoint data file and variant file of ``scheme``."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for sub in ("checkpoints", "variants")
            for p in sorted((out / sub).glob(f"*__{scheme}__*"))}


_INVARIANCE_CORPUS = generate_synthetic(INVARIANCE_SYNTH)


@pytest.fixture(scope="module")
def invariance_base(tmp_path_factory):
    """The untransformed corpus run under every normalizing scheme, and under raw."""
    root = tmp_path_factory.mktemp("invariance")
    code, normalizing = _run_corpus(root / "normalizing", _INVARIANCE_CORPUS, NORMALIZING)
    assert code == 0
    code, raw = _run_corpus(root / "raw", _INVARIANCE_CORPUS, ["raw"])
    assert code == 0
    return root, normalizing, raw


@settings(derandomize=True, max_examples=6, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(-16, 16).filter(bool),
       name=st.sampled_from([d.name for d in _INVARIANCE_CORPUS]),
       scheme=st.sampled_from(NORMALIZING))
# every scheme at least once, a training dataset and the withheld one among them
@example(k=10, name="synth1", scheme="revin")
@example(k=-16, name="synth2", scheme="meanabs")
@example(k=10, name="synth0", scheme="hybrid")
@example(k=-7, name="synth1", scheme="standardization")
@example(k=16, name="synth2", scheme="minmax")
@example(k=-16, name="synth0", scheme="maxabs")
def test_criterion_10_power_of_two_rescale_is_bitwise_invisible(invariance_base, k, name,
                                                                scheme):
    root, base, _ = invariance_base
    # the rescaled corpus runs in the same process as the original, with the
    # same dataset names and other values
    code, out = _run_corpus(root / f"x2^{k}-{name}-{scheme}",
                            _transformed(name, lambda v: v * 2.0**k), [scheme])
    assert code == 0
    rows = _scheme_rows(out, scheme)
    assert len(rows) == 4 * 3
    assert rows == _scheme_rows(base, scheme)
    files = _scheme_files(out, scheme)
    assert len(files) == 4 * 3  # header, data file and variant file per model kind
    assert files == _scheme_files(base, scheme)


def test_criterion_10_level_shift_moves_mean_removing_schemes_by_rounding_only(
        invariance_base):
    root, base, _ = invariance_base
    schemes = ["revin", "hybrid", "standardization", "minmax"]
    shifted = [Dataset(d.name, d.values + 1000.0, d.frequency, d.seasonal_period,
                       d.split_index) if d.name != "synth0" else d
               for d in _INVARIANCE_CORPUS]
    code, out = _run_corpus(root / "shift+1000", shifted, schemes)
    assert code == 0
    worst = 0.0
    for scheme in schemes:
        got, want = _scheme_rows(out, scheme), _scheme_rows(base, scheme)
        assert [r["dataset"] for r in got] == [r["dataset"] for r in want]
        got = np.array([r["mase"] for r in got])
        want = np.array([r["mase"] for r in want])
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= 1e-12
    ok(f"criterion 10: +1000 on both training datasets moves revin, hybrid, "
       f"standardization and minmax MASE by at most {worst:.1e} relative")


@pytest.mark.parametrize("k", [10, -16])
def test_criterion_10_raw_changes_or_diverges_under_a_rescale(invariance_base, k):
    # the negative control: without normalization the same rescale shows
    root, _, base = invariance_base
    code, out = _run_corpus(root / f"raw-x2^{k}", _transformed("synth1", lambda v: v * 2.0**k),
                            ["raw"])
    assert code == 3 or (code == 0 and _scheme_rows(out, "raw") != _scheme_rows(base, "raw"))
