import copy
import csv
import functools
import hashlib
import io
import json
import math
import operator
import pickle
import tracemalloc
import warnings
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tsnorm import (
    Dataset,
    Forecast,
    ForecastKind,
    LinearForecaster,
    LossKind,
    Method,
    NormStats,
    Scheme,
    Scope,
    TokenizerSpec,
    detokenize,
    forecast,
    loss_gaussian_nll,
    loss_mae,
    loss_mse,
    loss_token_ce,
    raw_stats,
    sample_instances,
    tokenize,
    train,
)
import tsnorm.data as data
import tsnorm.models as models
from tsnorm.core import SCALE_EPS, ShapeMismatchError, TsnormError
from tsnorm.data import InstanceBatch
from tsnorm.norm import (CLIP_THRESHOLD, WINDOW_BLOCK, fit_dataset_stats,
                         fit_inference_stats, instance_max_abs, normalize)
from tsnorm.models import (
    BadBinIndexError,
    DivergedError,
    NonPositiveSigmaError,
    TrainTrace,
    _channel_norms,
    _token_ce,
    _token_ce_norms,
    _token_logits,
    _token_stack,
    build_rows,
    prepare_training_pool,
    token_point_forecast,
)

from conftest import batch_windows, central_difference, col, traced_peak, window_batch

HALF_LOG_2PI = 0.9189385332046727


def make_window(rng, length=32, horizon=8, channels=1, scale=1.0, offset=0.0):
    """A noisy sinusoid window, (length + horizon, channels): context rows first."""
    t = np.arange(length + horizon)
    base = np.sin(2 * np.pi * t / 8.0)[:, None] * np.ones(channels)
    noise = rng.normal(0, 0.1, (length + horizon, channels))
    return scale * (base + noise) + offset


class TestSchemeTable:
    # (dataset method, instance method, inference method, clips) per scheme
    EXPECTED = {
        Scheme.REVIN: (None, Method.REVIN, Method.REVIN, True),
        Scheme.MEANABS: (None, Method.MEANABS, Method.MEANABS, True),
        Scheme.HYBRID: (Method.STANDARDIZATION, Method.REVIN, Method.REVIN, False),
        Scheme.STANDARDIZATION: (Method.STANDARDIZATION, None, Method.STANDARDIZATION, False),
        Scheme.MINMAX: (Method.MINMAX, None, Method.MINMAX, False),
        Scheme.MAXABS: (Method.MAXABS, None, Method.MAXABS, False),
        Scheme.RAW: (None, None, Method.RAW, False),
    }

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_placement(self, scheme):
        got = (scheme.dataset_method, scheme.instance_method, scheme.inference_method,
               scheme.clips)
        assert got == self.EXPECTED[scheme]

    def test_every_scheme_is_pinned(self):
        # in declaration order, which is the report's method order
        assert list(self.EXPECTED) == list(Scheme)


class TestTokenizer:
    def test_edges_and_clamping(self):
        spec = TokenizerSpec(num_bins=4, lo=-2.0, hi=2.0)
        assert tokenize(np.array([[-2.0]]), spec)[0, 0] == 0
        assert tokenize(np.array([[1.99]]), spec)[0, 0] == 3
        assert tokenize(np.array([[50.0]]), spec)[0, 0] == 3
        assert tokenize(np.array([[-50.0]]), spec)[0, 0] == 0

    def test_quantization_bound(self):
        spec = TokenizerSpec(num_bins=16, lo=-4.0, hi=4.0)
        rng = np.random.default_rng(3)
        x = rng.uniform(-4.0, 4.0, (20, 2))
        back = detokenize(tokenize(x, spec), spec)
        assert np.abs(back - x).max() <= spec.bin_width / 2 + 1e-12

    def test_detokenize_rejects_bad_bins(self):
        spec = TokenizerSpec(num_bins=4, lo=-2.0, hi=2.0)
        with pytest.raises(BadBinIndexError):
            detokenize(np.array([[4]]), spec)

    def test_default_range_matches_clip_threshold(self):
        spec = TokenizerSpec()
        assert spec.num_bins == 128 and (spec.lo, spec.hi) == (-10.0, 10.0)

    @pytest.mark.parametrize("fields", [
        {"num_bins": 0}, {"num_bins": True}, {"num_bins": 2.0}, {"num_bins": "8"},
        {"lo": "a", "hi": "b"}, {"lo": float("nan")}, {"hi": float("inf")}, {"lo": False},
        {"lo": 1.0, "hi": 1.0},
    ], ids=repr)
    def test_bad_grid_is_refused(self, fields):
        with pytest.raises(TsnormError):
            TokenizerSpec(**fields)
        assert TokenizerSpec(num_bins=np.int64(8), lo=np.float64(-1.0), hi=1).num_bins == 8


class TestForecast:
    def test_zero_model_point(self):
        model = LinearForecaster.create(LossKind.MSE, 8, 4, init_scale=0.0)
        f = forecast(model, np.ones((8, 3)))
        assert f.kind is ForecastKind.POINT
        np.testing.assert_array_equal(f.point, np.zeros((4, 3)))

    def test_persistence_weights(self):
        model = LinearForecaster.create(LossKind.MSE, 8, 4, init_scale=0.0)
        model.weights[:, -1] = 1.0  # copy the last context value to every step
        ctx = np.arange(16.0).reshape(8, 2)
        f = forecast(model, ctx)
        np.testing.assert_array_equal(f.point, np.tile(ctx[-1], (4, 1)))

    def test_zero_gaussian_head(self):
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 8, 4, init_scale=0.0)
        f = forecast(model, np.ones((8, 2)))
        np.testing.assert_array_equal(f.gauss_mean, np.zeros((4, 2)))
        np.testing.assert_array_equal(f.gauss_std, np.ones((4, 2)))

    def test_token_logits_shape(self):
        spec = TokenizerSpec(num_bins=8, lo=-4, hi=4)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 8, 4, tokenizer=spec)
        f = forecast(model, np.zeros((8, 3)))
        assert f.token_logits.shape == (4, 3, 8)
        assert token_point_forecast(f).shape == (4, 3)

    def test_context_length_checked(self):
        model = LinearForecaster.create(LossKind.MSE, 8, 4)
        with pytest.raises(ShapeMismatchError):
            forecast(model, np.zeros((9, 1)))


class TestPointLosses:
    def test_perfect_fit(self):
        x = col(1, 2, 3)
        for fn in (loss_mse, loss_mae):
            loss, grad = fn(x, x)
            assert loss == 0.0
            np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_hand_values(self):
        pred, target = col(3, 3), col(2, 4)
        assert loss_mse(pred, target)[0] == 1.0
        assert loss_mae(pred, target)[0] == 1.0

    def test_mse_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        pred = rng.normal(0, 2, (5, 3))
        target = rng.normal(0, 2, (5, 3))
        _, grad = loss_mse(pred, target)
        fd = central_difference(lambda p: loss_mse(p, target)[0], pred)
        assert np.abs(grad - fd).max() <= 1e-6

    def test_mae_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        target = rng.normal(0, 2, (5, 3))
        pred = target + np.where(rng.uniform(size=(5, 3)) < 0.5, -1.0, 1.0)
        _, grad = loss_mae(pred, target)
        fd = central_difference(lambda p: loss_mae(p, target)[0], pred)
        assert np.abs(grad - fd).max() <= 1e-6


class TestGaussianNll:
    def test_standard_normal_value(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.zeros((1, 1)), gauss_std=np.ones((1, 1)))
        loss, _ = loss_gaussian_nll(f, np.zeros((1, 1)), raw_stats(1))
        assert abs(loss - HALF_LOG_2PI) <= 1e-12

    def test_scale_shifts_loss_by_log_gamma(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.zeros((1, 1)), gauss_std=np.ones((1, 1)))
        stats = NormStats([0.0], [2.0], Scope.INSTANCE, Method.REVIN)
        loss, _ = loss_gaussian_nll(f, np.zeros((1, 1)), stats)
        assert abs(loss - (HALF_LOG_2PI + np.log(2.0))) <= 1e-12

    def test_gradients_independent_of_gamma(self):
        rng = np.random.default_rng(31)
        mean = rng.normal(0, 1, (4, 2))
        std = np.exp(rng.normal(0, 0.3, (4, 2)))
        target_norm = rng.normal(0, 1, (4, 2))
        f = Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=mean, gauss_std=std)
        grads = []
        for gamma in (1.0, 2.0):
            stats = NormStats([0.0, 0.0], [gamma, gamma], Scope.INSTANCE, Method.REVIN)
            target_raw = target_norm * gamma
            _, g = loss_gaussian_nll(f, target_raw, stats)
            grads.append(g)
        for a, b in zip(grads[0], grads[1]):
            assert np.abs(a - b).max() <= 1e-9

    def test_decomposition_identity(self):
        rng = np.random.default_rng(32)
        mean = rng.normal(0, 1, (6, 3))
        std = np.exp(rng.normal(0, 0.5, (6, 3)))
        f = Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=mean, gauss_std=std)
        shift = rng.normal(0, 5, 3)
        scale = rng.uniform(0.5, 4.0, 3)
        stats = NormStats(shift, scale, Scope.INSTANCE, Method.REVIN)
        target_norm = rng.normal(0, 1, (6, 3))
        target_raw = target_norm * scale + shift
        raw_loss, _ = loss_gaussian_nll(f, target_raw, stats)
        norm_loss, _ = loss_gaussian_nll(f, target_norm, raw_stats(3))
        assert abs(raw_loss - (norm_loss + np.log(scale).mean())) <= 1e-9

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        mean = rng.normal(0, 1, (3, 2))
        log_std = rng.normal(0, 0.3, (3, 2))
        target = rng.normal(0, 2, (3, 2))
        stats = NormStats([1.0, -2.0], [1.5, 0.7], Scope.INSTANCE, Method.REVIN)

        def loss_of(mean_arr, log_std_arr):
            f = Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=mean_arr,
                         gauss_std=np.exp(log_std_arr))
            return loss_gaussian_nll(f, target, stats)[0]

        f = Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=mean,
                     gauss_std=np.exp(log_std))
        _, (d_mean, d_log_std) = loss_gaussian_nll(f, target, stats)
        fd_mean = central_difference(lambda m: loss_of(m, log_std), mean)
        fd_log_std = central_difference(lambda s: loss_of(mean, s), log_std)
        assert np.abs(d_mean - fd_mean).max() <= 1e-6
        assert np.abs(d_log_std - fd_log_std).max() <= 1e-6

    def test_nonpositive_sigma_rejected(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.zeros((1, 1)), gauss_std=np.ones((1, 1)))
        object.__setattr__(f, "gauss_std", np.zeros((1, 1)))
        with pytest.raises(NonPositiveSigmaError):
            loss_gaussian_nll(f, np.zeros((1, 1)), raw_stats(1))

    def test_block_statistics_rejected(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.zeros((3, 2)), gauss_std=np.ones((3, 2)))
        block = NormStats(np.zeros((3, 2)), np.ones((3, 2)), Scope.INSTANCE, Method.REVIN)
        with pytest.raises(ShapeMismatchError):
            loss_gaussian_nll(f, np.zeros((3, 2)), block)


class TestTokenCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((2, 3, 4))
        loss, _ = loss_token_ce(logits, np.zeros((2, 3), dtype=int))
        assert abs(loss - np.log(4.0)) <= 1e-12

    def test_confident_correct_prediction(self):
        logits = np.full((1, 1, 4), -50.0)
        logits[0, 0, 2] = 50.0
        loss, _ = loss_token_ce(logits, np.array([[2]]))
        assert loss <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        logits = rng.normal(0, 1, (3, 2, 5))
        targets = rng.integers(0, 5, (3, 2))
        _, grad = loss_token_ce(logits, targets)
        fd = central_difference(lambda lg: loss_token_ce(lg, targets)[0], logits)
        assert np.abs(grad - fd).max() <= 1e-6

    def test_bad_bin_rejected(self):
        with pytest.raises(BadBinIndexError):
            loss_token_ce(np.zeros((1, 1, 4)), np.array([[4]]))


class TestTrain:
    def test_zero_lr_leaves_model_unchanged(self):
        rng = np.random.default_rng(50)
        batch = window_batch([make_window(rng)], 32)
        model = LinearForecaster.create(LossKind.MSE, 32, 8, seed=1)
        trained, trace = train(model, batch, Scheme.REVIN, steps=10, lr=0.0, seed=0)
        np.testing.assert_array_equal(trained.weights, model.weights)
        assert np.ptp(trace.losses) == 0.0

    def test_single_instance_overfit(self):
        rng = np.random.default_rng(51)
        batch = window_batch([make_window(rng)], 32)
        model = LinearForecaster.create(LossKind.MSE, 32, 8, seed=2)
        trained, trace = train(model, batch, Scheme.REVIN, steps=500, lr=0.1, seed=0)
        assert trace.losses[-1] < 1e-3

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(52)
        instances = window_batch([make_window(rng) for _ in range(4)], 32)
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 32, 8, seed=3)
        a, _ = train(model, instances, Scheme.REVIN, steps=50, lr=0.05, seed=9)
        b, _ = train(model, instances, Scheme.REVIN, steps=50, lr=0.05, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.sigma_weights, b.sigma_weights)

    def test_divergence_reports_step(self):
        rng = np.random.default_rng(53)
        batch = window_batch([make_window(rng, scale=1e3)], 32)
        model = LinearForecaster.create(LossKind.MSE, 32, 8, seed=4)
        with pytest.raises(DivergedError) as exc:
            train(model, batch, Scheme.RAW, steps=200, lr=1.0, seed=0)
        assert 0 < exc.value.step < 200 and not np.isfinite(exc.value.loss)
        assert f"step {exc.value.step} " in str(exc.value)

    def test_gaussian_std_underflow_is_a_divergence(self):
        # the predicted std underflows to 0 at step 1: a NaN loss, not a bad input
        rng = np.random.default_rng(0)
        instances = window_batch([
            np.concatenate([rng.normal(0, 1, (32, 2)) * 1e3, rng.normal(0, 1, (8, 2)) * 1e3])
            for _ in range(8)
        ], 32)
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 32, 8, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError) as exc:
                train(model, instances, Scheme.RAW, steps=200, lr=0.01, seed=0)
        assert exc.value.step == 1 and np.isnan(exc.value.loss)
        # the step-by-step reference goes non-finite at the same step, same bits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, ref_losses, _, _ = _reference_train(model, batch_windows(instances),
                                                   Scheme.RAW, 2, 0.01, 0)
        assert np.isfinite(ref_losses[0])
        assert np.float64(exc.value.loss).tobytes() == ref_losses[1].tobytes()

    def test_clipped_pool_excludes_rejected(self):
        rng = np.random.default_rng(54)
        good = make_window(rng)
        flat = np.concatenate([np.zeros((32, 1)), np.full((8, 1), 100.0)])
        model = LinearForecaster.create(LossKind.MSE, 32, 8)
        pool, rejected = prepare_training_pool(window_batch([good, flat], 32), Scheme.REVIN,
                                               model)
        assert rejected == 1 and len(pool) == 1
        rows = build_rows(pool, np.arange(len(pool)), Scheme.REVIN, model)
        assert max(np.abs(inputs).max() for inputs, *_ in rows) <= 10.0
        assert max(np.abs(target).max() for _, target, *_ in rows) <= 10.0


class TestScaleSensitivity:
    def test_nll_gradients_invariant_under_revin(self):
        rng = np.random.default_rng(60)
        base = make_window(rng, channels=2)
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 32, 8, seed=5)
        results = {}
        for c in (1e-3, 1.0, 1e3):
            trained, trace = train(model, window_batch([c * base], 32), Scheme.REVIN,
                                   steps=5, lr=0.05, seed=1)
            results[c] = (trained, trace)
        ref_model, ref_trace = results[1.0]
        for c in (1e-3, 1e3):
            m, tr = results[c]
            assert np.abs(m.weights - ref_model.weights).max() <= 1e-9
            assert np.abs(m.sigma_weights - ref_model.sigma_weights).max() <= 1e-9
            # loss shifts by exactly log c through the de-normalized std
            np.testing.assert_allclose(
                tr.losses - ref_trace.losses, np.log(c), atol=1e-9
            )

    def test_token_ce_bitwise_invariant_under_meanabs(self):
        rng = np.random.default_rng(61)
        base = make_window(rng, channels=2, offset=1.0)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 32, 8, seed=6)
        ref_pool, _ = prepare_training_pool(window_batch([base], 32), Scheme.MEANABS, model)
        ref_inputs, ref_target, *_ = build_rows(ref_pool, [0], Scheme.MEANABS, model)[0]
        ref_trained, ref_trace = train(model, window_batch([base], 32), Scheme.MEANABS,
                                       steps=20, lr=0.1, seed=2)
        for c in (1e-3, 1e3):
            scaled = window_batch([c * base], 32)
            pool, _ = prepare_training_pool(scaled, Scheme.MEANABS, model)
            inputs, target, *_ = build_rows(pool, [0], Scheme.MEANABS, model)[0]
            np.testing.assert_array_equal(target, ref_target)
            np.testing.assert_array_equal(inputs, ref_inputs)
            trained, trace = train(model, scaled, Scheme.MEANABS,
                                   steps=20, lr=0.1, seed=2)
            np.testing.assert_array_equal(trace.losses, ref_trace.losses)
            np.testing.assert_array_equal(trained.token_weights, ref_trained.token_weights)

    @staticmethod
    def _channel_ratio(loss_kind, scheme):
        rng = np.random.default_rng(62)
        t = np.arange(40)
        ch1 = np.sin(2 * np.pi * t / 8.0) + rng.normal(0, 0.1, 40) + 2.0
        series = np.column_stack([ch1, 1e3 * ch1])
        model = LinearForecaster.create(loss_kind, 32, 8, seed=7)
        _, trace = train(model, window_batch([series], 32), scheme, steps=1, lr=0.0, seed=0)
        norms = trace.grad_norms[0]
        return norms[1] / norms[0]

    def test_mse_magnitude_bias_raw(self):
        ratio = self._channel_ratio(LossKind.MSE, Scheme.RAW)
        assert abs(ratio - 1e6) <= 0.01 * 1e6

    def test_mae_magnitude_bias_raw(self):
        ratio = self._channel_ratio(LossKind.MAE, Scheme.RAW)
        assert abs(ratio - 1e3) <= 0.01 * 1e3

    def test_bias_removed_by_revin(self):
        for kind in (LossKind.MSE, LossKind.MAE):
            ratio = self._channel_ratio(kind, Scheme.REVIN)
            assert abs(ratio - 1.0) <= 0.01


def save_checkpoint(path, model):
    """Data file first, then the header, as ``tsnorm run`` writes them."""
    header = models.write_checkpoint_data(path, model)
    path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


CHECKPOINT_ARRAYS = ("weights", "bias", "sigma_weights", "sigma_bias",
                     "token_weights", "token_bias")


# Fields of a checkpoint header a mutation replaces, as paths into it, and
# the values it puts there; MISSING deletes the field.
HEADER_FIELDS = [("format",), ("loss_kind",), ("context_len",), ("horizon",), ("arrays",),
                 ("data",), ("tokenizer",), ("data", "file"), ("data", "sha256"),
                 ("tokenizer", "num_bins"), ("tokenizer", "lo"), ("tokenizer", "hi"),
                 *((("arrays", i, key) for i in range(4) for key in ("name", "shape")))]
MISSING = object()
HEADER_VALUES = st.sampled_from([
    MISSING, None, True, False, 0, 1, -1, 3.5, "", "x", "m.json", "sub", "weights", [], [1, 2],
    [[3]],
    ["weights"], {}, {"name": "weights", "shape": [3, 5]}, {"file": "m.f64"}, 10**20, -10**20,
])


def _mutate(header, field, value):
    """Put ``value`` at path ``field`` of a header, if its parents are there."""
    *parents, last = field
    for key in parents:
        try:
            header = header[key]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(header, dict):
        if value is MISSING:
            header.pop(last, None)
        else:
            header[last] = copy.deepcopy(value)


def _in_file_order(model, name):
    """A model array as a checkpoint's data file orders it: (H, B, L) token weights."""
    a = getattr(model, name)
    return a.transpose(1, 2, 0) if name == "token_weights" else a


class TestCheckpoint:
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_data_file_is_raw_little_endian_float64(self, tmp_path, kind):
        # an odd-sized head, and a token model's (L, H, B) array in (H, B, L) order
        model = LinearForecaster.create(kind, 37, 5, seed=4, tokenizer=TokenizerSpec(num_bins=13))
        path = tmp_path / "m.json"
        save_checkpoint(path, model)
        header = json.loads(path.read_text())
        assert header["format"] == models.CHECKPOINT_FORMAT
        names = [a["name"] for a in header["arrays"]]
        assert names == [n for n in CHECKPOINT_ARRAYS if getattr(model, n) is not None]
        want = b"".join(np.ascontiguousarray(_in_file_order(model, n), "<f8").tobytes()
                        for n in names)
        data = (tmp_path / header["data"]["file"]).read_bytes()
        assert data == want
        assert header["data"]["sha256"] == hashlib.sha256(want).hexdigest()

    @pytest.mark.parametrize("damage", ["tampered", "truncated", "extended", "missing",
                                        "directory"])
    def test_damaged_data_file_is_named(self, tmp_path, damage):
        path = tmp_path / "m.json"
        save_checkpoint(path, LinearForecaster.create(LossKind.TOKEN_CE, 8, 4, seed=1))
        data = tmp_path / "m.f64"
        raw = bytearray(data.read_bytes())
        if damage == "tampered":
            raw[100] ^= 1
            data.write_bytes(raw)
        elif damage == "truncated":
            data.write_bytes(raw[:-8])
        elif damage == "extended":
            data.write_bytes(raw + bytes(8))
        else:
            data.unlink()
            if damage == "directory":
                data.mkdir()
        want = {"tampered": "sha256", "truncated": "bytes", "extended": "bytes",
                "missing": "missing", "directory": "cannot be read"}[damage]
        with pytest.raises(models.CheckpointError, match=want) as info:
            models.read_checkpoint(path)
        assert str(data) in str(info.value)

    def test_nested_list_checkpoint_is_refused(self, tmp_path):
        # the JSON form checkpoints had before the binary data file
        model = LinearForecaster.create(LossKind.MSE, 8, 4, seed=1)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "loss_kind": "point_mse", "context_len": 8, "horizon": 4,
            "weights": model.weights.tolist(), "bias": model.bias.tolist(),
        }))
        with pytest.raises(models.CheckpointError, match="nested-list") as info:
            models.read_checkpoint(path)
        assert str(path) in str(info.value)

    def test_unknown_format_and_mismatched_arrays_are_refused(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, LinearForecaster.create(LossKind.MSE, 8, 4, seed=1))
        header = json.loads(path.read_text())
        path.write_text(json.dumps(dict(header, format=99)))
        with pytest.raises(models.CheckpointError, match="unknown checkpoint format 99"):
            models.read_checkpoint(path)
        # equal to 1 in Python, but not the integer 1 a header records
        for fmt in (True, 1.0):
            path.write_text(json.dumps(dict(header, format=fmt)))
            with pytest.raises(models.CheckpointError,
                               match=f"unknown checkpoint format {fmt!r}") as info:
                models.read_checkpoint(path)
            assert str(info.value).startswith(f"{path}: ")
        path.write_text(json.dumps(dict(header, loss_kind="gaussian_nll")))
        with pytest.raises(models.CheckpointError, match="do not fit a gaussian_nll model"):
            models.read_checkpoint(path)
        token_path = tmp_path / "t.json"
        save_checkpoint(token_path, LinearForecaster.create(LossKind.TOKEN_CE, 8, 4, seed=1))
        token = json.loads(token_path.read_text())

        def reshaped(h, name, shape):
            arrays = [dict(a, shape=shape) if a["name"] == name else a for a in h["arrays"]]
            return dict(h, arrays=arrays)

        cases = [
            (header, reshaped(header, "weights", [8, 4]), "array weights has shape"),
            (header, dict(header, horizon=5), "array weights has shape"),
            (header, reshaped(header, "bias", [2, 2]), "array bias has shape"),
            (token, {k: v for k, v in token.items() if k != "tokenizer"},
             "no 'tokenizer' field"),
            (token, dict(token, tokenizer=dict(token["tokenizer"], num_bins=64)),
             "array token_weights has shape"),
            (token, reshaped(token, "token_bias", [4, 64, 2]), "array token_bias has shape"),
            (header, {k: v for k, v in header.items() if k != "loss_kind"},
             "no 'loss_kind' field"),
            (header, {k: v for k, v in header.items() if k != "data"}, "no 'data' field"),
            (header, dict(header, loss_kind="point_huber"), "'point_huber' is not a valid"),
            (header, dict(header, data=dict(header["data"], file="sub/m.f64")),
             "bad header field: Invalid name 'sub/m.f64'"),
            (header, dict(header, data=dict(header["data"], file="..")),
             "bad header field: Invalid name '..'"),
            (header, dict(header, data=dict(header["data"], file=".")),
             "bad header field: Invalid name '.'"),
            (header, [header], "header is a JSON list, not an object"),
            # a truncated header: damaged as text, not as JSON
            (header, json.dumps(header)[:40], "header is not JSON"),
        ]
        for base, damaged, named in cases:
            at = token_path if base is token else path
            at.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
            with pytest.raises(models.CheckpointError, match=named) as info:
                models.read_checkpoint(at)
            assert str(info.value).startswith(f"{at}: ")

    @pytest.mark.parametrize("damage", [
        lambda h: dict(h, arrays=5),
        lambda h: dict(h, arrays=[1, 2]),
        lambda h: dict(h, data="x"),
        lambda h: dict(h, data=dict(h["data"], file=3)),
        lambda h: dict(h, tokenizer=3),
        lambda h: dict(h, tokenizer=dict(h["tokenizer"], num_bins="x")),
        lambda h: dict(h, tokenizer=dict(h["tokenizer"], lo="a", hi="b")),
    ], ids=["arrays-int", "arrays-of-ints", "data-str", "data-file-int", "tokenizer-int",
            "num-bins-str", "lo-hi-str"])
    def test_mistyped_header_fields_are_refused(self, tmp_path, damage):
        path = tmp_path / "t.json"
        save_checkpoint(path, LinearForecaster.create(LossKind.TOKEN_CE, 8, 4, seed=1))
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        with pytest.raises(models.CheckpointError, match="bad header field") as info:
            models.read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("field, dims, shapes", [
        ("context_len", (-1, 2), ([2, -1], [2])),
        ("horizon", (3, 0), ([0, 3], [0])),
        ("context_len", (0, 0), ([0, 0], [0])),
    ], ids=["context_len-1", "horizon0", "both0"])
    def test_a_dimension_below_one_is_refused_by_name(self, tmp_path, field, dims, shapes):
        # the shapes fit the dimensions and an empty data file holds their
        # 0 values: only the dimensions are wrong
        path = tmp_path / "m.json"
        save_checkpoint(path, LinearForecaster.create(LossKind.MSE, 8, 4, seed=1))
        (tmp_path / "m.f64").write_bytes(b"")
        header = json.loads(path.read_text())
        header.update(context_len=dims[0], horizon=dims[1],
                      arrays=[dict(a, shape=s) for a, s in zip(header["arrays"], shapes)],
                      data=dict(header["data"], sha256=hashlib.sha256(b"").hexdigest()))
        path.write_text(json.dumps(header))
        with pytest.raises(models.CheckpointError, match=f"bad header field: '{field}' is") as info:
            models.read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    @settings(derandomize=True, max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(list(LossKind)),
           mutations=st.lists(st.tuples(st.sampled_from(HEADER_FIELDS), HEADER_VALUES),
                              min_size=1, max_size=2, unique_by=lambda m: m[0]))
    # the dimensions below one that the shape checks alone let through
    @example(kind=LossKind.MSE, mutations=[
        (("context_len",), -1), (("horizon",), 2),
        (("arrays",), [{"name": "weights", "shape": [2, -1]}, {"name": "bias", "shape": [2]}]),
        (("data",), {"file": "empty.f64", "sha256": hashlib.sha256(b"").hexdigest()})])
    @example(kind=LossKind.MSE, mutations=[
        (("horizon",), 0),
        (("arrays",), [{"name": "weights", "shape": [0, 5]}, {"name": "bias", "shape": [0]}]),
        (("data",), {"file": "empty.f64", "sha256": hashlib.sha256(b"").hexdigest()})])
    # a data file that is a directory
    @example(kind=LossKind.GAUSSIAN_NLL, mutations=[(("data", "file"), "sub")])
    def test_a_mutated_header_is_read_or_refused_by_name(self, tmp_path, kind, mutations):
        # a small head, H=3, B=4, L=5, and an empty file and a directory a
        # header may name
        model = LinearForecaster.create(kind, 5, 3, seed=2, tokenizer=TokenizerSpec(num_bins=4))
        path = tmp_path / kind.value / "m.json"
        (path.parent / "sub").mkdir(parents=True, exist_ok=True)
        save_checkpoint(path, model)
        (path.parent / "empty.f64").write_bytes(b"")
        header = json.loads(path.read_text())
        for field, value in mutations:
            _mutate(header, field, value)
        path.write_text(json.dumps(header))
        try:
            back = models.read_checkpoint(path)
        except models.CheckpointError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        # what is read back is the model that was written
        assert (back.loss_kind, back.context_len, back.horizon) == (kind, 5, 3)
        for name in CHECKPOINT_ARRAYS:
            want, got = getattr(model, name), getattr(back, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert got.tobytes() == want.tobytes(), name

    def test_writing_a_token_checkpoint_copies_no_whole_array(self, tmp_path):
        # at the production head, H=24, B=128, L=96: a slice of the weights at a time
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        _, peak = traced_peak(models.write_checkpoint_data, tmp_path / "m.json", model)
        assert peak <= 0.1 * model.token_weights.nbytes


def _reference_token_create(seed, context_len, horizon, bins, init_scale=0.01):
    """The weights and (L, H, B) token weights of one whole (H, B, L) draw,
    as ``LinearForecaster.create`` first drew them."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, init_scale, (horizon, context_len))
    hbl = rng.normal(0.0, init_scale, (horizon, bins, context_len))
    return weights, np.ascontiguousarray(hbl.transpose(2, 0, 1))


class TestCreate:
    @pytest.mark.parametrize("head", [(96, 24, 128), (37, 5, 13)], ids=["default", "odd"])
    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 3])
    def test_token_weights_are_the_bits_of_one_whole_draw(self, head, seed):
        L, H, B = head
        model = LinearForecaster.create(LossKind.TOKEN_CE, L, H, seed=seed,
                                        tokenizer=TokenizerSpec(num_bins=B))
        weights, lhb = _reference_token_create(seed, L, H, B)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.token_weights.shape == (L, H, B)
        assert model.token_weights.flags.c_contiguous
        assert model.token_weights.tobytes() == lhb.tobytes()

    def test_creating_a_token_model_holds_one_copy_of_its_weights(self):
        LinearForecaster.create(LossKind.TOKEN_CE, 96, 24)  # the first call imports modules
        model, peak = traced_peak(LinearForecaster.create, LossKind.TOKEN_CE, 96, 24)
        # the (L, H, B) array and one (B, L) row of the draw
        assert peak <= 1.2 * model.token_weights.nbytes


def _csv_writer_bytes(trace) -> bytes:
    """The trace CSV as the ``csv.writer`` formatter it was first written with gives it."""
    max_c = max((len(g) for g in trace.grad_norms), default=0)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["step", "loss"] + [f"grad_norm_c{c}" for c in range(max_c)])
    for step, (loss, norms) in enumerate(zip(trace.losses, trace.grad_norms)):
        row = [step, repr(float(loss))] + [repr(float(v)) for v in norms]
        row += [""] * (max_c - len(norms))
        writer.writerow(row)
    return buf.getvalue().encode()


class TestSerialization:
    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        for kind in LossKind:
            model = LinearForecaster.create(kind, 8, 4, seed=11)
            for name in CHECKPOINT_ARRAYS:  # every bit pattern matters, not only the init
                a = getattr(model, name)
                if a is not None:
                    a[...] = rng.normal(0.0, 1.0, a.shape) * 10.0 ** rng.integers(-300, 300, a.shape)
            model.weights.flat[:4] = [np.nan, -0.0, np.inf, 5e-324]
            path = tmp_path / kind.value / "m.json"
            path.parent.mkdir()
            save_checkpoint(path, model)
            assert sorted(p.name for p in path.parent.iterdir()) == ["m.f64", "m.json"]
            again = models.read_checkpoint(path)
            assert (again.loss_kind, again.context_len, again.horizon, again.tokenizer) == (
                kind, 8, 4, model.tokenizer)
            for name in CHECKPOINT_ARRAYS:
                want, got = getattr(model, name), getattr(again, name)
                if want is None:
                    assert got is None
                    continue
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.flags.writeable
            again.weights[1, 0] += 1.0  # and the arrays are the model's own
            assert again.weights[1, 0] != model.weights[1, 0]

    def test_trace_csv(self, tmp_path):
        rng = np.random.default_rng(12)
        batch = window_batch([make_window(rng, channels=2)], 32)
        model = LinearForecaster.create(LossKind.MSE, 32, 8)
        _, trace = train(model, batch, Scheme.REVIN, steps=5, lr=0.01, seed=0)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm_c0,grad_norm_c1"
        assert len(lines) == 6
        step, loss, g0, g1 = lines[1].split(",")
        assert float(loss) == trace.losses[0]
        assert float(g0) == trace.grad_norms[0][0]

    def test_trace_csv_bytes_match_reference_formatter(self, tmp_path):
        rng = np.random.default_rng(13)
        instances = window_batch([make_window(rng, channels=c) for c in (1, 3, 2)], 32)
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 32, 8)
        _, trace = train(model, instances, Scheme.REVIN, steps=30, lr=0.01, seed=0)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert max(len(g) for g in trace.grad_norms) == 3
        assert path.read_bytes() == _csv_writer_bytes(trace)

    def test_trace_csv_bytes_match_reference_uniform_and_empty(self, tmp_path):
        rng = np.random.default_rng(14)
        model = LinearForecaster.create(LossKind.MSE, 32, 8)
        _, uniform = train(model, window_batch([make_window(rng, channels=2) for _ in range(3)],
                                               32), Scheme.REVIN, steps=40, lr=0.01, seed=0)
        empty = TrainTrace(losses=np.empty(0), grad_norms=[], rejected=0,
                           pool_size=1, seed=0, lr=0.1)
        for trace in (uniform, empty):
            path = tmp_path / "trace.csv"
            trace.to_csv(path)
            assert path.read_bytes() == _csv_writer_bytes(trace)
        assert path.read_bytes() == b"step,loss\r\n"

    def test_failed_trace_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        good = TrainTrace(losses=np.array([1.0, 0.5]), grad_norms=[np.ones(2)] * 2,
                          rejected=0, pool_size=2, seed=0, lr=0.1)
        good.to_csv(path)
        before = path.read_bytes()
        # the third row has no tolist(): the write fails after two rows
        bad = TrainTrace(losses=np.array([1.0, 0.5, 0.25]),
                         grad_norms=[np.ones(2), np.ones(2), [1.0, 1.0]],
                         rejected=0, pool_size=3, seed=0, lr=0.1)
        with pytest.raises(AttributeError):
            bad.to_csv(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


# Reference SGD step: the per-step object path the array kernels replaced,
# with its loss formulas.  The kernels must reproduce it bit for bit.

def _ref_loss_point(kind, pred, target):
    diff = pred - target
    if kind is LossKind.MSE:
        return float(np.mean(diff**2)), 2.0 * diff / diff.size
    return float(np.mean(np.abs(diff))), np.sign(diff) / diff.size


def _ref_loss_gaussian_nll(gauss_mean, gauss_std, target_raw, stats):
    mean = gauss_mean * stats.scale + stats.shift
    std = gauss_std * stats.scale
    z = (target_raw - mean) / std
    nll_cells = 0.5 * float(np.log(2.0 * np.pi)) + np.log(std) + 0.5 * z**2
    n = nll_cells.size
    return float(nll_cells.mean()), (-z / gauss_std / n, (1.0 - z**2) / n)


def _ref_loss_token_ce(logits, target_bins):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    h_idx, c_idx = np.indices(target_bins.shape)
    loss = float(-log_probs[h_idx, c_idx, target_bins].mean())
    grad = np.exp(log_probs)
    grad[h_idx, c_idx, target_bins] -= 1.0
    return loss, grad / target_bins.size


def _per_channel_norms(inputs, *output_grads):
    in_norms = np.linalg.norm(inputs, axis=0)
    total = np.zeros(inputs.shape[1])
    for g in output_grads:
        if g.ndim == 3:  # (H, C, B) token logits
            g_norms = np.linalg.norm(g, axis=(0, 2))
        else:
            g_norms = np.linalg.norm(g, axis=0)
        total += (g_norms * in_norms) ** 2
    return np.sqrt(total)


def _hbl(token_weights):
    """A C-order (H, B, L) copy of (L, H, B) token weights."""
    return np.ascontiguousarray(token_weights.transpose(1, 2, 0))


def _einsum_token_step(model, sample, lr):
    """The token step as two ``np.einsum`` contractions on a C-order (H, B, L)
    copy of the (L, H, B) weights, with the loss on einsum's layout: at C = 2
    the bits of ``_ref_token_step``.  (einsum's sum order follows its
    operands' layout.)"""
    ctx = sample.inputs
    logits = np.einsum("hbl,lc->hcb", _hbl(model.token_weights), ctx)
    logits += model.token_bias[:, None, :]
    loss, g = _ref_loss_token_ce(logits, sample.target)
    norms = _per_channel_norms(ctx, g)
    model.token_weights -= lr * np.einsum("hcb,lc->hbl", g, ctx).transpose(2, 0, 1)
    model.token_bias -= lr * g.sum(axis=1)
    return loss, norms


def _ref_token_step(model, sample, lr):
    """The token step's definition, one operation at a time: each logit sums
    its products over l in order from 0.0, the softmax's max and exp-sum take
    the bins one after another, each channel's squared-gradient sum runs over
    (h, b) in order, h-major, and the update adds the channel lanes in order."""
    w, x, target = model.token_weights, sample.inputs, sample.target
    channels, bins = x.shape[1], w.shape[2]
    logits = np.zeros((w.shape[1], channels, bins))
    for l in range(x.shape[0]):
        logits = logits + w[l, :, None, :] * x[l, None, :, None]
    logits = logits + model.token_bias[:, None, :]
    top = logits[..., 0]
    for b in range(1, bins):
        top = np.maximum(top, logits[..., b])
    shifted = logits - top[..., None]
    total = np.exp(shifted[..., 0])
    for b in range(1, bins):
        total = total + np.exp(shifted[..., b])
    log_probs = shifted - np.log(total)[..., None]
    h_idx, c_idx = np.indices(target.shape)
    loss = float(-log_probs[h_idx, c_idx, target].mean())
    g = np.exp(log_probs)
    g[h_idx, c_idx, target] -= 1.0
    g = g / target.size
    # left to right in Python floats; sum() compensates from Python 3.12 on
    g_norms = np.array([math.sqrt(functools.reduce(operator.add, (g[:, c] ** 2).ravel().tolist(),
                                                   0.0)) for c in range(channels)])
    norms = np.sqrt((g_norms * np.linalg.norm(x, axis=0)) ** 2)
    update, bias_update = g[None, :, 0] * x[:, 0, None, None], g[:, 0]
    for c in range(1, channels):
        update = update + g[None, :, c] * x[:, c, None, None]
        bias_update = bias_update + g[:, c]
    model.token_weights -= lr * update
    model.token_bias -= lr * bias_update
    return loss, norms


def _sgd_step(model, sample, lr, token_step=_ref_token_step):
    ctx = sample.inputs
    kind = model.loss_kind
    if kind.is_point:
        pred = model.weights @ ctx + model.bias[:, None]
        if sample.stats is not None:
            loss, g_raw = _ref_loss_point(
                kind, pred * sample.stats.scale + sample.stats.shift, sample.target)
            g = g_raw * sample.stats.scale
        else:
            loss, g = _ref_loss_point(kind, pred, sample.target)
        norms = _per_channel_norms(ctx, g)
        model.weights -= lr * (g @ ctx.T)
        model.bias -= lr * g.sum(axis=1)
        return loss, norms
    if kind is LossKind.GAUSSIAN_NLL:
        # forecast's arithmetic, without the Forecast that rejects a std of 0
        mean = model.weights @ ctx + model.bias[:, None]
        std = np.exp(model.sigma_weights @ ctx + model.sigma_bias[:, None])
        loss, (d_mean, d_log_std) = _ref_loss_gaussian_nll(mean, std, sample.target,
                                                           sample.stats)
        norms = _per_channel_norms(ctx, d_mean, d_log_std)
        model.weights -= lr * (d_mean @ ctx.T)
        model.bias -= lr * d_mean.sum(axis=1)
        model.sigma_weights -= lr * (d_log_std @ ctx.T)
        model.sigma_bias -= lr * d_log_std.sum(axis=1)
        return loss, norms
    return token_step(model, sample, lr)


# Reference pool: the per-instance pool preparation that block-wise pools
# replaced, one instance at a time with its own statistics.  The block-wise
# pool must reproduce it bit for bit.

class RefSample(NamedTuple):
    """A reference pool sample; ``stats`` de-normalizes the prediction before
    the loss, None when the loss runs directly on ``target``."""

    inputs: np.ndarray
    target: np.ndarray
    stats: Optional[NormStats] = None


def _ref_instance_stats(context, method):
    if method is Method.REVIN:
        shift, scale = context.mean(axis=0), context.std(axis=0)
    else:
        shift, scale = np.zeros(context.shape[1]), np.abs(context).mean(axis=0)
    return NormStats(shift=shift, scale=np.maximum(scale, SCALE_EPS),
                     scope=Scope.INSTANCE, method=method)


def _ref_normalize(x, stats):
    return (x - stats.shift) / stats.scale


def _reference_pool(windows, scheme, model, clip_threshold=10.0):
    """Reference samples of (context, horizon) windows, in their order, and the
    number rejected."""
    samples, rejected = [], 0
    kind = model.loss_kind
    inst_method = scheme.instance_method
    for context, horizon in windows:
        if kind.is_point:
            if scheme in (Scheme.REVIN, Scheme.MEANABS):
                stats = _ref_instance_stats(context, inst_method)
                ctx = _ref_normalize(context, stats)
                hor = _ref_normalize(horizon, stats)
                if max(np.abs(ctx).max(), np.abs(hor).max()) > clip_threshold:
                    rejected += 1
                    continue
                samples.append(RefSample(ctx, hor))
            elif scheme is Scheme.HYBRID:
                stats = _ref_instance_stats(context, Method.REVIN)
                samples.append(RefSample(_ref_normalize(context, stats), horizon, stats))
            else:
                samples.append(RefSample(context, horizon))
        elif kind is LossKind.GAUSSIAN_NLL:
            if inst_method is not None:
                stats = _ref_instance_stats(context, inst_method)
                ctx = _ref_normalize(context, stats)
            else:
                stats, ctx = raw_stats(context.shape[1]), context
            samples.append(RefSample(ctx, horizon, stats))
        else:
            spec = model.tokenizer
            ctx, hor = context, horizon
            if inst_method is not None:
                stats = _ref_instance_stats(ctx, inst_method)
                ctx, hor = _ref_normalize(ctx, stats), _ref_normalize(hor, stats)
            samples.append(RefSample(detokenize(tokenize(ctx, spec), spec), tokenize(hor, spec)))
    return samples, rejected


def _reference_train(model, windows, scheme, steps, lr, seed, token_step=_ref_token_step):
    model = copy.deepcopy(model)
    samples, rejected = _reference_pool(windows, scheme, model)
    rng = np.random.default_rng(seed)
    losses, grad_norms = np.empty(steps), []
    perm = rng.permutation(len(samples))
    cursor = 0
    for step in range(steps):
        if cursor == len(perm):
            perm = rng.permutation(len(samples))
            cursor = 0
        sample = samples[perm[cursor]]
        cursor += 1
        with np.errstate(over="ignore", invalid="ignore"):
            losses[step], norms = _sgd_step(model, sample, lr, token_step)
        grad_norms.append(norms)
    return model, losses, grad_norms, rejected


class TestKernelsMatchReference:
    @staticmethod
    def _pool(channels):
        rng = np.random.default_rng(70)
        pool = [
            make_window(rng, channels=channels[i % len(channels)],
                        scale=10.0 ** rng.uniform(-1, 1), offset=rng.normal(0, 3))
            for i in range(6)
        ]
        # a horizon spike far past the clip threshold once RevIN-normalized
        spiked = make_window(rng, channels=channels[0])
        spiked[32 + 3] += 40.0
        return window_batch(pool + [spiked], 32)

    @pytest.mark.parametrize("channels", [(2,), (1, 3)], ids=["C2", "C1+C3"])
    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.HYBRID, Scheme.RAW],
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_bitwise_equal_weights_losses_and_grad_norms(self, kind, scheme, channels):
        instances = self._pool(channels)
        spec = TokenizerSpec(num_bins=16, lo=-10.0, hi=10.0)
        model = LinearForecaster.create(kind, 32, 8, seed=8, tokenizer=spec)
        ref_model, ref_losses, ref_norms, ref_rejected = _reference_train(
            model, batch_windows(instances), scheme, steps=40, lr=1e-3, seed=4)
        trained, trace = train(model, instances, scheme, steps=40, lr=1e-3, seed=4)
        assert np.isfinite(ref_losses).all()
        if kind.is_point and scheme is Scheme.REVIN:
            assert ref_rejected == 1
        assert trace.rejected == ref_rejected
        assert trace.losses.tobytes() == ref_losses.tobytes()
        assert len(trace.grad_norms) == len(ref_norms)
        for got, want in zip(trace.grad_norms, ref_norms):
            assert got.tobytes() == want.tobytes()
        for name in ("weights", "bias", "sigma_weights", "sigma_bias",
                     "token_weights", "token_bias"):
            want = getattr(ref_model, name)
            got = getattr(trained, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert got.tobytes() == want.tobytes(), name


class TestLazyTraining:
    """``train`` builds only the samples its steps draw, with the reference's
    bits."""

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("channels", [(2,), (1, 3)], ids=["C2", "C1+C3"])
    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.HYBRID, Scheme.RAW],
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_steps_around_the_pool_size_across_norm_blocks(self, kind, scheme, channels,
                                                            offset, monkeypatch):
        # blocks of three samples: every build crosses blocks and ends on a
        # partial one, and the order of drawn ids interleaves channel counts
        monkeypatch.setattr(data, "WINDOW_BLOCK", 3)
        instances = TestKernelsMatchReference._pool(channels)
        spec = TokenizerSpec(num_bins=16, lo=-10.0, hi=10.0)
        model = LinearForecaster.create(kind, 32, 8, seed=8, tokenizer=spec)
        windows = batch_windows(instances)
        steps = len(_reference_pool(windows, scheme, model)[0]) + offset
        ref_model, ref_losses, ref_norms, ref_rejected = _reference_train(
            model, windows, scheme, steps=steps, lr=1e-3, seed=6)
        trained, trace = train(model, instances, scheme, steps=steps, lr=1e-3, seed=6)
        assert trace.rejected == ref_rejected
        assert trace.losses.tobytes() == ref_losses.tobytes()
        for got, want in zip(trace.grad_norms, ref_norms, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for name in ("weights", "bias", "sigma_weights", "sigma_bias",
                     "token_weights", "token_bias"):
            want = getattr(ref_model, name)
            if want is not None:
                assert getattr(trained, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("scheme", [Scheme.RAW, Scheme.HYBRID, Scheme.REVIN],
                             ids=lambda s: s.value)
    def test_only_drawn_samples_are_built(self, scheme, monkeypatch):
        rng = np.random.default_rng(76)
        datasets = [Dataset(f"d{i}", rng.normal(0.0, 1.0, (400, 2)), "1h", 24, 320)
                    for i in range(3)]
        batch = InstanceBatch.concat(sample_instances(d, 32, 8, 100, seed=i)
                                     for i, d in enumerate(datasets))
        built = []
        pool_rows = models._pool_rows

        def counted(contexts, horizons, *args):
            built.append(len(contexts))
            return pool_rows(contexts, horizons, *args)

        monkeypatch.setattr(models, "_pool_rows", counted)
        model = LinearForecaster.create(LossKind.MAE, 32, 8, seed=1)
        pool, rejected = prepare_training_pool(batch, scheme, model)
        assert built == [] and len(pool) == 300 - rejected
        assert {d.channels for d, ids in pool.groups() if len(ids)} == {2}
        # 40 steps into a first epoch of 300 visit 40 distinct samples
        _, trace = train(model, batch, scheme, steps=40, lr=1e-3, seed=2)
        assert sum(built) == 40 and trace.pool_size == len(pool)
        assert len(built) == 3  # one block per dataset the drawn samples come from


class TestStepBlocks:
    """Steps run in blocks whose losses and gradient norms are reduced after
    the block's last step: across block boundaries every bit is the
    step-by-step reference's, and a divergence reports the step and loss at
    which the reference first goes non-finite."""

    BLOCK = 3

    @pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1],
                             ids=lambda s: f"steps{s}")
    @pytest.mark.parametrize("channels", [(2,), (1, 3)], ids=["C2", "C1+C3"])
    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.HYBRID, Scheme.RAW],
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_bitwise_equal_across_block_boundaries(self, kind, scheme, channels, steps,
                                                   monkeypatch):
        monkeypatch.setattr(models, "STEP_BLOCK", self.BLOCK)
        instances = TestKernelsMatchReference._pool(channels)
        spec = TokenizerSpec(num_bins=16, lo=-10.0, hi=10.0)
        model = LinearForecaster.create(kind, 32, 8, seed=8, tokenizer=spec)
        ref_model, ref_losses, ref_norms, _ = _reference_train(
            model, batch_windows(instances), scheme, steps=steps, lr=1e-3, seed=7)
        trained, trace = train(model, instances, scheme, steps=steps, lr=1e-3, seed=7)
        assert trace.losses.tobytes() == ref_losses.tobytes()
        for got, want in zip(trace.grad_norms, ref_norms, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for name in ("weights", "bias", "sigma_weights", "sigma_bias",
                     "token_weights", "token_bias"):
            want = getattr(ref_model, name)
            if want is not None:
                assert getattr(trained, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("kind, channels, lr, steps, where", [
        (LossKind.MSE, (2,), 0.3, 60, "mid-block"),
        (LossKind.MSE, (2,), 0.2, 60, "block-end"),
        (LossKind.MSE, (2,), 0.3, 26, "partial-block"),
        (LossKind.MSE, (1, 3), 3e-3, 60, "mid-block"),
        (LossKind.GAUSSIAN_NLL, (1, 3), 1e-3, 60, "mid-block"),
    ], ids=["mse-mid-block", "mse-block-end", "mse-partial-block", "mse-C1+C3-mid-block",
            "nll-C1+C3-mid-block"])
    def test_divergence_reports_the_reference_step_and_loss(self, kind, channels, lr, steps,
                                                           where, monkeypatch):
        monkeypatch.setattr(models, "STEP_BLOCK", self.BLOCK)
        rng = np.random.default_rng(53)
        instances = window_batch([make_window(rng, channels=channels[i % len(channels)], scale=1e3)
                                  for i in range(2 * len(channels))], 32)
        model = LinearForecaster.create(kind, 32, 8, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, ref_losses, _, _ = _reference_train(model, batch_windows(instances), Scheme.RAW,
                                                   steps, lr, 0)
        step = int(np.flatnonzero(~np.isfinite(ref_losses))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError) as exc:
                train(model, instances, Scheme.RAW, steps=steps, lr=lr, seed=0)
        assert exc.value.step == step
        assert np.float64(exc.value.loss).tobytes() == ref_losses[step].tobytes()
        # where the step falls in the blocks of three that train runs
        first = step - step % self.BLOCK
        last = min(first + self.BLOCK, steps)
        assert where == ("partial-block" if last - first < self.BLOCK
                         else "block-end" if step == last - 1
                         else "mid-block" if step > first else "block-start")

    @pytest.mark.parametrize("lr, step, nonfinite", [(1e307, 10, np.isinf), (1e308, 1, np.isnan)],
                             ids=["inf-loss", "nan-loss"])
    def test_token_divergence_reports_the_reference_step_and_loss(self, lr, step, nonfinite,
                                                                  monkeypatch):
        # the two-channel kernel, whose logits overflow once the weights do
        monkeypatch.setattr(models, "STEP_BLOCK", self.BLOCK)
        instances = TestKernelsMatchReference._pool((2,))
        spec = TokenizerSpec(num_bins=16, lo=-10.0, hi=10.0)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 32, 8, seed=8, tokenizer=spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, ref_losses, _, _ = _reference_train(model, batch_windows(instances),
                                                   Scheme.REVIN, 40, lr, 7)
        assert int(np.flatnonzero(~np.isfinite(ref_losses))[0]) == step
        assert nonfinite(ref_losses[step])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError) as exc:
                train(model, instances, Scheme.REVIN, steps=40, lr=lr, seed=7)
        assert exc.value.step == step
        assert np.float64(exc.value.loss).tobytes() == ref_losses[step].tobytes()

    def test_stepping_allocates_the_trace_and_a_few_block_buffers(self, monkeypatch):
        # wide's shape: an eight-channel Gaussian head, H = 24 and L = 96
        length, horizon, channels, steps = 96, 24, 8, 300
        rng = np.random.default_rng(78)
        values = Dataset("t", rng.normal(0.0, 1.0, (6000, channels)), "1h", 24, 4800)
        starts = rng.integers(0, 6000 - length - horizon, 256)
        instances = InstanceBatch([(values, starts)], length, horizon)
        model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, length, horizon, seed=1)
        built_at = []
        build = models.build_rows

        def built(*args):
            rows = build(*args)
            built_at.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return rows

        monkeypatch.setattr(models, "build_rows", built)
        tracemalloc.start()
        try:
            _, trace = train(model, instances, Scheme.REVIN, steps=steps, lr=1e-4, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - built_at[0]
        finally:
            tracemalloc.stop()
        # after the rows are built: the trace (a loss, a norms row and its view
        # per step) and a dozen (K, H, C) buffers at K = 64, the block size the
        # wide benchmark's peak RSS was measured at, so a larger block fails here
        assert len(built_at) == 1 and len(trace.grad_norms) == steps
        assert peak <= steps * (8 + 8 * channels + 256) + 12 * 64 * horizon * channels * 8


class TestTokenKernel:
    """The token kernel at the production head, H=24, B=128, L=96: at C = 2
    it keeps the bits of the two-einsum token step, and at other channel
    counts it stays within rounding of them."""

    @staticmethod
    def _windows(length=96, channels=2):
        rng = np.random.default_rng(71)
        return [
            make_window(rng, length=length, horizon=24, channels=channels,
                        scale=10.0 ** rng.uniform(-2, 1), offset=rng.normal(0, 3))
            for _ in range(8)
        ]

    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.HYBRID, Scheme.MEANABS],
                             ids=lambda s: s.value)
    def test_production_shape_matches_einsum_reference(self, scheme):
        instances = window_batch(self._windows(), 96)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        ref_model, ref_losses, ref_norms, _ = _reference_train(
            model, batch_windows(instances), scheme, steps=60, lr=6e-4, seed=5,
            token_step=_einsum_token_step)
        trained, trace = train(model, instances, scheme, steps=60, lr=6e-4, seed=5)
        assert np.isfinite(ref_losses).all()
        assert trace.losses.tobytes() == ref_losses.tobytes()
        for got, want in zip(trace.grad_norms, ref_norms, strict=True):
            assert got.tobytes() == want.tobytes()
        assert not np.array_equal(trained.token_weights, model.token_weights)
        # the model keeps the (L, H, B) weights the kernel trained
        assert trained.token_weights.flags.c_contiguous
        assert trained.token_weights.tobytes() == ref_model.token_weights.tobytes()
        assert trained.token_bias.tobytes() == ref_model.token_bias.tobytes()

    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.HYBRID], ids=lambda s: s.value)
    def test_reference_is_the_einsum_reference_at_two_channels(self, scheme):
        # the definition the kernel is held to, against the two-einsum step
        windows = batch_windows(window_batch(self._windows(), 96))
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        ref_model, ref_losses, ref_norms, _ = _reference_train(
            model, windows, scheme, steps=30, lr=6e-4, seed=5)
        ein_model, ein_losses, ein_norms, _ = _reference_train(
            model, windows, scheme, steps=30, lr=6e-4, seed=5, token_step=_einsum_token_step)
        assert np.isfinite(ref_losses).all()
        assert ref_losses.tobytes() == ein_losses.tobytes()
        for got, want in zip(ref_norms, ein_norms, strict=True):
            assert got.tobytes() == want.tobytes()
        for name in ("token_weights", "token_bias"):
            assert getattr(ref_model, name).tobytes() == getattr(ein_model, name).tobytes()

    @pytest.mark.parametrize("channels", [1, 3, 8])
    def test_other_channel_counts_match_einsum_within_rounding(self, channels):
        instances = window_batch(self._windows(channels=channels), 96)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        ein_model, ein_losses, ein_norms, _ = _reference_train(
            model, batch_windows(instances), Scheme.REVIN, steps=30, lr=6e-4, seed=5,
            token_step=_einsum_token_step)
        trained, trace = train(model, instances, Scheme.REVIN, steps=30, lr=6e-4, seed=5)
        np.testing.assert_allclose(trace.losses, ein_losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.array(trace.grad_norms), np.array(ein_norms),
                                   rtol=1e-12, atol=0)
        for name in ("token_weights", "token_bias"):
            np.testing.assert_allclose(getattr(trained, name), getattr(ein_model, name),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_forecast_of_a_trained_model_copies_no_weights(self, channels):
        windows = self._windows()
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        trained, _ = train(model, window_batch(windows, 96), Scheme.REVIN, steps=4, lr=6e-4,
                           seed=5)
        ctx = np.tile(windows[0][:96], 2)[:, :channels]
        assert self._forecast_peak(trained, ctx) < trained.token_weights.nbytes / 2

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("source", ["created", "read back"])
    def test_forecast_of_an_untrained_model_copies_no_weights(self, source, channels, tmp_path):
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        if source == "read back":
            save_checkpoint(tmp_path / "model.json", model)
            model = models.read_checkpoint(tmp_path / "model.json")
        ctx = self._windows()[0][:96, :channels]
        assert self._forecast_peak(model, ctx) < model.token_weights.nbytes / 2

    def _model(self, source, tmp_path):
        """A production-head token model, created, trained or read back."""
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=9)
        if source == "trained":
            model, _ = train(model, window_batch(self._windows(), 96), Scheme.REVIN, steps=4,
                             lr=6e-4, seed=5)
        elif source == "read back":
            save_checkpoint(tmp_path / "model.json", model)
            model = models.read_checkpoint(tmp_path / "model.json")
        return model

    @pytest.mark.parametrize("source", ["created", "trained", "read back"])
    def test_an_unpickled_model_keeps_its_weight_layout(self, source, tmp_path):
        model = self._model(source, tmp_path)
        back = pickle.loads(pickle.dumps(model))
        for name in ("weights", "bias", "token_weights", "token_bias"):
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes()
        assert back.tokenizer == model.tokenizer
        assert back.token_weights.flags.c_contiguous
        assert self._forecast_peak(back, self._windows()[0][:96]) < back.token_weights.nbytes / 2

    @pytest.mark.parametrize("source", ["created", "trained", "read back"])
    def test_a_deep_copied_model_keeps_its_weight_layout(self, source, tmp_path):
        model = self._model(source, tmp_path)
        back = copy.deepcopy(model)
        assert back.token_weights is not model.token_weights
        assert back.token_weights.shape == (96, 24, 128)
        assert back.token_weights.flags.c_contiguous
        assert back.token_weights.tobytes() == model.token_weights.tobytes()
        assert self._forecast_peak(back, self._windows()[0][:96]) < back.token_weights.nbytes / 2

    @staticmethod
    def _forecast_peak(model, ctx):
        """Bytes allocated at the peak of one ``forecast`` call, after a warm-up
        call: the summation stack and the logits, not a 2.36 MB weight copy."""
        forecast(model, ctx)
        return traced_peak(forecast, model, ctx)[1]

    def test_context_not_a_multiple_of_the_chunk(self):
        instances = window_batch(self._windows(length=37), 37)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 37, 24, seed=9)
        ref_model, ref_losses, _, _ = _reference_train(
            model, batch_windows(instances), Scheme.REVIN, steps=20, lr=6e-4, seed=5)
        trained, trace = train(model, instances, Scheme.REVIN, steps=20, lr=6e-4, seed=5)
        assert trace.losses.tobytes() == ref_losses.tobytes()
        assert trained.token_weights.tobytes() == ref_model.token_weights.tobytes()

    @staticmethod
    def _edge_logits(case, rng, horizon, bins):
        """(H, C, B) logits of an edge case at C = 2, values only."""
        shape = (horizon, 2, bins)
        if case == "scales":
            values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-3, 3, (horizon, 2, 1))
        elif case == "ties":
            # a handful of values per row: the max repeats within most rows
            values = rng.integers(-3, 2, shape) * 0.5
        elif case == "signed-zero-max":
            # each row's maximum is +0.0 alone, -0.0 alone, or both in either order
            values = -rng.uniform(1.0, 5.0, shape)
            for row, zeros in zip(values.reshape(-1, bins),
                                  [(0.0,), (-0.0,), (0.0, -0.0), (-0.0, 0.0)] * horizon):
                row[np.sort(rng.choice(bins, len(zeros), replace=False))] = zeros
        elif case == "underflow":
            # every bin but one sits 800 or more below it: exp underflows, log_z == 0
            values = rng.normal(0.0, 1.0, shape) - rng.uniform(800.0, 900.0, shape)
            top = rng.integers(0, bins, shape[:2])
            values[np.arange(horizon)[:, None], np.arange(2), top] = rng.normal(0.0, 1.0, shape[:2])
        else:
            # overflow: infinities of both signs among finite logits whose range overflows
            values = rng.normal(0.0, 1.0, shape) * 1e308
            values[rng.random(shape) < 0.1] = np.inf
            values[rng.random(shape) < 0.05] = -np.inf
        return values

    @pytest.mark.parametrize("bins", [16, 128])
    @pytest.mark.parametrize("case", ["scales", "ties", "signed-zero-max", "underflow",
                                      "overflow"])
    def test_bins_outer_loss_matches_token_ce_bit_for_bit(self, case, bins):
        rng = np.random.default_rng(79)
        horizon = 24
        with np.errstate(over="ignore"):
            values = self._edge_logits(case, rng, horizon, bins)
        # einsum's layout: (H, C, B) logits in (H, B, C) memory order
        logits = np.empty((horizon, bins, 2)).transpose(0, 2, 1)
        logits[...] = values
        target = rng.integers(0, bins, (horizon, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            want_loss, want_grad = _token_ce(logits, target)
            want_norms = _channel_norms(want_grad, axis=(0, 2))
            grad = np.empty((2, horizon, bins))
            loss, norms = _token_ce_norms(np.ascontiguousarray(logits.transpose(2, 0, 1)),
                                       target, np.indices((horizon, 2)), grad)
        top = logits.max(axis=-1)
        if case == "ties":
            assert ((logits == top[..., None]).sum(axis=-1) > 1).any()
        if case == "signed-zero-max":
            assert (top == 0.0).all() and np.signbit(top).any() and not np.signbit(top).all()
        if case == "underflow":
            assert (np.exp(logits - top[..., None]).sum(axis=-1) == 1.0).all()
        assert np.isfinite(want_loss) == (case != "overflow")
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == np.ascontiguousarray(want_grad.transpose(1, 0, 2)).tobytes()
        assert norms.tobytes() == want_norms.tobytes()

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_forecast_logits_match_einsum_values_and_strides(self, channels):
        rng = np.random.default_rng(72)
        model = LinearForecaster.create(LossKind.TOKEN_CE, 96, 24, seed=10)
        model.token_bias = rng.normal(0.0, 0.1, model.token_bias.shape)
        ctx = rng.normal(0.0, 2.0, (96, channels))
        feats = detokenize(tokenize(ctx, model.tokenizer), model.tokenizer)
        # the definition: each logit sums its products over l in order, from 0.0
        logits = np.zeros((24, channels, 128))
        for l in range(96):
            logits = logits + model.token_weights[l, :, None, :] * feats[l, None, :, None]
        stack = _token_stack(channels, 24, 128)
        raw = _token_logits(model.token_weights, feats, stack)
        assert raw.shape == (channels, 24, 128)
        assert raw.tobytes() == np.ascontiguousarray(logits.transpose(1, 0, 2)).tobytes()
        # einsum sums in the same order from two channels on; at one it rounds
        # otherwise, within the error bound of a sum of 96 products
        ein = np.einsum("hbl,lc->hcb", _hbl(model.token_weights), feats)
        if channels > 1:
            assert ein.tobytes() == np.ascontiguousarray(logits).tobytes()
        magnitude = np.einsum("hbl,lc->hcb", _hbl(np.abs(model.token_weights)), np.abs(feats))
        assert (np.abs(ein - logits) <= 96 * np.finfo(float).eps * magnitude).all()
        logits += model.token_bias[:, None, :]
        want = Forecast(kind=ForecastKind.TOKEN, token_logits=logits,
                        token_spec=model.tokenizer).token_logits
        got = forecast(model, ctx).token_logits
        assert got.shape == want.shape == (24, channels, 128)
        assert got.strides == want.strides
        assert got.tobytes(order="A") == want.tobytes(order="A")


def _assert_rows_equal_reference(rows, ref):
    """Pool rows equal reference samples, bit for bit, input norms included."""
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        inputs, target, scale, shift, in_norms = row
        for name, a, b in (("inputs", inputs, want.inputs), ("target", target, want.target)):
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert (scale is None) == (shift is None) == (want.stats is None)
        if want.stats is not None:
            assert scale.tobytes() == want.stats.scale.tobytes()
            assert shift.tobytes() == want.stats.shift.tobytes()
        # the input norms train used to compute per sample
        want_norms = np.sqrt(np.add.reduce(want.inputs * want.inputs, axis=0))
        assert in_norms.tobytes() == want_norms.tobytes()


class TestPoolMatchesReference:
    """Block-wise pools equal the per-instance reference pool, bit for bit."""

    @staticmethod
    def _instances(channels, length=37, horizon=8):
        rng = np.random.default_rng(73)
        pool = [
            make_window(rng, length=length, horizon=horizon, channels=channels[i % len(channels)],
                        scale=10.0 ** rng.uniform(-3, 2), offset=rng.normal(0, 5))
            for i in range(24)
        ]
        c = channels[0]
        # channel 0 constant over context and horizon: the eps guard, admitted
        flat = make_window(rng, length=length, horizon=horizon, channels=c)
        flat[:, 0] = 3.0
        pool.insert(5, flat)
        # a constant context under a moving horizon, and a horizon spike:
        # both far past the clip threshold once RevIN-normalized
        pool.insert(9, np.concatenate([np.full((length, c), 2.0), np.full((horizon, c), 2.5)]))
        spiked = make_window(rng, length=length, horizon=horizon, channels=c)
        spiked[length + 3] += 40.0
        return window_batch(pool + [spiked], length)

    @pytest.mark.parametrize("channels", [(1,), (2,), (3,), (8,), (1, 3)],
                             ids=["C1", "C2", "C3", "C8", "C1+C3"])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_bitwise_equal_samples_norms_and_rejections(self, kind, scheme, channels,
                                                        monkeypatch):
        instances = self._instances(channels)
        model = LinearForecaster.create(kind, 37, 8, seed=8)
        ref, ref_rejected = _reference_pool(batch_windows(instances), scheme, model)
        if kind.is_point and scheme in (Scheme.REVIN, Scheme.MEANABS):
            assert ref_rejected >= 1
        # one block per channel count, then blocks of 4 that split each group
        for block in (WINDOW_BLOCK, 4):
            monkeypatch.setattr(data, "WINDOW_BLOCK", block)
            pool, rejected = prepare_training_pool(instances, scheme, model)
            assert rejected == ref_rejected
            rows = build_rows(pool, np.arange(len(pool)), scheme, model)
            assert len(pool) == len(ref) == len(rows)
            # each sample built alone, and within the whole pool's blocks
            _assert_rows_equal_reference(
                [build_rows(pool, [i], scheme, model)[0] for i in range(len(pool))], ref)
            _assert_rows_equal_reference(rows, ref)

    @pytest.mark.parametrize("channels", [1, 3], ids=["C1", "C3"])
    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.MEANABS], ids=lambda s: s.value)
    def test_clip_decisions_equal_the_normalized_peak(self, scheme, channels):
        # acceptance criterion 6's plateau series, with scaled copies as more
        # channels: tiny context scales ahead of level jumps
        rng = np.random.default_rng(1006)
        levels = np.repeat([5.0, 50.0, 5.0, 50.0], 300)
        noisy = levels + rng.normal(0, 1e-3, levels.size)
        d = Dataset("plateau", noisy[:, None] * [1.0, 1e-3, 1e3][:channels], "1h", 24, 960)
        batch = sample_instances(d, 96, 24, 400, seed=3)
        pool, rejected = prepare_training_pool(batch, scheme,
                                               LinearForecaster.create(LossKind.MSE, 96, 24))
        # every value normalized first, then its instance's largest |value|
        contexts, horizons = batch.windows(np.arange(len(batch)))
        stats = fit_inference_stats(contexts, scheme.instance_method)
        peak = instance_max_abs(normalize(contexts, stats), normalize(horizons, stats))
        admitted = ~(peak > CLIP_THRESHOLD)
        assert 0 < rejected < len(batch)
        assert rejected == len(batch) - admitted.sum()
        assert pool.starts.tolist() == batch.starts[admitted].tolist()

    def test_shape_mismatch_rejected_before_any_work(self):
        rng = np.random.default_rng(75)
        model = LinearForecaster.create(LossKind.MSE, 32, 8)
        with pytest.raises(ShapeMismatchError):
            prepare_training_pool(window_batch([make_window(rng, length=31)], 31),
                                  Scheme.REVIN, model)

    def test_only_an_instance_batch_is_training_input(self):
        rng = np.random.default_rng(75)
        model = LinearForecaster.create(LossKind.MSE, 32, 8)
        window = make_window(rng)
        for instances in ([window], [(window[:32], window[32:])]):
            with pytest.raises(TypeError, match="InstanceBatch"):
                prepare_training_pool(instances, Scheme.REVIN, model)
            with pytest.raises(TypeError, match="InstanceBatch"):
                train(model, instances, Scheme.REVIN, steps=1, lr=1e-3, seed=0)


class TestPoolSources:
    """A pool over sampled batch parts, with and without a dataset step,
    equals the per-instance reference pool fed the same windows, bit for bit."""

    @staticmethod
    def _batch():
        rng = np.random.default_rng(77)
        # a plateau series: tiny context scales ahead of level jumps, so the
        # clipping schemes reject some draws
        plateau = np.repeat([5.0, 50.0, 5.0, 50.0], 100)[:, None] * [1.0, 3.0]
        datasets = [
            Dataset("wide", rng.normal(0.0, 1.0, (400, 3)) * [1e-3, 1.0, 1e3], "1h", 24, 320),
            Dataset("plateau", plateau + rng.normal(0.0, 1e-3, plateau.shape), "1h", 24, 320),
            Dataset("offset", rng.normal(50.0, 5.0, (400, 2)), "1h", 24, 320),
        ]
        # the first two parts carry a dataset step, the last carries none
        stats = [fit_dataset_stats(datasets[0], Method.STANDARDIZATION),
                 fit_dataset_stats(datasets[1], Method.MINMAX), None]
        batch = InstanceBatch.concat(sample_instances(d, 32, 8, 30, seed=i, stats=st)
                                     for i, (d, st) in enumerate(zip(datasets, stats)))
        # the reference reads each dataset-step part from its whole normalized matrix
        wholes = {d.name: normalize(d.values, st)
                  for d, st in zip(datasets, stats) if st is not None}
        return batch, batch_windows(batch, wholes)

    @pytest.mark.parametrize("block", [WINDOW_BLOCK, 4])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_batch_rows_equal_the_reference_pool(self, kind, scheme, block, monkeypatch):
        monkeypatch.setattr(data, "WINDOW_BLOCK", block)
        batch, windows = self._batch()
        spec = TokenizerSpec(num_bins=16, lo=-10.0, hi=10.0)
        model = LinearForecaster.create(kind, 32, 8, seed=8, tokenizer=spec)
        pool, rejected = prepare_training_pool(batch, scheme, model)
        ref, ref_rejected = _reference_pool(windows, scheme, model)
        assert rejected == ref_rejected
        if kind.is_point and scheme.clips:
            assert rejected > 0
        assert len(pool) == len(ref)
        assert {d.channels for d, ids in pool.groups() if len(ids)} == {2, 3}
        _assert_rows_equal_reference(build_rows(pool, np.arange(len(pool)), scheme, model), ref)


class TestPoolMemory:
    """A pool allocates its output and a few blocks of temporaries, not a stack
    of every context: 5,120 x 96 x 8 windows, as one withheld set of a wide
    eight-channel corpus trains on.  Preparing a lazy pool allocates no
    sample at all."""

    @pytest.mark.parametrize("scheme", [Scheme.REVIN, Scheme.RAW], ids=lambda s: s.value)
    def test_peak_is_output_plus_a_bounded_block(self, scheme):
        length, horizon, channels, count = 96, 24, 8, 5120
        rng = np.random.default_rng(74)
        values = Dataset("t", rng.normal(0.0, 1.0, (6000, channels)), "1h", 24, 4800)
        starts = rng.integers(0, 6000 - length - horizon, count)
        batch = InstanceBatch([(values, starts)], length, horizon)
        model = LinearForecaster.create(LossKind.MAE, length, horizon)
        (pool, _), peak = traced_peak(prepare_training_pool, batch, scheme, model)
        window_bytes = (length + horizon) * channels * 8
        # preparing makes the clip decisions only
        assert len(pool) == count
        assert peak <= 4 * WINDOW_BLOCK * window_bytes + 512 * count
        every = np.arange(len(pool))
        rows, peak = traced_peak(build_rows, pool, every, scheme, model)
        # RevIN's normalized contexts and horizons are new arrays; raw's rows
        # are rows of its fancy-indexed blocks, which the rows keep alive
        output = count * window_bytes
        assert len(rows) == count
        assert peak <= output + 4 * WINDOW_BLOCK * window_bytes + 512 * count
