import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tsnorm import (
    Dataset,
    Instance,
    Method,
    NormStats,
    Scope,
    clipped_instance_normalize,
    denormalize,
    denormalize_gaussian,
    fit_dataset_stats,
    fit_inference_stats,
    fit_instance_stats,
    hybrid_normalize,
    normalize,
    raw_stats,
)
from tsnorm.core import (
    SCALE_EPS,
    Forecast,
    ForecastKind,
    KindMismatchError,
    NonFiniteError,
    ShapeMismatchError,
)
from tsnorm.metrics import naive_mae
from tsnorm.norm import INSTANCE_METHODS, DegenerateChannelWarning, WrongMethodError

from conftest import col


def dataset_from(values, split=None):
    values = np.asarray(values, dtype=np.float64)
    split = split if split is not None else values.shape[0]
    # pad one test row so the split is valid
    padded = np.vstack([values, values[-1:]])
    return Dataset("d", padded, "1h", 1, split)


class TestFitDatasetStats:
    def test_standardization_population_sigma(self):
        d = dataset_from(col(1, 2, 3, 4, 5), split=5)
        s = fit_dataset_stats(d, Method.STANDARDIZATION)
        assert s.scope is Scope.DATASET
        np.testing.assert_allclose(s.shift, [3.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(s.scale, [1.4142135623730951], rtol=0, atol=1e-12)

    def test_minmax(self):
        s = fit_dataset_stats(dataset_from(col(2, 4, 6), split=3), Method.MINMAX)
        np.testing.assert_array_equal(s.shift, [2.0])
        np.testing.assert_array_equal(s.scale, [4.0])

    def test_maxabs(self):
        s = fit_dataset_stats(dataset_from(col(-4, 2), split=2), Method.MAXABS)
        np.testing.assert_array_equal(s.shift, [0.0])
        np.testing.assert_array_equal(s.scale, [4.0])

    def test_train_rows_only(self):
        # test rows carry an enormous value that must not affect the stats
        values = col(1, 2, 3, 1000)
        d = Dataset("d", values, "1h", 1, 3)
        s = fit_dataset_stats(d, Method.MINMAX)
        np.testing.assert_array_equal(s.shift, [1.0])
        np.testing.assert_array_equal(s.scale, [2.0])

    def test_degenerate_channel_warns_not_fails(self):
        d = dataset_from(col(5, 5, 5), split=3)
        with pytest.warns(DegenerateChannelWarning):
            s = fit_dataset_stats(d, Method.STANDARDIZATION)
        assert s.scale[0] == SCALE_EPS

    def test_instance_method_rejected(self):
        with pytest.raises(WrongMethodError):
            fit_dataset_stats(dataset_from(col(1, 2)), Method.REVIN)


class TestFitInstanceStats:
    def test_revin_population_sigma(self):
        s = fit_instance_stats(col(10, 12, 14), Method.REVIN)
        assert s.scope is Scope.INSTANCE
        np.testing.assert_allclose(s.shift, [12.0], atol=1e-12)
        np.testing.assert_allclose(s.scale, [1.632993161855452], atol=1e-12)

    def test_meanabs(self):
        s = fit_instance_stats(col(-2, 4), Method.MEANABS)
        np.testing.assert_array_equal(s.shift, [0.0])
        np.testing.assert_array_equal(s.scale, [3.0])

    def test_constant_window_eps_guard(self):
        s = fit_instance_stats(col(5, 5, 5), Method.REVIN)
        assert s.shift[0] == 5.0 and s.scale[0] == SCALE_EPS

    def test_dataset_method_rejected(self):
        with pytest.raises(WrongMethodError):
            fit_instance_stats(col(1, 2), Method.MINMAX)


class TestNormalizeDenormalize:
    def test_minmax_forward(self):
        stats = NormStats([2.0], [4.0], Scope.DATASET, Method.MINMAX)
        np.testing.assert_allclose(
            normalize(col(2, 4, 6), stats), col(0.0, 0.5, 1.0), atol=1e-15
        )

    def test_raw_identity(self):
        x = col(3.5, -2.0, 7.25)
        np.testing.assert_array_equal(normalize(x, raw_stats(1)), x)
        np.testing.assert_array_equal(denormalize(x, raw_stats(1)), x)

    def test_revin_forward(self):
        stats = fit_instance_stats(col(10, 12, 14), Method.REVIN)
        np.testing.assert_allclose(
            normalize(col(10, 12, 14), stats),
            col(-1.224744871391589, 0.0, 1.224744871391589),
            atol=1e-12,
        )

    def test_denormalize_inverts(self):
        stats = NormStats([2.0], [4.0], Scope.DATASET, Method.MINMAX)
        np.testing.assert_allclose(
            denormalize(col(0.0, 0.5, 1.0), stats), col(2, 4, 6), atol=1e-15
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        x = rng.normal(5.0, 3.0, (64, 3))
        for method in (Method.STANDARDIZATION, Method.MINMAX, Method.MAXABS):
            d = Dataset("d", x, "1h", 1, 63)
            stats = fit_dataset_stats(d, method)
            back = denormalize(normalize(x, stats), stats)
            np.testing.assert_allclose(back, x, rtol=1e-9)
        for method in (Method.REVIN, Method.MEANABS):
            stats = fit_instance_stats(x, method)
            back = denormalize(normalize(x, stats), stats)
            np.testing.assert_allclose(back, x, rtol=1e-9)

    def test_shape_mismatch(self):
        stats = raw_stats(2)
        with pytest.raises(ShapeMismatchError):
            normalize(col(1, 2, 3), stats)
        with pytest.raises(ShapeMismatchError):
            denormalize(col(1, 2, 3), stats)


class TestMomentProperties:
    def test_standardization_train_moments(self):
        rng = np.random.default_rng(7)
        values = rng.normal(12.0, 4.0, (200, 3))
        d = Dataset("d", values, "1h", 1, 160)
        stats = fit_dataset_stats(d, Method.STANDARDIZATION)
        z = normalize(d.train_values, stats)
        assert np.abs(z.mean(axis=0)).max() <= 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-9

    def test_minmax_extremes_exact(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-3.0, 9.0, (100, 2))
        d = Dataset("d", values, "1h", 1, 99)
        z = normalize(d.train_values, fit_dataset_stats(d, Method.MINMAX))
        assert (z.min(axis=0) == 0.0).all()
        assert (z.max(axis=0) == 1.0).all()

    def test_maxabs_extreme_and_sign(self):
        rng = np.random.default_rng(9)
        values = rng.normal(0.0, 5.0, (100, 2))
        d = Dataset("d", values, "1h", 1, 99)
        z = normalize(d.train_values, fit_dataset_stats(d, Method.MAXABS))
        assert (np.abs(z).max(axis=0) == 1.0).all()
        assert (np.sign(z) == np.sign(d.train_values)).all()

    def test_revin_window_moments(self):
        rng = np.random.default_rng(10)
        ctx = rng.normal(100.0, 17.0, (96, 4))
        z = normalize(ctx, fit_instance_stats(ctx, Method.REVIN))
        assert np.abs(z.mean(axis=0)).max() <= 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-9

    def test_zero_preservation_for_shiftless_methods(self):
        ctx = col(0.0, 3.0, -6.0, 0.0)
        for method in (Method.MEANABS, Method.MAXABS):
            stats = fit_inference_stats(ctx, method)
            z = normalize(ctx, stats)
            assert z[0, 0] == 0.0 and z[3, 0] == 0.0

    def test_positive_scaling_equivariance(self):
        rng = np.random.default_rng(11)
        ctx = rng.normal(2.0, 1.5, (48, 2))
        for method in (Method.REVIN, Method.MEANABS, Method.MAXABS,
                       Method.MINMAX, Method.STANDARDIZATION):
            base = normalize(ctx, fit_inference_stats(ctx, method))
            for c in (4.0, 0.25):  # exact powers of two keep float ops exact
                scaled = normalize(c * ctx, fit_inference_stats(c * ctx, method))
                np.testing.assert_array_equal(scaled, base)

    def test_shift_equivariance_for_shifted_methods(self):
        rng = np.random.default_rng(12)
        ctx = rng.normal(0.0, 1.0, (48, 2))
        for method in (Method.REVIN, Method.STANDARDIZATION, Method.MINMAX):
            base = normalize(ctx, fit_inference_stats(ctx, method))
            shifted = normalize(ctx + 64.0, fit_inference_stats(ctx + 64.0, method))
            np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestDenormalizeGaussian:
    def test_affine_transform(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.zeros((1, 1)), gauss_std=np.ones((1, 1)))
        stats = NormStats([12.0], [2.0], Scope.INSTANCE, Method.REVIN)
        out = denormalize_gaussian(f, stats)
        assert out.gauss_mean[0, 0] == 12.0 and out.gauss_std[0, 0] == 2.0

    def test_scale_multiplies_std(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.zeros((1, 1)), gauss_std=np.full((1, 1), 0.5))
        stats = NormStats([0.0], [4.0], Scope.INSTANCE, Method.REVIN)
        assert denormalize_gaussian(f, stats).gauss_std[0, 0] == 2.0

    def test_raw_identity(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.full((2, 1), 3.0), gauss_std=np.full((2, 1), 1.5))
        out = denormalize_gaussian(f, raw_stats(1))
        np.testing.assert_array_equal(out.gauss_mean, f.gauss_mean)
        np.testing.assert_array_equal(out.gauss_std, f.gauss_std)

    def test_kind_mismatch(self):
        f = Forecast(kind=ForecastKind.POINT, point=np.zeros((2, 1)))
        with pytest.raises(KindMismatchError):
            denormalize_gaussian(f, raw_stats(1))


class TestClippedInstanceNormalize:
    def test_near_constant_context_rejected(self):
        inst = Instance(context=col(0, 0, 0), horizon=col(100), origin=("d", 0))
        out = clipped_instance_normalize(inst, Method.REVIN)
        assert out.rejected
        assert out.max_abs > 1e9  # 100 / eps

    def test_plain_window_accepted(self):
        inst = Instance(context=col(10, 12, 14), horizon=col(12), origin=("d", 0))
        out = clipped_instance_normalize(inst, Method.REVIN)
        assert not out.rejected
        assert abs(out.normalized.horizon[0, 0]) < 1e-12

    def test_threshold_boundary(self):
        inst = Instance(context=col(10, 12, 14), horizon=col(12), origin=("d", 0))
        out = clipped_instance_normalize(inst, Method.REVIN, clip_threshold=10.0)
        assert out.max_abs <= 10.0 and not out.rejected

    def test_any_channel_violation_rejects(self):
        ctx = np.column_stack([[10.0, 12.0, 14.0], [0.0, 0.0, 0.0]])
        hor = np.array([[12.0, 100.0]])
        out = clipped_instance_normalize(
            Instance(context=ctx, horizon=hor, origin=("d", 0)), Method.REVIN
        )
        assert out.rejected


class TestHybridNormalize:
    def test_identity_dataset_step_matches_plain_revin(self):
        ctx = col(10, 12, 14)
        ds = NormStats([0.0], [1.0], Scope.DATASET, Method.STANDARDIZATION)
        hybrid_out, inst = hybrid_normalize(ctx, ds)
        plain = normalize(ctx, fit_instance_stats(ctx, Method.REVIN))
        np.testing.assert_array_equal(hybrid_out, plain)
        assert inst.method is Method.REVIN

    def test_composition(self):
        ctx = col(100, 104, 108)
        ds = NormStats([100.0], [4.0], Scope.DATASET, Method.STANDARDIZATION)
        out, inst = hybrid_normalize(ctx, ds)
        np.testing.assert_allclose(
            out, col(-1.224744871391589, 0.0, 1.224744871391589), atol=1e-12
        )
        np.testing.assert_allclose(inst.shift, [1.0], atol=1e-12)

    def test_constant_standardized_context_guard(self):
        ctx = col(7, 7, 7)
        ds = NormStats([0.0], [1.0], Scope.DATASET, Method.STANDARDIZATION)
        _, inst = hybrid_normalize(ctx, ds)
        assert inst.scale[0] == SCALE_EPS

    def test_wrong_method_rejected(self):
        ds = NormStats([0.0], [1.0], Scope.DATASET, Method.MINMAX)
        with pytest.raises(WrongMethodError):
            hybrid_normalize(col(1, 2), ds)
        inst_scoped = NormStats([0.0], [1.0], Scope.INSTANCE, Method.STANDARDIZATION)
        with pytest.raises(WrongMethodError):
            hybrid_normalize(col(1, 2), inst_scoped)


class TestInferenceStats:
    def test_statistic_family_substitution(self):
        ctx = col(2, 4, 6)
        minmax = fit_inference_stats(ctx, Method.MINMAX)
        np.testing.assert_array_equal(minmax.shift, [2.0])
        np.testing.assert_array_equal(minmax.scale, [4.0])
        maxabs = fit_inference_stats(ctx, Method.MAXABS)
        np.testing.assert_array_equal(maxabs.scale, [6.0])
        std = fit_inference_stats(ctx, Method.STANDARDIZATION)
        np.testing.assert_allclose(std.shift, [4.0], atol=1e-12)
        raw = fit_inference_stats(ctx, Method.RAW)
        assert raw.method is Method.RAW


class TestBlockWindowStats:
    """Statistics of an (N, L, C) block of windows equal each window's own,
    bit for bit."""

    @staticmethod
    def _windows(channels, length=37, stride=5):
        rng = np.random.default_rng(80)
        series = (rng.normal(0.0, 1.0, (400, channels)) * 10.0 ** rng.uniform(-3, 3, channels)
                  + rng.normal(0.0, 50.0, channels))
        series[100:180, 0] = 7.0  # some windows hold a constant channel: the eps guard
        # overlapping windows as a strided view, the way evaluation takes them
        return sliding_window_view(series, length, axis=0)[::stride].transpose(0, 2, 1)

    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_block_equals_per_window(self, method, channels):
        block = self._windows(channels)
        stats = fit_inference_stats(block, method)
        assert stats.shift.shape == stats.scale.shape == (len(block), channels)
        assert stats.channels == channels
        normed = normalize(block, stats)
        back = denormalize(normed, stats)
        for i, window in enumerate(block):
            one = fit_inference_stats(window, method)
            assert stats.shift[i].tobytes() == one.shift.tobytes()
            assert stats.scale[i].tobytes() == one.scale.tobytes()
            assert normed[i].tobytes() == normalize(window, one).tobytes()
            assert back[i].tobytes() == denormalize(normalize(window, one), one).tobytes()
        if method in INSTANCE_METHODS:
            inst = fit_instance_stats(block, method)
            assert inst.shift.tobytes() == stats.shift.tobytes()
            assert inst.scale.tobytes() == stats.scale.tobytes()

    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    def test_naive_mae_block_equals_per_window(self, channels):
        block = self._windows(channels)
        naive = naive_mae(block, 24)
        assert naive.shape == (len(block), channels)
        for i, window in enumerate(block):
            assert naive[i].tobytes() == naive_mae(window, 24).tobytes()

    def test_block_is_validated_with_the_per_window_errors(self):
        block = self._windows(2).copy()
        block[3, 5, 1] = np.nan
        with pytest.raises(NonFiniteError):
            fit_inference_stats(block, Method.REVIN)
        stats = fit_inference_stats(block[4:], Method.REVIN)
        with pytest.raises(ShapeMismatchError):
            normalize(block[:2], stats)  # statistics of another number of windows
        with pytest.raises(ShapeMismatchError):
            normalize(block[4], stats)  # one window against block statistics
