import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tsnorm import (
    Dataset,
    LinearForecaster,
    LossKind,
    Method,
    NormStats,
    Scheme,
    Scope,
    denormalize,
    fit_dataset_stats,
    fit_inference_stats,
    loss_gaussian_nll,
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
from tsnorm.models import build_rows, prepare_training_pool
from tsnorm.norm import DegenerateChannelWarning, StatsOverflowError, WrongMethodError

from conftest import col, window_batch

HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))


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

    @pytest.mark.parametrize("method, magnitude", [
        (Method.STANDARDIZATION, 1e200),  # the variance overflows at |x| ~ 1e154
        (Method.MINMAX, 1.5e308),  # max - min overflows
    ])
    def test_overflowing_statistics_name_the_dataset_and_method(self, method, magnitude):
        noise = np.random.default_rng(0).normal(0.0, 1.0, (500, 2))
        values = (500.0 + 2.0 * noise) * magnitude if magnitude < 1e300 else np.sign(noise) * magnitude
        big = Dataset("big", values, "1h", 24, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning leaks
            with pytest.raises(StatsOverflowError) as raised:
                fit_dataset_stats(big, method)
        assert str(raised.value) == (
            f"dataset 'big': {method.value} statistics of its train rows overflow float64")
        assert isinstance(raised.value, NonFiniteError)


class TestFitInstanceStats:
    def test_revin_population_sigma(self):
        s = fit_inference_stats(col(10, 12, 14), Method.REVIN)
        assert s.scope is Scope.INSTANCE
        np.testing.assert_allclose(s.shift, [12.0], atol=1e-12)
        np.testing.assert_allclose(s.scale, [1.632993161855452], atol=1e-12)

    def test_meanabs(self):
        s = fit_inference_stats(col(-2, 4), Method.MEANABS)
        np.testing.assert_array_equal(s.shift, [0.0])
        np.testing.assert_array_equal(s.scale, [3.0])

    def test_constant_window_eps_guard(self):
        s = fit_inference_stats(col(5, 5, 5), Method.REVIN)
        assert s.shift[0] == 5.0 and s.scale[0] == SCALE_EPS


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
        stats = fit_inference_stats(col(10, 12, 14), Method.REVIN)
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
            stats = fit_inference_stats(x, method)
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
        z = normalize(ctx, fit_inference_stats(ctx, Method.REVIN))
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
    """A Gaussian forecast in normalized space is scored as N(scale * mean +
    shift, scale * std): the mean maps through ``denormalize`` and the std
    through the scale, which the value of ``loss_gaussian_nll`` shows."""

    @staticmethod
    def _gaussian(mean, std):
        return Forecast(kind=ForecastKind.GAUSSIAN,
                        gauss_mean=np.full((1, 1), mean), gauss_std=np.full((1, 1), std))

    def test_affine_transform(self):
        f = self._gaussian(0.0, 1.0)
        stats = NormStats([12.0], [2.0], Scope.INSTANCE, Method.REVIN)
        assert denormalize(f.gauss_mean, stats)[0, 0] == 12.0
        # N(12, 2): log 2 at the mean, plus z^2 / 2 = 0.5 one std away
        at_mean, _ = loss_gaussian_nll(f, np.full((1, 1), 12.0), stats)
        one_std, _ = loss_gaussian_nll(f, np.full((1, 1), 14.0), stats)
        assert at_mean == pytest.approx(HALF_LOG_2PI + np.log(2.0), abs=1e-15)
        assert one_std == pytest.approx(HALF_LOG_2PI + np.log(2.0) + 0.5, abs=1e-15)

    def test_scale_multiplies_std(self):
        f = self._gaussian(0.0, 0.5)
        stats = NormStats([0.0], [4.0], Scope.INSTANCE, Method.REVIN)
        loss, _ = loss_gaussian_nll(f, np.zeros((1, 1)), stats)
        assert loss == pytest.approx(HALF_LOG_2PI + np.log(2.0), abs=1e-15)

    def test_raw_identity(self):
        f = Forecast(kind=ForecastKind.GAUSSIAN,
                     gauss_mean=np.full((2, 1), 3.0), gauss_std=np.full((2, 1), 1.5))
        np.testing.assert_array_equal(denormalize(f.gauss_mean, raw_stats(1)), f.gauss_mean)
        target = np.array([[3.0], [6.0]])
        z = (target - 3.0) / 1.5
        loss, _ = loss_gaussian_nll(f, target, raw_stats(1))
        assert loss == pytest.approx(np.mean(HALF_LOG_2PI + np.log(1.5) + 0.5 * z * z),
                                     abs=1e-15)

    def test_kind_mismatch(self):
        f = Forecast(kind=ForecastKind.POINT, point=np.zeros((2, 1)))
        with pytest.raises(KindMismatchError):
            loss_gaussian_nll(f, np.zeros((2, 1)), raw_stats(1))


def _point_pool(window, context_len, scheme):
    """(rows, rejected) of one (L + H, C) window, context rows first, under
    ``scheme`` for a point model: the pool's rows (inputs, target, scale,
    shift, input norms), none if rejected."""
    model = LinearForecaster.create(LossKind.MSE, context_len, len(window) - context_len)
    pool, rejected = prepare_training_pool(window_batch([window], context_len), scheme, model)
    return build_rows(pool, np.arange(len(pool)), scheme, model), rejected


class TestClippedInstanceNormalize:
    """Point models under revin normalize context and horizon with the
    context's statistics and reject an instance beyond the clip threshold."""

    def test_near_constant_context_rejected(self):
        rows, rejected = _point_pool(col(0, 0, 0, 100), 3, Scheme.REVIN)
        assert rejected == 1 and rows == []  # 100 / eps is far beyond 10

    def test_plain_window_accepted(self):
        rows, rejected = _point_pool(col(10, 12, 14, 12), 3, Scheme.REVIN)
        assert rejected == 0
        _, target, *_ = rows[0]
        assert abs(target[0, 0]) < 1e-12

    def test_threshold_boundary(self):
        # the context has mean 0 and std 1, so the horizon keeps its value
        assert _point_pool(col(-1, 1, 10.0), 2, Scheme.REVIN)[1] == 0
        assert _point_pool(col(-1, 1, 10.000001), 2, Scheme.REVIN)[1] == 1

    def test_any_channel_violation_rejects(self):
        ctx = np.column_stack([[10.0, 12.0, 14.0], [0.0, 0.0, 0.0]])
        hor = np.array([[12.0, 100.0]])
        assert _point_pool(np.vstack([ctx, hor]), 3, Scheme.REVIN)[1] == 1


class TestHybridNormalize:
    """The hybrid pool row of an instance cut from a standardized dataset is
    RevIN on the standardized context; its target stays standardized, for the
    loss to compare with the de-normalized prediction."""

    @staticmethod
    def _by_hand(window, ds):
        standardized = normalize(window, ds)
        ctx, hor = standardized[:-1], standardized[-1:]
        stats = fit_inference_stats(ctx, Method.REVIN)
        rows, rejected = _point_pool(standardized, len(window) - 1, Scheme.HYBRID)
        assert rejected == 0
        return rows[0], normalize(ctx, stats), stats, hor

    def test_identity_dataset_step_matches_plain_revin(self):
        window = col(10, 12, 14, 13)
        ds = NormStats([0.0], [1.0], Scope.DATASET, Method.STANDARDIZATION)
        (inputs, _, scale, shift, _), _, stats, _ = self._by_hand(window, ds)
        plain, _ = _point_pool(window, len(window) - 1, Scheme.REVIN)
        assert inputs.tobytes() == plain[0][0].tobytes()
        # the row de-normalizes with the context's RevIN statistics
        assert scale.tobytes() == stats.scale.tobytes()
        assert shift.tobytes() == stats.shift.tobytes()

    def test_composition(self):
        window = col(100, 104, 108, 112)
        ds = NormStats([100.0], [4.0], Scope.DATASET, Method.STANDARDIZATION)
        row, inputs, stats, hor = self._by_hand(window, ds)
        got_inputs, target, scale, shift, _ = row
        np.testing.assert_allclose(
            got_inputs, col(-1.224744871391589, 0.0, 1.224744871391589), atol=1e-12
        )
        np.testing.assert_allclose(shift, [1.0], atol=1e-12)
        assert got_inputs.tobytes() == inputs.tobytes()
        assert shift.tobytes() == stats.shift.tobytes()
        assert scale.tobytes() == stats.scale.tobytes()
        assert target.tobytes() == hor.tobytes()

    def test_constant_standardized_context_guard(self):
        ds = NormStats([0.0], [1.0], Scope.DATASET, Method.STANDARDIZATION)
        (_, _, scale, _, _), _, _, _ = self._by_hand(col(7, 7, 7, 7), ds)
        assert scale[0] == SCALE_EPS


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
