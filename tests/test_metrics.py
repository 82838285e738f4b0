import numpy as np
import pytest

from tsnorm import improvement, mase, naive_mae
from tsnorm.core import ShapeMismatchError
from tsnorm.metrics import NAIVE_EPS, WindowTooShortError, ZeroReferenceError

from conftest import col


def brute_force_mase(forecast, actual, context, m):
    """Independent loop-based MASE: per-channel scaled MAE, averaged over channels."""
    forecast, actual, context = (np.asarray(a, dtype=float) for a in (forecast, actual, context))
    per_channel = []
    for c in range(forecast.shape[1]):
        num = 0.0
        for h in range(forecast.shape[0]):
            num += abs(forecast[h, c] - actual[h, c])
        num /= forecast.shape[0]
        den = 0.0
        for t in range(m, context.shape[0]):
            den += abs(context[t, c] - context[t - m, c])
        den /= context.shape[0] - m
        per_channel.append(num / max(den, NAIVE_EPS))
    return sum(per_channel) / len(per_channel)


class TestNaiveMae:
    def test_lag_one(self):
        np.testing.assert_allclose(naive_mae(col(1, 2, 3), 1), [1.0], atol=1e-15)

    def test_constant_context_floors_at_eps(self):
        assert naive_mae(col(5, 5, 5), 1)[0] == NAIVE_EPS

    def test_perfect_seasonal_repeat_floors_at_eps(self):
        assert naive_mae(col(1, 2, 1, 2), 2)[0] == NAIVE_EPS

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            naive_mae(col(1, 2), 2)
        with pytest.raises(WindowTooShortError):
            naive_mae(col(1, 2, 3), 0)


class TestMase:
    def test_hand_example(self):
        assert mase(col(3, 3), col(2, 4), np.array([1.0])) == 1.0

    def test_perfect_forecast_is_zero(self):
        assert mase(col(2, 4), col(2, 4), np.array([1.0])) == 0.0

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            h, c, L = rng.integers(1, 8), rng.integers(1, 4), rng.integers(8, 30)
            m = int(rng.integers(1, 4))
            context = rng.normal(3.0, 2.0, (L, c))
            actual = rng.normal(3.0, 2.0, (h, c))
            forecast = actual + rng.normal(0.0, 1.0, (h, c))
            ours = mase(forecast, actual, naive_mae(context, m))
            oracle = brute_force_mase(forecast, actual, context, m)
            assert abs(ours - oracle) <= 1e-9

    def test_joint_rescaling_invariance(self):
        rng = np.random.default_rng(321)
        context = rng.normal(10.0, 4.0, (40, 3))
        actual = rng.normal(10.0, 4.0, (8, 3))
        forecast = actual + rng.normal(0.0, 2.0, (8, 3))
        base = mase(forecast, actual, naive_mae(context, 2))
        for c in (1e-3, 7.0, 1e3):
            scaled = mase(c * forecast, c * actual, naive_mae(c * context, 2))
            assert abs(scaled - base) <= 1e-9 * max(1.0, base)

    def test_seasonal_naive_forecast_oracle(self):
        # forecasting the horizon with the context's seasonal naive gives
        # horizon-naive-MAE / context-naive-MAE by construction
        rng = np.random.default_rng(5)
        m, L, H = 4, 32, 4
        series = rng.normal(0.0, 1.0, (L + H, 2))
        context, horizon = series[:L], series[L:]
        naive_forecast = series[L - m : L - m + H]
        expected = np.abs(naive_forecast - horizon).mean(axis=0) / naive_mae(context, m)
        got = mase(naive_forecast, horizon, naive_mae(context, m))
        assert abs(got - expected.mean()) <= 1e-12

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatchError):
            mase(col(1, 2), col(1, 2, 3), np.array([1.0]))
        with pytest.raises(ShapeMismatchError):
            mase(col(1, 2), col(1, 2), np.array([1.0, 2.0]))


def mean_form_mase(forecast, actual, naive) -> float:
    """``metrics.mase``'s arithmetic in its ``np.mean`` form: the bitwise
    reference for its ``np.add.reduce`` form."""
    per_channel = np.abs(forecast - actual).mean(axis=0) / naive
    return float(per_channel.mean())


class TestMaseMatchesTheMeanForm:
    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    @pytest.mark.parametrize("horizon", [1, 24, 96])
    def test_bitwise_equal_over_every_magnitude(self, horizon, channels):
        rng = np.random.default_rng(1000 * horizon + channels)
        with np.errstate(over="ignore"):  # 1e300 / 1e-8 is inf in both forms
            for _ in range(60):
                magnitude = 10.0 ** rng.uniform(-300, 300)
                actual = rng.normal(0.0, 1.0, (horizon, channels)) * magnitude
                forecast = actual + rng.normal(0.0, 1.0, (horizon, channels)) * magnitude
                naive = np.abs(rng.normal(0.0, 1.0, channels)) * 10.0 ** rng.uniform(
                    -300, 300, channels)
                floored = rng.random(channels) < 0.3
                naive = np.where(floored, NAIVE_EPS, np.maximum(naive, NAIVE_EPS))
                got = mase(forecast, actual, naive)
                want = mean_form_mase(forecast, actual, naive)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestImprovement:
    def test_halving(self):
        assert improvement(2.0, 1.0) == 50.0

    def test_reported_aggregate_pair(self):
        # zero-shot average 9.38 for the un-normalized baseline vs 1.02 for
        # window standardization: an 89.1% drop
        assert abs(improvement(9.38, 1.02) - 89.1) < 0.05

    def test_self_comparison_is_zero(self):
        assert improvement(3.3, 3.3) == 0.0

    def test_sign_follows_difference(self):
        assert improvement(1.0, 2.0) < 0.0
        assert improvement(2.0, 1.0) > 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReferenceError):
            improvement(0.0, 1.0)
