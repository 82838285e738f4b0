import pickle

import numpy as np
import pytest

from tsnorm import (
    Dataset,
    EvalEntry,
    EvalReport,
    Forecast,
    ForecastKind,
    Method,
    NormStats,
    Scope,
    Setting,
    TsnormError,
    raw_stats,
    validate_dataset,
)
from tsnorm.core import BadPeriodError, BadSplitError, KindMismatchError, NonFiniteError
from tsnorm.data import ParseError, RaggedRowError
from tsnorm.models import DivergedError
from tsnorm.norm import StatsOverflowError

from conftest import col


class TestDataset:
    def test_minimal_valid(self):
        d = Dataset("a", col(1, 2, 3), "1h", 1, 2)
        assert validate_dataset(d) is d
        assert d.length == 3 and d.channels == 1

    def test_nan_cell_named(self):
        values = np.ones((3, 2))
        values[1, 0] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            Dataset("a", values, "1h", 1, 2)
        assert exc.value.row == 1 and exc.value.col == 0

    def test_inf_rejected(self):
        values = np.ones((4, 1))
        values[3, 0] = np.inf
        with pytest.raises(NonFiniteError):
            Dataset("a", values, "1h", 1, 2)

    def test_split_at_length_rejected(self):
        with pytest.raises(BadSplitError):
            Dataset("a", col(1, 2, 3), "1h", 1, 3)

    def test_split_at_zero_rejected(self):
        with pytest.raises(BadSplitError):
            Dataset("a", col(1, 2, 3), "1h", 1, 0)

    def test_period_must_be_below_split(self):
        with pytest.raises(BadPeriodError):
            Dataset("a", col(1, 2, 3, 4), "1h", 3, 3)
        with pytest.raises(BadPeriodError):
            Dataset("a", col(1, 2, 3, 4), "1h", 0, 3)

    def test_values_immutable(self):
        d = Dataset("a", col(1, 2, 3), "1h", 1, 2)
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0

    def test_train_test_views(self):
        d = Dataset("a", col(1, 2, 3, 4), "1h", 1, 3)
        assert d.train_values.shape == (3, 1)
        assert d.test_values.shape == (1, 1)


class TestErrorPickling:
    """Errors raised in a process-pool worker must unpickle in the parent."""

    @pytest.mark.parametrize("exc", [
        DivergedError(17, float("inf")),
        NonFiniteError("a", 3, 1),
        BadSplitError("a", 9, 4),
        BadPeriodError("a", 5, 3),
        ParseError("a.csv", 4, 2, "x"),
        RaggedRowError("a.csv", 4, 1, 2),
        StatsOverflowError("a", Method.REVIN, "test-row contexts"),
    ], ids=lambda exc: type(exc).__name__)
    def test_round_trip_keeps_message_and_attributes(self, exc):
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is type(exc)
        assert str(again) == str(exc)
        assert again.__dict__ == exc.__dict__


class TestNormStats:
    def test_raw_must_be_identity(self):
        with pytest.raises(TsnormError):
            NormStats(np.array([1.0]), np.array([1.0]), Scope.INSTANCE, Method.RAW)
        raw = raw_stats(3)
        assert (raw.shift == 0).all() and (raw.scale == 1).all()

    def test_scale_below_eps_rejected(self):
        with pytest.raises(TsnormError):
            NormStats(np.array([0.0]), np.array([0.0]), Scope.DATASET,
                      Method.STANDARDIZATION)


class TestForecast:
    def test_exactly_one_payload(self):
        with pytest.raises(KindMismatchError):
            Forecast(kind=ForecastKind.POINT, point=np.ones((2, 1)),
                     gauss_mean=np.ones((2, 1)), gauss_std=np.ones((2, 1)))
        with pytest.raises(KindMismatchError):
            Forecast(kind=ForecastKind.POINT)

    def test_gaussian_requires_positive_std(self):
        with pytest.raises(TsnormError):
            Forecast(kind=ForecastKind.GAUSSIAN, gauss_mean=np.zeros((2, 1)),
                     gauss_std=np.zeros((2, 1)))


class TestEvalTypes:
    def test_entry_rejects_bad_mase(self):
        with pytest.raises(TsnormError):
            EvalEntry("m", "revin", "d", Setting.ZS, -0.1, "d")
        with pytest.raises(TsnormError):
            EvalEntry("m", "revin", "d", Setting.ZS, float("nan"), "d")

    def test_report_rejects_nonzero_self_delta(self):
        entry = EvalEntry("m", "revin", "d", Setting.ZS, 1.0, "d")
        with pytest.raises(TsnormError):
            EvalReport(entries=(entry,), improvements={("zs", "revin", "revin"): 1.0})
