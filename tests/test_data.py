from types import SimpleNamespace

import numpy as np
import pytest

import tsnorm.data as data
from tsnorm import (
    Dataset,
    LinearForecaster,
    LossKind,
    Method,
    Scheme,
    SyntheticSpec,
    export_csv,
    fit_dataset_stats,
    generate_synthetic,
    load_csv,
    normalize,
    sample_instances,
)
from tsnorm.core import ShapeMismatchError, TsnormError
from tsnorm.data import (
    MAX_SHIFTED_VALUES,
    MAX_SYNTHETIC_VALUES,
    BadSpecError,
    InstanceBatch,
    ParseError,
    RaggedRowError,
    TooShortError,
    WindowTooLongError,
)
from tsnorm.models import prepare_training_pool
from tsnorm.norm import WINDOW_BLOCK


class TestLoadCsv:
    def test_timestamp_column_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "timestamp,a,b\n"
            "2024-01-01T00:00,1.0,4.0\n"
            "2024-01-01T01:00,2.0,5.0\n"
            "2024-01-01T02:00,3.0,6.0\n"
        )
        d = load_csv(path, "d", "1h", 1, split_fraction=0.67)
        assert d.length == 3 and d.channels == 2
        np.testing.assert_array_equal(d.values[:, 0], [1.0, 2.0, 3.0])
        assert d.split_index == 2

    def test_plain_headers_all_channels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n7,8\n")
        d = load_csv(path, "d", "1h", 1, split_fraction=0.75)
        assert d.channels == 2 and d.split_index == 3

    def test_parse_error_names_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n5,6\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path, "d", "1h", 1)
        assert exc.value.row == 3 and exc.value.col == 2

    @pytest.mark.parametrize("text, row, cells", [
        ("a,b\n1,2\n3\n5,6\n", 3, 1),
        ("a,b\n1,2\n3,4\n5,6,7\n", 4, 3),
        ("a,b\n1,2\n3,4\n\n", 4, 0),
    ], ids=["short-row", "long-row", "trailing-blank-line"])
    def test_ragged_row_named(self, tmp_path, text, row, cells):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(RaggedRowError) as exc:
            load_csv(path, "d", "1h", 1)
        assert exc.value.row == row
        assert str(exc.value) == f"{path}: row {row} has {cells} cells, the header has 2"

    def test_too_short(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n")
        with pytest.raises(TooShortError):
            load_csv(path, "d", "1h", 1)

    def test_split_index_override(self, tmp_path):
        # exact train/test row counts, matching published configurations
        path = tmp_path / "d.csv"
        rows = "\n".join(str(float(i)) for i in range(100))
        path.write_text("a\n" + rows + "\n")
        d = load_csv(path, "d", "1h", 1, split_index=80)
        assert d.split_index == 80

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(77)
        original = Dataset("r", rng.normal(3.0, 2.0, (50, 3)), "1h", 2, 40)
        path = tmp_path / "r.csv"
        export_csv(original, path)
        again = load_csv(path, "r", "1h", 2, split_index=40)
        np.testing.assert_array_equal(again.values, original.values)

    def test_failed_export_leaves_previous_file(self, tmp_path):
        path = tmp_path / "r.csv"
        export_csv(Dataset("r", np.ones((4, 2)), "1h", 1, 3), path)
        before = path.read_bytes()

        def rows():
            yield np.array([1.0, 2.0])
            raise OSError("disk full")  # the write fails after one row

        with pytest.raises(OSError, match="disk full"):
            export_csv(SimpleNamespace(channels=2, values=rows()), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def _reference_synthetic(spec: SyntheticSpec) -> list:
    """Each dataset's values as per-channel arrays, column-stacked: the
    generator's formula written out channel by channel."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    corpus = []
    for i in range(spec.n_datasets):
        amplitude = 10.0**spec.scale_exponents[i % len(spec.scale_exponents)]
        channels = []
        for _ in range(spec.channels):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            base = rng.uniform(0.5, 1.5) * amplitude
            slope = spec.trend * amplitude / spec.length
            y = base + amplitude * np.sin(2.0 * np.pi * t / spec.seasonal_period + phase)
            y += slope * t
            for _ in range(spec.level_shifts):
                at = rng.integers(spec.seasonal_period, spec.length)
                y[at:] += rng.uniform(-0.5, 0.5) * amplitude
            y += rng.normal(0.0, spec.noise * amplitude, spec.length)
            channels.append(y)
        corpus.append(np.column_stack(channels))
    return corpus


class TestGenerateSynthetic:
    @pytest.mark.parametrize("channels", [1, 2, 8])
    @pytest.mark.parametrize("level_shifts", [0, 3])
    def test_equals_the_per_channel_reference_bitwise(self, channels, level_shifts):
        spec = SyntheticSpec(n_datasets=3, channels=channels, length=1200,
                             scale_exponents=(0.5, -3.0, 7.25), level_shifts=level_shifts,
                             seed=11 + channels)
        got = generate_synthetic(spec)
        want = _reference_synthetic(spec)
        assert len(got) == len(want) == 3
        for d, values in zip(got, want):
            assert d.values.shape == values.shape == (1200, channels)
            assert d.values.tobytes() == values.tobytes()

    def test_deterministic(self):
        spec = SyntheticSpec(seed=5)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert len(a) == spec.n_datasets
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.values, db.values)
            assert da.name == db.name

    def test_scale_exponents_drive_magnitudes(self):
        spec = SyntheticSpec(n_datasets=2, scale_exponents=(0.0, 3.0),
                             level_shifts=0, noise=0.0, trend=0.0, seed=1)
        small, big = generate_synthetic(spec)
        ratio = np.abs(big.values).mean() / np.abs(small.values).mean()
        assert 100.0 < ratio < 10000.0

    def test_corpus_spans_three_decades(self):
        datasets = generate_synthetic(SyntheticSpec(seed=2))
        spans = [d.values.std() for d in datasets]
        assert max(spans) / min(spans) >= 1e3

    def test_pure_sinusoid_seasonal_naive_oracle(self):
        # no noise, no shifts, no trend: the seasonal difference vanishes
        spec = SyntheticSpec(n_datasets=1, channels=1, level_shifts=0,
                             noise=0.0, trend=0.0, seed=3)
        (d,) = generate_synthetic(spec)
        lagged = d.values[spec.seasonal_period:] - d.values[:-spec.seasonal_period]
        assert np.abs(lagged).max() <= 1e-9

    def test_bad_spec(self):
        with pytest.raises(BadSpecError):
            SyntheticSpec(n_datasets=0)
        with pytest.raises(BadSpecError):
            SyntheticSpec(length=10, seasonal_period=24)
        with pytest.raises(BadSpecError):
            SyntheticSpec.from_dict({"bogus_field": 1})

    @pytest.mark.parametrize("field", ["seed", "level_shifts", "noise"])
    def test_a_negative_field_is_refused_by_name(self, field):
        with pytest.raises(BadSpecError, match=rf"^{field} must be non-negative, got -1$"):
            SyntheticSpec(**{field: -1})

    @pytest.mark.parametrize("size", [
        dict(channels=10**20),
        dict(n_datasets=1, channels=1, length=MAX_SYNTHETIC_VALUES + 1),
        dict(n_datasets=1000, channels=1000, length=1000),
    ], ids=["channels-1e20", "one-past-the-bound", "1e9-values"])
    def test_corpus_size_is_bounded_before_anything_is_allocated(self, size):
        with pytest.raises(BadSpecError, match=r"n_datasets x channels x length = \d+ float64"):
            SyntheticSpec(**size)

    def test_a_corpus_at_the_bound_is_accepted(self):
        # the bound is checked on the spec: nothing is generated here
        spec = SyntheticSpec(n_datasets=1, channels=1, length=MAX_SYNTHETIC_VALUES)
        assert spec.n_datasets * spec.channels * spec.length == MAX_SYNTHETIC_VALUES
        assert spec.level_shifts * MAX_SYNTHETIC_VALUES == MAX_SHIFTED_VALUES

    @pytest.mark.parametrize("size", [
        dict(level_shifts=10**7), dict(level_shifts=10**20), dict(level_shifts=2**63),
        dict(n_datasets=1, channels=1, length=2400, level_shifts=2401),
        dict(n_datasets=1, channels=1, length=MAX_SYNTHETIC_VALUES, level_shifts=3),
    ], ids=["1e7", "1e20", "2**63", "one-past-length", "one-past-the-shifted-bound"])
    def test_level_shifts_are_bounded_before_anything_is_generated(self, size):
        with pytest.raises(BadSpecError, match=r"level_shifts must be at most length"):
            SyntheticSpec(**size)

    def test_level_shifts_at_both_bounds_are_accepted(self):
        assert SyntheticSpec(n_datasets=1, channels=1, length=2400, level_shifts=2400)
        spec = SyntheticSpec(n_datasets=1, channels=2, length=MAX_SHIFTED_VALUES // 8,
                             level_shifts=4)
        assert spec.n_datasets * spec.channels * spec.length * 4 == MAX_SHIFTED_VALUES


class TestSampleInstances:
    def test_count_zero(self, tiny_dataset):
        assert len(sample_instances(tiny_dataset, 96, 24, 0, seed=0)) == 0

    def test_instances_inside_train_rows(self, tiny_dataset):
        starts = sample_instances(tiny_dataset, 96, 24, 200, seed=1).starts
        assert len(starts) == 200
        assert starts.min() >= 0
        assert starts.max() + 96 + 24 <= tiny_dataset.split_index

    def test_deterministic_offsets(self, tiny_dataset):
        a = sample_instances(tiny_dataset, 96, 24, 32, seed=9)
        b = sample_instances(tiny_dataset, 96, 24, 32, seed=9)
        assert a.starts.tolist() == b.starts.tolist()

    def test_window_too_long(self, tiny_dataset):
        with pytest.raises(WindowTooLongError):
            sample_instances(tiny_dataset, 400, 24, 1, seed=0)

    def test_values_match_source(self, tiny_dataset):
        batch = sample_instances(tiny_dataset, 10, 5, 1, seed=4)
        (start,) = batch.starts.tolist()
        (context,), (horizon,) = batch.windows([0])
        np.testing.assert_array_equal(context, tiny_dataset.values[start : start + 10])
        np.testing.assert_array_equal(horizon, tiny_dataset.values[start + 10 : start + 15])


def _draws(d, context_len, horizon, count, seed):
    """(start, context, horizon) of each window sampling draws, draw for draw,
    sliced from the dataset's rows."""
    window = context_len + horizon
    starts = np.random.default_rng(seed).integers(0, d.split_index - window + 1, size=count)
    return [(int(s), d.values[s : s + context_len], d.values[s + context_len : s + window])
            for s in starts]


class TestInstanceBatch:
    def test_windows_equal_the_draws(self, tiny_dataset):
        batch = sample_instances(tiny_dataset, 30, 6, 50, seed=5)
        want = _draws(tiny_dataset, 30, 6, 50, seed=5)
        assert len(batch) == len(want) == 50
        assert batch.starts.tolist() == [s for s, _, _ in want]
        contexts, horizons = batch.windows(np.arange(50))
        assert contexts.shape == (50, 30, 2) and horizons.shape == (50, 6, 2)
        for got_context, got_horizon, (_, context, horizon) in zip(contexts, horizons, want,
                                                                   strict=True):
            assert got_context.tobytes() == context.tobytes()
            assert got_horizon.tobytes() == horizon.tobytes()

    def test_concat_keeps_draw_order_across_datasets(self, tiny_dataset):
        other = Dataset("other", tiny_dataset.values[:, :1] * 3.0, "1h", 24, 300)
        a = sample_instances(tiny_dataset, 30, 6, 7, seed=1)
        b = sample_instances(other, 30, 6, 5, seed=2)
        both = InstanceBatch.concat([a, b])
        want = _draws(tiny_dataset, 30, 6, 7, 1) + _draws(other, 30, 6, 5, 2)
        assert len(both) == 12
        assert both.starts.tolist() == [s for s, _, _ in want]
        assert [(d, ids.tolist()) for d, ids in both.groups()] == [
            (tiny_dataset, list(range(7))), (other, list(range(7, 12)))]
        for ids in (range(7), range(7, 12), [9, 7, 11]):
            contexts, horizons = both.windows(list(ids))
            for row, i in enumerate(ids):
                assert contexts[row].tobytes() == want[i][1].tobytes()
                assert horizons[row].tobytes() == want[i][2].tobytes()
        assert contexts.flags.c_contiguous and horizons.flags.c_contiguous
        with pytest.raises(TsnormError, match="one dataset"):
            both.windows([6, 7])
        for outside in ([-1], [12]):
            with pytest.raises(IndexError):
                both.windows(outside)
        with pytest.raises(ShapeMismatchError):
            InstanceBatch.concat([a, sample_instances(other, 30, 5, 1, seed=3)])

    def test_read_only(self, tiny_dataset):
        batch = sample_instances(tiny_dataset, 30, 6, 4, seed=3)
        with pytest.raises(ValueError):
            batch.starts[0] = 0
        contexts, horizons = batch.windows([0, 1])
        assert not np.shares_memory(contexts, tiny_dataset.values)
        assert not np.shares_memory(horizons, tiny_dataset.values)

    def test_not_read_as_a_sequence(self, tiny_dataset):
        # a batch is read through ``groups`` and ``windows`` only
        batch = sample_instances(tiny_dataset, 30, 6, 4, seed=3)
        with pytest.raises(TypeError):
            batch[0]
        with pytest.raises(TypeError):
            iter(batch)

    def test_windows_must_fit_their_dataset(self, tiny_dataset):
        InstanceBatch([(tiny_dataset, [0, 400 - 36])], 30, 6)  # the last rows fit
        for starts in ([-1], [400 - 35], [1.0]):
            with pytest.raises(TsnormError):
                InstanceBatch([(tiny_dataset, starts)], 30, 6)
        with pytest.raises(ShapeMismatchError):
            InstanceBatch([(tiny_dataset, [0])], 0, 6)


class TestBlocksAndSelect:
    """``blocks`` walks draws part by part, a block of windows at a time, and
    ``select`` keeps a subset of the draws with each part's dataset."""

    @staticmethod
    def _batch(tiny_dataset):
        other = Dataset("other", tiny_dataset.values[:, :1] * 3.0, "1h", 24, 300)
        stats = fit_dataset_stats(tiny_dataset, Method.MINMAX)
        return InstanceBatch.concat([sample_instances(tiny_dataset, 30, 6, 11, seed=1),
                                     sample_instances(other, 30, 6, 9, seed=2),
                                     sample_instances(tiny_dataset, 30, 6, 6, seed=3,
                                                      stats=stats)])

    @pytest.mark.parametrize("block", [WINDOW_BLOCK, 4])
    def test_blocks_cover_every_position_once_part_by_part(self, tiny_dataset, block,
                                                           monkeypatch):
        monkeypatch.setattr(data, "WINDOW_BLOCK", block)
        batch = self._batch(tiny_dataset)
        ids = np.concatenate([np.random.default_rng(5).permutation(26), [3, 25]])
        seen, parts = [], []
        for d, at, drawn in batch.blocks(ids):
            assert 1 <= len(at) <= block and np.all(np.diff(at) > 0)
            assert drawn.tolist() == ids[at].tolist()
            seen.extend(at.tolist())
            part = int(np.searchsorted([11, 20, 26], ids[at[0]], side="right"))
            assert d is batch.groups()[part][0]
            assert all(int(np.searchsorted([11, 20, 26], i, side="right")) == part
                       for i in ids[at].tolist())
            parts.append(part)
            # ``rows`` stacks the same windows, rows outermost
            contexts, horizons = batch.windows(drawn)
            rows = batch.rows(drawn)
            assert rows.flags.c_contiguous and rows.shape == (36, len(at), d.channels)
            assert rows[:30].transpose(1, 0, 2).tobytes() == contexts.tobytes()
            assert rows[30:].transpose(1, 0, 2).tobytes() == horizons.tobytes()
        assert sorted(seen) == list(range(len(ids)))
        assert parts == sorted(parts) and set(parts) == {0, 1, 2}
        assert list(batch.blocks([])) == []
        for outside in ([-1], [26]):
            with pytest.raises(IndexError):
                list(batch.blocks(outside))

    def test_select_keeps_order_parts_and_statistics(self, tiny_dataset):
        batch = self._batch(tiny_dataset)
        keep = np.ones(26, dtype=bool)
        keep[[0, 4, 10, 25]] = False
        keep[11:20] = False  # every draw of the middle part
        kept = batch.select(keep)
        assert kept.starts.tolist() == batch.starts[keep].tolist()
        assert (kept.context_len, kept.horizon_len) == (30, 6)
        assert [(d, len(ids)) for d, ids in kept.groups()] == [
            (d, int(keep[ids].sum())) for d, ids in batch.groups()]
        for new, old in enumerate(np.flatnonzero(keep).tolist()):
            assert kept.windows([new])[0].tobytes() == batch.windows([old])[0].tobytes()
        assert len(batch.select(np.zeros(26, dtype=bool))) == 0
        with pytest.raises(ShapeMismatchError):
            batch.select(keep[:-1])

    @pytest.mark.parametrize("kind, scheme", [
        (LossKind.MSE, Scheme.HYBRID), (LossKind.MSE, Scheme.RAW),
        (LossKind.GAUSSIAN_NLL, Scheme.REVIN), (LossKind.TOKEN_CE, Scheme.MEANABS)])
    def test_a_pool_that_does_not_clip_is_the_batch(self, tiny_dataset, kind, scheme):
        batch = self._batch(tiny_dataset)
        model = LinearForecaster.create(kind, 30, 6)
        pool, rejected = prepare_training_pool(batch, scheme, model)
        assert pool is batch and rejected == 0


class TestDatasetStepInTheBatch:
    """A part's dataset statistics, applied to the rows the batch builds, give
    the bits of the whole matrix normalized first and then indexed."""

    @staticmethod
    def _dataset(channels):
        spec = SyntheticSpec(n_datasets=1, channels=channels, length=900,
                             scale_exponents=(2.5,), seed=channels)
        return generate_synthetic(spec)[0]

    @pytest.mark.parametrize("method", [Method.STANDARDIZATION, Method.MINMAX, Method.MAXABS])
    @pytest.mark.parametrize("channels", [1, 2, 8])
    def test_bitwise_equal_to_the_normalized_matrix(self, method, channels):
        d = self._dataset(channels)
        stats = fit_dataset_stats(d, method)
        whole = normalize(d.values, stats)  # the oracle: every row, then indexed
        batch = sample_instances(d, 48, 12, 300, seed=4, stats=stats)
        assert batch.starts.tolist() == sample_instances(d, 48, 12, 300, seed=4).starts.tolist()
        ids = np.random.default_rng(0).permutation(300)[:200]
        contexts, horizons = batch.windows(ids)
        for row, i in enumerate(ids.tolist()):
            s = int(batch.starts[i])
            want_context, want_horizon = whole[s : s + 48], whole[s + 48 : s + 60]
            assert contexts[row].tobytes() == want_context.tobytes()
            assert horizons[row].tobytes() == want_horizon.tobytes()
        s = int(batch.starts[ids[-1]])
        assert not np.array_equal(contexts[-1], d.values[s : s + 48])  # normalized
        assert not d.values.flags.writeable  # the dataset's rows are never written

    def test_concat_keeps_each_parts_statistics(self, tiny_dataset):
        other = Dataset("other", tiny_dataset.values[:, :1] * 3.0, "1h", 24, 300)
        stats = fit_dataset_stats(tiny_dataset, Method.MINMAX)
        a = sample_instances(tiny_dataset, 30, 6, 7, seed=1, stats=stats)
        b = sample_instances(other, 30, 6, 5, seed=2)
        both = InstanceBatch.concat([a, b])
        whole = normalize(tiny_dataset.values, stats)
        for i in range(12):
            s = int(both.starts[i])
            values = whole if i < 7 else other.values
            assert both.windows([i])[0][0].tobytes() == values[s : s + 30].tobytes()
        contexts, _ = both.windows([8, 9])
        assert contexts.tobytes() == np.stack(
            [other.values[s : s + 30] for s in both.starts[[8, 9]]]).tobytes()

    def test_statistics_must_fit_the_dataset(self, tiny_dataset):
        one = Dataset("one", tiny_dataset.values[:, :1], "1h", 24, 320)
        with pytest.raises(ShapeMismatchError, match="channels"):
            sample_instances(tiny_dataset, 30, 6, 4, seed=0,
                             stats=fit_dataset_stats(one, Method.MAXABS))
