from types import SimpleNamespace

import numpy as np
import pytest

from tsnorm import (
    Dataset,
    Instance,
    Method,
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
    BadSpecError,
    InstanceBatch,
    ParseError,
    TooShortError,
    WindowTooLongError,
)


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


class TestGenerateSynthetic:
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


class TestSampleInstances:
    def test_count_zero(self, tiny_dataset):
        assert len(sample_instances(tiny_dataset, 96, 24, 0, seed=0)) == 0

    def test_instances_inside_train_rows(self, tiny_dataset):
        instances = sample_instances(tiny_dataset, 96, 24, 200, seed=1)
        for inst in instances:
            start = inst.origin[1]
            assert start >= 0
            assert start + 96 + 24 <= tiny_dataset.split_index

    def test_deterministic_offsets(self, tiny_dataset):
        a = sample_instances(tiny_dataset, 96, 24, 32, seed=9)
        b = sample_instances(tiny_dataset, 96, 24, 32, seed=9)
        assert [i.origin for i in a] == [i.origin for i in b]

    def test_window_too_long(self, tiny_dataset):
        with pytest.raises(WindowTooLongError):
            sample_instances(tiny_dataset, 400, 24, 1, seed=0)

    def test_values_match_source(self, tiny_dataset):
        (inst,) = sample_instances(tiny_dataset, 10, 5, 1, seed=4)
        start = inst.origin[1]
        np.testing.assert_array_equal(
            inst.context, tiny_dataset.values[start : start + 10]
        )
        np.testing.assert_array_equal(
            inst.horizon, tiny_dataset.values[start + 10 : start + 15]
        )


def _instance_list(d, context_len, horizon, count, seed):
    """The list of ``Instance`` copies sampling used to build, draw for draw."""
    window = context_len + horizon
    starts = np.random.default_rng(seed).integers(0, d.split_index - window + 1, size=count)
    return [Instance(context=d.values[s : s + context_len],
                     horizon=d.values[s + context_len : s + window], origin=(d.name, int(s)))
            for s in starts]


class TestInstanceBatch:
    def test_items_equal_the_instance_list(self, tiny_dataset):
        batch = sample_instances(tiny_dataset, 30, 6, 50, seed=5)
        want = _instance_list(tiny_dataset, 30, 6, 50, seed=5)
        assert len(batch) == len(want) == 50
        for got, ref in zip(batch, want, strict=True):
            assert type(got) is Instance
            assert got.origin == ref.origin and type(got.origin[1]) is int
            assert got.context.tobytes() == ref.context.tobytes()
            assert got.horizon.tobytes() == ref.horizon.tobytes()
            assert got.context.shape == (30, 2) and got.horizon.shape == (6, 2)
        assert batch.starts.tolist() == [inst.origin[1] for inst in want]

    def test_concat_keeps_draw_order_across_datasets(self, tiny_dataset):
        other = Dataset("other", tiny_dataset.values[:, :1] * 3.0, "1h", 24, 300)
        a = sample_instances(tiny_dataset, 30, 6, 7, seed=1)
        b = sample_instances(other, 30, 6, 5, seed=2)
        both = InstanceBatch.concat([a, b])
        want = _instance_list(tiny_dataset, 30, 6, 7, 1) + _instance_list(other, 30, 6, 5, 2)
        assert len(both) == 12
        for got, ref in zip(both, want, strict=True):
            assert got.origin == ref.origin
            assert got.context.tobytes() == ref.context.tobytes()
            assert got.horizon.tobytes() == ref.horizon.tobytes()
        assert [(c, ids.tolist()) for c, ids in both.groups()] == [
            (2, list(range(7))), (1, list(range(7, 12)))]
        contexts, horizons = both.windows([9, 7, 11])
        for row, i in enumerate([9, 7, 11]):
            assert contexts[row].tobytes() == want[i].context.tobytes()
            assert horizons[row].tobytes() == want[i].horizon.tobytes()
        assert contexts.flags.c_contiguous and horizons.flags.c_contiguous
        with pytest.raises(TsnormError, match="one dataset"):
            both.windows([6, 7])
        with pytest.raises(ShapeMismatchError):
            InstanceBatch.concat([a, sample_instances(other, 30, 5, 1, seed=3)])

    def test_read_only(self, tiny_dataset):
        batch = sample_instances(tiny_dataset, 30, 6, 4, seed=3)
        with pytest.raises(TypeError):
            batch[0] = batch[1]
        with pytest.raises(ValueError):
            batch.starts[0] = 0
        inst = batch[0]
        assert not inst.context.flags.writeable and not inst.horizon.flags.writeable
        assert not np.shares_memory(inst.context, tiny_dataset.values)

    def test_index_bounds(self, tiny_dataset):
        batch = sample_instances(tiny_dataset, 30, 6, 4, seed=3)
        assert batch[-1].origin == batch[3].origin
        assert batch[-4].origin == batch[np.int64(0)].origin
        for bad in (4, -5, 100):
            with pytest.raises(IndexError):
                batch[bad]
        with pytest.raises(TypeError):
            batch[1:3]
        with pytest.raises(IndexError):
            sample_instances(tiny_dataset, 30, 6, 0, seed=3)[0]

    def test_windows_must_fit_their_dataset(self, tiny_dataset):
        InstanceBatch([(tiny_dataset, [0, 400 - 36])], 30, 6)  # the last rows fit
        for starts in ([-1], [400 - 35], [1.0]):
            with pytest.raises(TsnormError):
                InstanceBatch([(tiny_dataset, starts)], 30, 6)
        with pytest.raises(ShapeMismatchError):
            InstanceBatch([(tiny_dataset, [0])], 0, 6)


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
            inst = batch[i]
            assert inst.origin == (d.name, s)
            assert inst.context.tobytes() == want_context.tobytes()
            assert inst.horizon.tobytes() == want_horizon.tobytes()
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
            assert both[i].context.tobytes() == values[s : s + 30].tobytes()
        contexts, _ = both.windows([8, 9])
        assert contexts.tobytes() == np.stack(
            [other.values[s : s + 30] for s in both.starts[[8, 9]]]).tobytes()

    def test_statistics_must_fit_the_dataset(self, tiny_dataset):
        one = Dataset("one", tiny_dataset.values[:, :1], "1h", 24, 320)
        with pytest.raises(ShapeMismatchError, match="channels"):
            sample_instances(tiny_dataset, 30, 6, 4, seed=0,
                             stats=fit_dataset_stats(one, Method.MAXABS))
