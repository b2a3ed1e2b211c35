import json

import numpy as np
import pytest

from pbp.data import (
    DataError,
    Dataset,
    load_csv,
    load_model,
    normalize,
    save_model,
    split,
)
from pbp.posterior import PbpConfig
from pbp.prediction import TrainedModel, predict_batch
from pbp.training import train


class TestLoadCsv:
    def test_basic_no_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        ds = load_csv(p, "last")
        assert len(ds) == 3
        assert ds.features.shape == (3, 1)
        assert ds.targets.tolist() == [2.0, 4.0, 6.0]

    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,target\n1,2,3\n4,5,6\n")
        ds = load_csv(p, "target")
        assert ds.features.shape == (2, 2)
        assert ds.targets.tolist() == [3.0, 6.0]
        assert ds.columns == ["a", "b", "target"]

    def test_target_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(p, 0)
        assert ds.targets.tolist() == [1.0, 4.0]
        assert ds.features.tolist() == [[2.0, 3.0], [5.0, 6.0]]

    def test_nan_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,NaN\n")
        with pytest.raises(DataError, match=r"row 2.*column 2"):
            load_csv(p)

    def test_non_numeric_cell_diagnostics(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"row 3.*column 2"):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        # A non-finite cell, then a non-numeric one, then a ragged row: the
        # non-finite cell comes first in row order and is the one named.
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,inf\n4,oops\n5\n")
        with pytest.raises(DataError, match=r"^non-finite value at row 3, column 2: 'inf'$"):
            load_csv(p)
        p.write_text("x,y\n1,2\n3\n4,oops\n")
        with pytest.raises(DataError, match=r"row 3 has 1 cells, expected 2$"):
            load_csv(p)

    def test_cells_parse_as_python_floats(self, tmp_path):
        p = tmp_path / "d.csv"
        cells = ["0.1", " 2.5e-3", "1_000", "-7", "4.940656458412465e-324", "1e308"]
        p.write_text(",".join(cells) + "\n" + ",".join(reversed(cells)) + "\n")
        data = load_csv(p).features
        want = [[float(c) for c in cells[:-1]], [float(c) for c in reversed(cells)][:-1]]
        assert data.tobytes() == np.array(want).tobytes()

    def test_missing_column_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="nope"):
            load_csv(p, "nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="ghost.csv"):
            load_csv(tmp_path / "ghost.csv")


class TestSplit:
    def _dataset(self, n=506, d=13):
        rng = np.random.default_rng(0)
        return Dataset(rng.normal(size=(n, d)), rng.normal(size=n))

    def test_boston_sized_split(self):
        train_set, test_set = split(self._dataset(), 0.1, np.random.default_rng(1))
        assert len(train_set) == 456
        assert len(test_set) == 50

    def test_same_seed_same_split(self):
        ds = self._dataset(100, 3)
        a_train, a_test = split(ds, 0.2, np.random.default_rng(7))
        b_train, b_test = split(ds, 0.2, np.random.default_rng(7))
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.targets, b_test.targets)

    def test_true_partition(self):
        ds = self._dataset(57, 2)
        train_set, test_set = split(ds, 0.25, np.random.default_rng(3))
        combined = np.vstack([train_set.features, test_set.features])
        assert combined.shape[0] == 57
        # Every original row appears exactly once.
        original = {tuple(row) for row in ds.features}
        recovered = {tuple(row) for row in combined}
        assert original == recovered

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            split(self._dataset(10, 2), 1.5, np.random.default_rng(0))


class TestNormalize:
    def test_train_stats_are_exact(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(3.0, 2.5, size=(200, 4)), rng.normal(-7.0, 3.0, 200))
        norm, stats = normalize(ds)
        assert np.allclose(norm.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(norm.features.var(axis=0), 1.0, atol=1e-10)
        assert norm.targets.mean() == pytest.approx(0.0, abs=1e-12)
        assert norm.targets.var() == pytest.approx(1.0, abs=1e-10)

    def test_constant_column_guard(self):
        ds = Dataset(
            np.column_stack([np.full(10, 4.2), np.arange(10.0)]),
            np.arange(10.0),
        )
        norm, stats = normalize(ds)
        assert stats.feature_std[0] == 1.0
        assert np.all(norm.features[:, 0] == 0.0)
        # The varying column is untouched by the guard.
        assert norm.features[:, 1].var() == pytest.approx(1.0, abs=1e-10)

    def test_target_round_trip(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.normal(size=(50, 2)), rng.normal(10.0, 4.0, 50))
        norm, stats = normalize(ds)
        back = stats.invert_target(norm.targets)
        assert np.allclose(back, ds.targets, atol=1e-12)

    def test_stats_apply_to_other_sets(self):
        rng = np.random.default_rng(11)
        train_set = Dataset(rng.normal(size=(60, 3)), rng.normal(size=60))
        test_set = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
        _, stats = normalize(train_set)
        applied = stats.apply(test_set)
        assert np.allclose(
            applied.features, (test_set.features - stats.feature_mean) / stats.feature_std
        )


def small_trained_model(tmp_path=None, epochs=2):
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, 25)
    y = 0.5 * x + rng.normal(0, 0.1, 25)
    ds = Dataset(x[:, None], y)
    norm, stats = normalize(ds)
    cfg = PbpConfig(hidden_layer_sizes=(5,), epochs=epochs, seed=1)
    net, sites, _ = train(norm, cfg, np.random.default_rng(1))
    return TrainedModel(net=net, sites=sites, norm=stats, config=cfg)


class TestNormalizeOverflow:
    @pytest.mark.parametrize(
        "columns, name", [(["a", "b", "y"], "feature column 'b'"), (None, "feature column 2")]
    )
    def test_overflowing_feature_is_named(self, columns, name):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(20, 2)) * np.array([1.0, 1e300])
        with pytest.raises(DataError, match=f"^{name}: mean .* standard deviation inf"):
            normalize(Dataset(features, rng.normal(size=20), columns))

    def test_overflowing_target_is_named(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(20, 2)), rng.normal(size=20) * 1e300, ["a", "b", "y"])
        with pytest.raises(DataError, match="^target column 'y': mean"):
            normalize(ds)

    def test_summed_overflow_of_a_constant_column_is_rejected(self):
        features = np.full((20, 1), 1.5e308)
        with pytest.raises(DataError, match="^feature column 1: mean inf"):
            normalize(Dataset(features, np.arange(20.0)))


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_trained_model()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = small_trained_model()
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        for a, b in zip(model.net.layers, loaded.net.layers):
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.variances, b.variances)
        assert model.net.gamma == loaded.net.gamma
        assert model.net.lam == loaded.net.lam
        for a, b in zip(model.sites.precision, loaded.sites.precision):
            assert np.array_equal(a, b)
        assert np.array_equal(model.norm.feature_mean, loaded.norm.feature_mean)

    def test_predictions_identical_after_reload(self, tmp_path):
        model = small_trained_model()
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        x = np.array([0.37])
        a_mean, a_variance = predict_batch(model.net, model.norm, x)
        b_mean, b_variance = predict_batch(loaded.net, loaded.norm, x)
        assert a_mean == b_mean
        assert a_variance == b_variance

    def test_future_version_rejected(self, tmp_path):
        model = small_trained_model()
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["format_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_model(p)

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(DataError, match="corrupt"):
            load_model(p)
