import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import pbp.data
from conftest import predict_alone
from pbp import kernel
from pbp.cli import EXIT_DATA, EXIT_OK, main
from pbp.data import (
    DataError,
    Dataset,
    load_csv,
    load_model,
    normalize,
    read_csv_matrix,
    save_model,
    split,
)
from pbp.posterior import PbpConfig
from pbp.prediction import TrainedModel
from pbp.training import train
from reference_data import read_csv_matrix as reference_read_csv_matrix

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODEL_V1 = FIXTURES / "model_v1.json"


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

    @pytest.mark.parametrize("cell", ["2", "2_0"], ids=["read-rows", "csv-fallback"])
    def test_a_pipe_is_read_once(self, cell):
        read, write = os.pipe()
        os.write(write, f"a,b\n1,{cell}\n".encode())
        os.close(write)
        try:
            data, header = read_csv_matrix(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert data.tolist() == [[1.0, float(cell)]] and header == ["a", "b"]


def _outcome(read, path):
    """What a CSV reader makes of a file: its matrix bytes, shape and header,
    or its DataError message."""
    try:
        data, header = read(path)
    except DataError as exc:
        return "error", str(exc)
    return data.dtype, data.shape, data.tobytes(), header


# (file bytes, id): each must read exactly as the reference parser reads it,
# except where a byte is not UTF-8.
CSV_CASES = [
    (b"1,2\n3,4\n", "plain"),
    (b"\n1,2\n\n\n3,4\n\n", "blank-lines"),
    (b"a,b\r\n1,2\r\n3,4\r\n", "crlf"),
    (b"1,2\r3,4\r", "cr"),
    (b"a,b\n1,2\n3,4", "no-final-newline"),
    (b" a , b \n 1 ,2 \n3, 4\n", "spaces-around-cells"),
    (b"1\n2\n3\n", "single-column"),
    (b"y\n1\n2\n", "single-column-header"),
    (b"1.5,-2e3,+.25,7.\n0,-0,1e-400,4.940656458412465e-324\n", "number-forms"),
    (b'a,b\n"1",2\n3,4\n', "quoted-cell"),
    (b'"a,b",c\n1,2\n', "quoted-header"),
    (b'"a\nb",c\n1,2\n', "multi-line-header"),
    (b"a,b\n1_000,2\n3,4\n", "underscore"),
    ("a,b\n\uff11,2\n3,4\n".encode(), "fullwidth-digit"),
    ("a,b\n\xa01,2\u3000\n3,4\n".encode(), "unicode-spaces"),
    (b"a,b\n\x1c1,2\n3,4\n", "loadtxt-only-space"),
    (b"#a,b\n1,2\n", "hash-header"),
    (b"a,b\n1,2\n#3,4\n", "hash-line"),
    (b"a,b\n1,2\n  \n3,4\n", "whitespace-only-line"),
    (b"1,2\n \n", "whitespace-only-line-single-column"),
    (b"a,b\n1,2\n3\n", "ragged-row"),
    (b"1,2,\n3,4,\n", "trailing-comma"),
    (b"a,b\n1,\n3,4\n", "empty-cell"),
    (b"a,b\n1,nan\n3,4\n", "nan"),
    (b"1,2\n1e999,4\n", "overflow"),
    (b"a,b\n1,2 3\n", "inner-space"),
    (b"a,b\n", "header-only"),
    (b"", "empty"),
    (b"\n\r\n\n", "only-blank-lines"),
    (b"a,b\n1,\xff\n", "invalid-utf8"),
    (b"a,b\n" + b"1,2\n" * 3000 + b"3,\xff\n", "invalid-utf8-past-first-chunk"),
    (b"a,b\n" + b"1,2\n" * 3000 + b"3,4\n", "many-rows"),
    (b"a,b\n" + b"1,2\n" * 3000 + b"3,x\n", "bad-cell-past-first-chunk"),
    # kernel.read_rows' edges: Clinger's exact path (at most 2 ** 53, 10 ** +-22)
    # and strtod beyond it
    (b"123456789012345,1234567890123456,12345678901234567,12345678901234567890\n"
     b"0.123456789012345,1.234567890123456,-12.34567890123456e-3,1234567890.1234567890\n",
     "mantissas-of-15-16-17-20-digits"),
    (b"1e22,1e-22,1e23,1e-23\n9.87654321e22,-3e-22,4.5e+23,7E-23\n", "exponents-22-and-23"),
    (b"x\n9007199254740993\n9007199254740992\n9007199254740995\n", "two-to-the-53-plus-one"),
    (b"5e-324,2.4703282292062328e-324,2.2250738585072011e-308\n"
     b"2.4703282292062327e-324,1.7976931348623157e308,1e-400\n", "subnormal-and-normal-ends"),
    (b"-0,-0.0e0,007,.5e1,5.e-1\n+0,0e999,-00.000,+.5,1.\n", "zero-and-short-forms"),
    (b"a,b\n\t1\t,\t 2 \t\n 3\t, \t4\n", "tab-padded"),
    (b"a,b\n1,\x0b2\n3,4\n", "vertical-tab-in-cell"),
    (b"a,b\n1,2\x0c\n3,4\n", "form-feed-in-cell"),
    (b"a,b\n1,2\x00\n3,4\n", "nul-in-cell"),
    (b"a,b\n1,1e\n3,4\n", "exponent-without-digits"),
    (b"a,b\n1,e5\n3,4\n", "exponent-without-mantissa"),
    (b"a,b\n1,.\n3,4\n", "lone-point"),
    (b"a,b\n1,+\n3,4\n", "lone-sign"),
    (b"a,b\n1,1.2.3\n3,4\n", "two-points"),
    (b"a,b\n1,0." + b"0" * 500 + b"15\n3,4\n", "cell-longer-than-the-bound"),
    (b"a,b\n1,2\r3,4\r\n5,6\r7,8\r\n", "mixed-cr-and-crlf"),
    (b"a\xff,b\n1,2\n", "invalid-utf8-in-header"),
    (b"\xef\xbb\xbf1,2\n3,4\n", "utf8-bom"),
]


class TestCsvFastPath:
    """read_csv_matrix tries kernel.read_rows first; every file must still read
    exactly as the csv-module parser it falls back to reads it."""

    @pytest.mark.parametrize("content", [c for c, _ in CSV_CASES], ids=[i for _, i in CSV_CASES])
    def test_same_result_as_the_exact_parser(self, tmp_path, content):
        p = tmp_path / "d.csv"
        p.write_bytes(content)
        try:
            want = _outcome(reference_read_csv_matrix, p)
        except UnicodeDecodeError:
            # The reference gives the byte's position in the chunk that the
            # text layer decoded; read_csv_matrix names the file and the
            # byte's offset in it.
            offset = content.index(b"\xff")
            message = f"{p}: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)"
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                read_csv_matrix(p)
            return
        assert _outcome(read_csv_matrix, p) == want

    # Cells float() reads, or refuses, that kernel.read_rows leaves to the fallback.
    REFUSED = ["1e", "e5", ".", "+", "1.2.3", "\x0b2", "2\x0c", "2\x00", "1_000", "inf", "nan",
               "0x10", "\xa02", "1e999", '"2"', "2 3", "", "0." + "0" * 400 + "1"]

    def test_plain_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        fallback = _spy_fallback(monkeypatch)
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2.5e-3\r\n\n-3,.4\n")
        data, header = read_csv_matrix(p)
        assert data.tolist() == [[1.0, 0.0025], [-3.0, 0.4]] and header == ["a", "b"]
        assert fallback == []
        assert kernel.read_rows(p.read_bytes(), 4).tolist() == data.tolist()

    @pytest.mark.parametrize("cell", REFUSED)
    def test_each_refused_form_reaches_the_fallback(self, tmp_path, monkeypatch, cell):
        text = f"a,b\n1,2\n3,{cell}\n".encode()
        assert kernel.read_rows(text, 4) is None
        fallback = _spy_fallback(monkeypatch)
        p = tmp_path / "d.csv"
        p.write_bytes(text)
        try:
            read_csv_matrix(p)
        except DataError:
            pass
        assert fallback[:3] == ["1", "2", "3"] and len(fallback) == 4


def _spy_fallback(monkeypatch) -> list[str]:
    """The cells the csv-module fallback of read_csv_matrix parses, in order,
    as they pass."""
    seen, parse = [], pbp.data._parse_cell

    def spy(cell, row, col):
        seen.append(cell)
        return parse(cell, row, col)

    monkeypatch.setattr(pbp.data, "_parse_cell", spy)
    return seen


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
        back = norm.targets * stats.target_std + stats.target_mean
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


def assert_each_run_normalizes_alone(train):
    """normalize of a stack of training sets gives each run the bits of its
    lone call: normalized features and targets, and statistics."""
    norm, stats = normalize(train)
    for r in range(train.targets.shape[0]):
        lone_norm, lone = normalize(Dataset(train.features[r], train.targets[r], train.columns))
        assert norm.features[r].tobytes() == lone_norm.features.tobytes(), r
        assert norm.targets[r].tobytes() == lone_norm.targets.tobytes(), r
        assert stats.feature_mean[r].tobytes() == lone.feature_mean.tobytes(), r
        assert stats.feature_std[r].tobytes() == lone.feature_std.tobytes(), r
        assert [float(stats.target_mean[r]), float(stats.target_std[r])] == [
            lone.target_mean, lone.target_std
        ], r


def first_lone_error(train):
    """The message of the DataError that normalizing the runs of a stack one
    by one, in order, raises first."""
    for r in range(train.targets.shape[0]):
        try:
            normalize(Dataset(train.features[r], train.targets[r], train.columns))
        except DataError as error:
            return str(error)
    raise AssertionError("no run fails")


class TestNormalizeStack:
    # 50 random shapes at each row count, 300 in all: row counts about the
    # 128-element blocks of numpy's pairwise sums, and the training-set sizes
    # of the perfbench workloads.
    @pytest.mark.parametrize("n", [1, 2, 128, 129, 455, 1_439])
    def test_each_run_gets_the_bits_of_its_lone_call(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            runs, d = int(rng.integers(1, 6)), int(rng.integers(1, 14))
            scale = 10.0 ** rng.uniform(-3.0, 3.0, d)
            features = rng.normal(size=(runs, n + 3, d)) * scale + rng.normal(size=d) * scale
            targets = rng.normal(rng.normal(), 10.0 ** rng.uniform(-3.0, 3.0), size=(runs, n + 3))
            # A contiguous stack, and the first n rows of each run of a
            # larger one, as the active-learning steps normalize theirs.
            assert_each_run_normalizes_alone(Dataset(features[:, 3:].copy(), targets[:, 3:].copy()))
            assert_each_run_normalizes_alone(Dataset(features[:, :n], targets[:, :n]))

    def test_constant_column(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(3, 30, 3))
        features[1, :, 2] = 4.2
        features[2, :, 0] = -7.0
        train = Dataset(features, rng.normal(size=(3, 30)))
        assert_each_run_normalizes_alone(train)
        norm, stats = normalize(train)
        assert stats.feature_std[1, 2] == stats.feature_std[2, 0] == 1.0
        assert np.all(norm.features[1, :, 2] == 0.0) and np.all(norm.features[2, :, 0] == 0.0)
        assert (stats.feature_std[0] != 1.0).all()

    @pytest.mark.parametrize("columns", [None, ["a", "b", "c", "y"]])
    @pytest.mark.parametrize("overflow_first", [True, False])
    def test_the_error_is_that_of_the_first_failing_run(self, columns, overflow_first):
        # Run 0 normalizes; one later run overflows feature column 2 and
        # another's targets differ but their spread underflows to 0.
        rng = np.random.default_rng(6)
        features = rng.normal(size=(4, 20, 3))
        targets = rng.normal(size=(4, 20))
        overflow, underflow = (1, 2) if overflow_first else (3, 1)
        features[overflow, :, 1] *= 1e300
        targets[underflow] *= 1e-301
        train = Dataset(features, targets, columns)
        first = first_lone_error(train)
        if overflow_first:
            assert first.startswith("feature column 'b': " if columns else "feature column 2: ")
        else:
            assert first.startswith("target column 'y': " if columns else "target column: ")
        with pytest.raises(DataError) as error:
            normalize(train)
        assert str(error.value) == first


def small_trained_model(tmp_path=None, epochs=2):
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, 25)
    y = 0.5 * x + rng.normal(0, 0.1, 25)
    ds = Dataset(x[:, None], y)
    norm, stats = normalize(ds)
    cfg = PbpConfig(hidden_layer_sizes=(5,), epochs=epochs, seed=1)
    net, _, _ = train(norm, cfg, np.random.default_rng(1))
    return TrainedModel(net=net, norm=stats, config=cfg)


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
        assert np.array_equal(model.norm.feature_mean, loaded.norm.feature_mean)

    def test_predictions_identical_after_reload(self, tmp_path):
        model = small_trained_model()
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        x = np.array([[0.37]])
        a_mean, a_variance = predict_alone(model.net, model.norm, x)
        b_mean, b_variance = predict_alone(loaded.net, loaded.norm, x)
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

    @pytest.mark.parametrize("doc", ["[1]", '"format_version"', "2"])
    def test_document_that_is_not_an_object_rejected(self, tmp_path, doc):
        p = tmp_path / "m.json"
        p.write_text(doc)
        with pytest.raises(DataError, match="model format version None not supported"):
            load_model(p)


def predict_fixture_features(model, tmp_path) -> bytes:
    out = tmp_path / "p.csv"
    features = FIXTURES / "toy_features.csv"
    code = main(["predict", "--model", str(model), "--data", str(features), "--out", str(out)])
    assert code == EXIT_OK
    return out.read_bytes()


class TestFormatOneModelFile:
    """fixtures/model_v1.json is a format-1 file, which also holds the prior
    sites, written by `pbp train --data toy.csv --hidden 4 --epochs 2
    --seed 1`; fixtures/pred_v1.csv is what `pbp predict` wrote from it for
    toy_features.csv before format 2 existed."""

    def test_loads_and_predicts_the_same_bytes(self, tmp_path):
        assert json.loads(MODEL_V1.read_text())["format_version"] == 1
        got = predict_fixture_features(MODEL_V1, tmp_path)
        assert got == (FIXTURES / "pred_v1.csv").read_bytes()

    def test_saved_copy_is_format_two_and_predicts_the_same_bytes(self, tmp_path):
        p = tmp_path / "m.json"
        save_model(load_model(MODEL_V1), p)
        want = json.loads(MODEL_V1.read_text())
        del want["prior_sites"]
        want["format_version"] = 2
        assert json.loads(p.read_text()) == want
        assert predict_fixture_features(p, tmp_path) == (FIXTURES / "pred_v1.csv").read_bytes()

    @pytest.mark.parametrize("version", [True, 1.0, "1", 0, 3, None])
    def test_other_versions_are_data_errors(self, tmp_path, capsys, version):
        doc = json.loads(MODEL_V1.read_text())
        doc["format_version"] = version
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"model format version {re.escape(repr(version))} not"):
            load_model(p)
        out = tmp_path / "p.csv"
        features = FIXTURES / "toy_features.csv"
        code = main(["predict", "--model", str(p), "--data", str(features), "--out", str(out)])
        assert code == EXIT_DATA
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()
