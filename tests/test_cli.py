import csv
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest

from conftest import predict_alone, toy_cubic_dataset, train_runs_tracing_rmse
import pbp
import pbp.forward as forward
import pbp.kernel as kernel
import pbp.training as training
from pbp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _prediction_csv, main
from pbp.data import load_csv, load_model, normalize, read_csv_matrix, split
from pbp.posterior import NumericError, PbpConfig, PosteriorStack
from pbp.training import train


@pytest.fixture
def toy_csv(tmp_path):
    ds = toy_cubic_dataset(60, seed=2)
    path = tmp_path / "toy.csv"
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for row, target in zip(ds.features, ds.targets):
            fh.write(f"{float(row[0])!r},{float(target)!r}\n")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def process_starts(monkeypatch):
    """The processes started while the test runs (none may be left running)."""
    started = []
    real_start = BaseProcess.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(BaseProcess, "start", start)
    yield started
    assert multiprocessing.active_children() == []


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in rows:
            fh.write(f"{x!r},{y!r}\n")
    return path


def over_the_field_limit(tmp_path, where, text):
    """A CSV of text, its header's first cell or its last row's first cell a
    number of 200,000 digits: a field larger than the csv module's limit."""
    lines = text.splitlines()
    k = 0 if where == "header" else len(lines) - 1
    lines[k] = "1" * 200_000 + lines[k]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def assert_one_line_data_error(code, capsys, path):
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: field larger than field limit")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def summary(text):
    """The train command's summary lines as a dict of strings."""
    return dict(line.split(": ", 1) for line in text.splitlines())


class TestTrainCommand:
    def test_happy_path_writes_model(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(
            [
                "train", "--data", str(toy_csv), "--target", "y",
                "--hidden", "4", "--epochs", "2", "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.exists()
        text = capsys.readouterr().out
        assert "epochs_run: 2" in text
        assert "test_rmse:" in text

    def test_one_seed_drives_the_split_and_the_training(self, toy_csv, tmp_path):
        # --seed becomes config.seed, the one source of the split and the
        # training draws, and the model file records it.
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(toy_csv), "--hidden", "4", "--epochs", "2",
                     "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        model = load_model(out)
        assert model.config.seed == 7

        rng = np.random.default_rng(7)
        train_set, _ = split(load_csv(toy_csv), 0.1, rng)
        train_norm, _ = normalize(train_set)
        net, _, _ = train(train_norm, PbpConfig(hidden_layer_sizes=(4,), epochs=2, seed=7), rng)
        for got, want in zip(model.net.layers, net.layers, strict=True):
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.variances, want.variances)

    def test_zero_epochs_prior_only(self, toy_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["train", "--data", str(toy_csv), "--epochs", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        from pbp.data import load_model

        model = load_model(out)
        for layer in model.net.layers:
            assert np.allclose(layer.variances, 1.2)

    @pytest.mark.parametrize(
        "scale, column",
        [((1e300, 1.0), "feature column 'x'"), ((1.0, 1e300), "target column 'y'")],
        ids=["huge-features", "huge-targets"],
    )
    def test_overflowing_scale_is_a_data_error(self, tmp_path, capsys, scale, column):
        ds = toy_cubic_dataset(60, seed=2)
        data = tmp_path / "huge.csv"
        with open(data, "w") as fh:
            fh.write("x,y\n")
            for row, target in zip(ds.features, ds.targets):
                fh.write(f"{float(row[0]) * scale[0]!r},{float(target) * scale[1]!r}\n")
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--hidden", "4", "--epochs", "1",
                     "--out", str(out)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert f"data error: {column}: mean" in captured.err
        assert "test_rmse" not in captured.out
        assert not out.exists()

    def test_missing_file_exit_code_and_message(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["train", "--data", str(missing), "--out", str(tmp_path / "m.json")])
        assert code == EXIT_DATA
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["header", "data"])
    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys, where):
        data = over_the_field_limit(tmp_path, where, "x,y\n1,2\n3,4\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert_one_line_data_error(code, capsys, data)

    def test_undecodable_byte_names_the_file_and_its_offset(self, tmp_path, capsys):
        # Byte 12,006 lies past the first 8,192-byte chunk a text-mode read
        # decodes, where it would be reported at position 3,814.
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a,b\n" + b"1,2\n" * 3000 + b"3,\xff\n")
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == (
            f"data error: {data}: byte 0xff at offset 12006 is not UTF-8 (invalid start byte)\n"
        )
        assert not out.exists()


class TestPredictCommand:
    def _train(self, toy_csv, tmp_path):
        out = tmp_path / "m.json"
        assert (
            main(
                [
                    "train", "--data", str(toy_csv), "--hidden", "4",
                    "--epochs", "2", "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        return out

    def test_single_row(self, toy_csv, tmp_path):
        model = self._train(toy_csv, tmp_path)
        feats = tmp_path / "f.csv"
        feats.write_text("0.5\n")
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["mean", "variance"]
        assert len(rows) == 2

    def test_variance_at_least_noise_floor(self, toy_csv, tmp_path):
        model_path = self._train(toy_csv, tmp_path)
        feats = tmp_path / "f.csv"
        feats.write_text("0.0\n1.5\n-2.0\n")
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(feats), "--out", str(out)]) == EXIT_OK
        from pbp.data import load_model
        from pbp.prediction import noise_floor

        model = load_model(model_path)
        floor = noise_floor(PosteriorStack.of([model.net]))[0] * model.norm.target_std**2
        for row in read_rows(out)[1:]:
            assert float(row[1]) >= floor * (1 - 1e-12)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda d: d["network"]["layers"][0]["variances"][1].__setitem__(0, float("inf")),
                         id="infinite-variance"),
            pytest.param(lambda d: d["normalization"]["feature_std"].__setitem__(0, 0.0),
                         id="zero-feature-std"),
            pytest.param(lambda d: d["network"]["layers"][1]["variances"][0].__setitem__(2, -0.5),
                         id="negative-variance"),
            pytest.param(lambda d: d["network"].__setitem__("layer_sizes", [1, 5, 1]),
                         id="layer-sizes-disagree"),
            pytest.param(lambda d: d["config"].__setitem__("prior_shape_lambda", 1.0),
                         id="prior-shape-one"),
            pytest.param(lambda d: d["config"].__setitem__("prior_rate_gamma", float("inf")),
                         id="prior-rate-infinite"),
            pytest.param(lambda d: d["config"].__setitem__("prior_rate_lambda", 10**400),
                         id="prior-rate-beyond-float"),
            pytest.param(lambda d: d["config"].__setitem__("prior_shape_gamma", 5.0),
                         id="prior-shape-not-the-fixed-one"),
            pytest.param(lambda d: d["config"].__setitem__("hidden_layer_sizes", [7, 3]),
                         id="hidden-sizes-disagree"),
            pytest.param(lambda d: d["network"]["gamma"].__setitem__("shape", 1.0),
                         id="noise-shape-one"),
            pytest.param(lambda d: d["network"].__setitem__("layer_sizes", [1.0, 4, 1]),
                         id="float-input-size"),
            pytest.param(lambda d: (d["network"].__setitem__("layer_sizes", [1, 4.0, 1]),
                                    d["config"].__setitem__("hidden_layer_sizes", [4.0])),
                         id="float-hidden-size"),
            pytest.param(lambda d: d["network"].__setitem__("layer_sizes", [1, 4, True]),
                         id="bool-output-size"),
        ],
    )
    def test_hostile_model_file_is_a_data_error(self, toy_csv, tmp_path, capsys, corrupt):
        model = self._train(toy_csv, tmp_path)
        doc = json.loads(model.read_text())
        corrupt(doc)
        model.write_text(json.dumps(doc))
        feats = tmp_path / "f.csv"
        feats.write_text("0.5\n")
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"corrupt model file {model}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["header", "data"])
    def test_field_over_the_csv_limit_is_a_data_error(self, toy_csv, tmp_path, capsys, where):
        model = self._train(toy_csv, tmp_path)
        capsys.readouterr()
        feats = over_the_field_limit(tmp_path, where, "x\n0.5\n")
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        assert_one_line_data_error(code, capsys, feats)
        assert not out.exists()

    def test_dimension_mismatch(self, toy_csv, tmp_path, capsys):
        model = self._train(toy_csv, tmp_path)
        feats = tmp_path / "f.csv"
        feats.write_text("0.5,0.7\n")
        code = main(["predict", "--model", str(model), "--data", str(feats), "--out", "-"])
        assert code == EXIT_DATA
        assert "expects 1" in capsys.readouterr().err


    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    def test_output_is_what_the_csv_writer_wrote(self, toy_csv, tmp_path, capsys, to_stdout):
        model_path = self._train(toy_csv, tmp_path)
        feats = tmp_path / "f.csv"
        feats.write_text("".join(f"{x!r}\n" for x in np.linspace(-4.0, 4.0, 57).tolist()))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(feats),
                     "--out", "-" if to_stdout else str(out)])
        assert code == EXIT_OK
        got = capsys.readouterr().out.encode() if to_stdout else out.read_bytes()

        model = load_model(model_path)
        means, variances = predict_alone(model.net, model.norm, read_csv_matrix(feats)[0])
        assert got == csv_writer_output(means, variances).encode()


def csv_writer_output(means, variances) -> str:
    """The predictions as csv.writer wrote them: repr of every float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mean", "variance"])
    writer.writerows(zip(map(repr, means.tolist()), map(repr, variances.tolist())))
    return buf.getvalue()


def test_prediction_csv_matches_the_csv_writer_on_special_floats():
    means = np.array([0.0, -0.0, 1e-300, 5e-324, 1e22, 1.0 / 3.0, np.inf, -np.inf, np.nan])
    variances = np.array([1.0, 2.5e-8, 1e300, np.inf, 0.1, 7.0, 3.0, np.nan, 1e-5])
    assert _prediction_csv(means, variances) == csv_writer_output(means, variances)
    assert _prediction_csv(means[:0], variances[:0]) == "mean,variance\n"


class TestNumericFailures:
    """Failures of the arithmetic exit 3 with a diagnostic, never as a data
    error and never with a traceback."""

    def _train(self, toy_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(toy_csv), "--hidden", "4", "--epochs", "1",
                     "--out", str(out)])
        return code, out

    def test_negative_preactivation_variance(self, toy_csv, tmp_path, monkeypatch, capsys):
        # Every work item of a rows pass (the training-RMSE one, here, which
        # runs before the model is saved) returns kernel.c's NEGATIVE_VARIANCE
        # status.
        monkeypatch.setattr(kernel.LIB, "forward_rows", lambda *args: -5)
        code, out = self._train(toy_csv, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: negative pre-activation variance" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_variance_in_the_first_prior_incorporation(
        self, toy_csv, tmp_path, monkeypatch, capsys
    ):
        def failing(*args):
            raise NumericError("refined variance -1.0 (from v=inf)")

        monkeypatch.setattr(training, "incorporate_all_prior_factors", failing)
        code, out = self._train(toy_csv, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: refined variance -1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow(self, toy_csv, tmp_path, monkeypatch, capsys):
        def overflowing(stack, rngs):
            raise OverflowError("math range error")

        monkeypatch.setattr(training, "perturb_means", overflowing)
        code, out = self._train(toy_csv, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: math range error" in capsys.readouterr().err
        assert not out.exists()

    def _with_the_last_noise_gamma(self, toy_csv, tmp_path, monkeypatch, capsys, command,
                                   entry, value):
        """Run command with entry (0: shape, 1: rate) of the last run's noise
        Gamma set to value after the prior step; assert it exits with a
        numeric failure and writes nothing, and return its standard error."""
        real = training.incorporate_all_prior_factors

        def last_noise_gamma(stack):
            sites = real(stack)
            stack.gamma[entry, -1] = value
            return sites

        monkeypatch.setattr(training, "incorporate_all_prior_factors", last_noise_gamma)
        common = ["--data", str(toy_csv), "--hidden", "3", "--epochs", "1",
                  "--out", str(tmp_path / "out")]
        extra = {
            "train": [],
            "benchmark": ["--splits", "2"],
            "active": ["--initial-train", "8", "--test-size", "10", "--acquisitions", "2",
                       "--repetitions", "2"],
        }[command]
        assert main([command, *common, *extra]) == EXIT_NUMERIC
        assert not list(tmp_path.glob("out*"))
        return capsys.readouterr().err

    LAST_RUN = {"train": "run 0", "benchmark": "split 1", "active": "random repetition 1"}

    @pytest.mark.parametrize("command", ["train", "benchmark", "active"])
    def test_division_by_zero_in_the_noise_gamma_step(
        self, toy_csv, tmp_path, monkeypatch, capsys, command
    ):
        # A noise Gamma rate of exactly 0 divides by 0 in the moment match of
        # the first likelihood step (kernel.c's noise_step), which raises
        # ZeroDivisionError naming the run: here the last of the stack.
        err = self._with_the_last_noise_gamma(toy_csv, tmp_path, monkeypatch, capsys, command, 1, 0.0)
        assert f"numeric failure: {self.LAST_RUN[command]}: float division by zero" in err

    @pytest.mark.parametrize("command", ["train", "benchmark", "active"])
    def test_a_noise_shape_of_one_fails_every_command_alike(
        self, toy_csv, tmp_path, monkeypatch, capsys, command
    ):
        # The last run, at a noise shape of exactly 1.0, skips every example
        # in a stack as it does alone, and its skip rate ends each command.
        err = self._with_the_last_noise_gamma(toy_csv, tmp_path, monkeypatch, capsys, command, 0, 1.0)
        label = self.LAST_RUN[command]
        assert re.fullmatch(rf"numeric failure: {label}: (\d+)/\1 examples skipped in epoch 1\n", err), err

    def _predict(self, model, tmp_path, features):
        feats = tmp_path / "f.csv"
        feats.write_text(features)
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("value", ["1e300", "-1e300", "1e160"])
    def test_inputs_too_large_for_the_forward_pass(self, toy_csv, tmp_path, capsys, value):
        _, model = self._train(toy_csv, tmp_path)
        assert self._predict(model, tmp_path, f"0.5\n{value}\n-0.5\n") == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: input row 2: predictive mean" in err
        assert "are not both finite" in err

    def test_a_weight_mean_too_large_for_the_forward_pass(self, toy_csv, tmp_path, capsys):
        _, model = self._train(toy_csv, tmp_path)
        doc = json.loads(model.read_text())
        doc["network"]["layers"][0]["means"][0][0] = 1e200
        model.write_text(json.dumps(doc))
        assert self._predict(model, tmp_path, "0.5\n") == EXIT_NUMERIC
        assert "numeric failure: input row 1: predictive mean nan" in capsys.readouterr().err

    @pytest.fixture
    def one_huge_feature(self, tmp_path):
        """200 rows of two features and a target, one feature of row 8 at
        1e154: normalized with the statistics of a training set without it,
        it takes a prediction's variance to inf."""
        values = np.random.default_rng(0).normal(size=(200, 3))
        values[7, 0] = 1e154
        path = tmp_path / "huge.csv"
        path.write_text("a,b,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
        return path

    def test_a_non_finite_prediction_names_the_split(self, one_huge_feature, tmp_path, capsys):
        args = ["benchmark", "--data", str(one_huge_feature), "--splits", "5", "--epochs", "1",
                "--out", str(tmp_path / "bench.csv")]
        assert main(args) == EXIT_NUMERIC
        assert "numeric failure: split 2, input row 13: predictive mean" in capsys.readouterr().err

    def test_a_non_finite_prediction_names_the_repetition(self, one_huge_feature, tmp_path, capsys):
        # A test set of 20 rows: the huge feature's row 8 of the CSV is a
        # pool point of active repetition 1, the 56th of the pass over the
        # active repetitions' pools.
        args = ["active", "--data", str(one_huge_feature), "--policy", "both", "--repetitions", "3",
                "--epochs", "1", "--test-size", "20", "--acquisitions", "3",
                "--out", str(tmp_path / "curve")]
        assert main(args) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: active repetition 1, pool, data row 8: predictive mean" in err


    def test_a_non_finite_prediction_names_the_test_set(self, one_huge_feature, tmp_path, capsys):
        # With 100 test rows, the huge feature's row 8 of the CSV is a test
        # point of active repetition 1.
        args = ["active", "--data", str(one_huge_feature), "--policy", "both", "--repetitions", "3",
                "--epochs", "1", "--test-size", "100", "--acquisitions", "3",
                "--out", str(tmp_path / "curve")]
        assert main(args) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: active repetition 1, test set, data row 8: predictive mean" in err


class TestBenchmarkCommand:
    def test_schema_and_determinism(self, toy_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "benchmark", "--data", str(toy_csv), "--hidden", "3",
            "--epochs", "2", "--splits", "3", "--seed", "5",
        ]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

        rows = read_rows(a)
        assert rows[0] == ["split", "rmse", "rmse_stderr", "log_likelihood", "ll_stderr"]
        assert len(rows) == 1 + 3 + 1  # header, splits, summary
        assert rows[-1][0] == "mean"
        per_split = np.array([float(r[1]) for r in rows[1:4]])
        assert float(rows[-1][1]) == pytest.approx(per_split.mean())
        assert float(rows[-1][2]) == pytest.approx(
            per_split.std(ddof=1) / np.sqrt(3)
        )

    def test_jobs_flag_matches_serial(self, toy_csv, tmp_path, process_starts):
        # --jobs is accepted and ignored: every split trains in this process.
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = [
            "benchmark", "--data", str(toy_csv), "--hidden", "3",
            "--epochs", "1", "--splits", "3", "--seed", "3",
        ]
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()
        assert process_starts == []

    def test_skip_rate_failure_names_the_split(self, toy_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "MAX_SKIP_RATE", -1)
        code = main(
            [
                "benchmark", "--data", str(toy_csv), "--hidden", "3", "--epochs", "1",
                "--splits", "2", "--out", str(tmp_path / "b.csv"),
            ]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "split 0: 0/54 examples skipped in epoch 1" in err


class TestCpuCount:
    """Large forward passes run on every usable CPU; what a command writes
    must not depend on how many there are. Blocks of 64 rows put the
    passes below over the serial threshold of 2 * BLOCK_ROWS rows."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)

    def _outputs(self, monkeypatch, cpus, args, out):
        """The bytes the command writes to out on cpus CPUs, and whether some
        forward pass ran in parallel."""
        run_items, parallel = forward._run_items, []

        def spy(work, items, is_parallel):
            parallel.append(is_parallel)
            return run_items(work, items, is_parallel)

        monkeypatch.setattr(forward, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(forward, "_run_items", spy)
        assert main(args + ["--out", str(out)]) == EXIT_OK
        return out.read_bytes(), any(parallel)

    def test_predict(self, toy_csv, tmp_path, monkeypatch):
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(toy_csv), "--hidden", "4", "--epochs", "2",
                     "--out", str(model)]) == EXIT_OK
        feats = tmp_path / "f.csv"
        feats.write_text("".join(f"{x!r}\n" for x in np.linspace(-4.0, 4.0, 3 * 64 + 5).tolist()))
        args = ["predict", "--model", str(model), "--data", str(feats)]
        one = self._outputs(monkeypatch, 1, args, tmp_path / "one.csv")
        two = self._outputs(monkeypatch, 2, args, tmp_path / "two.csv")
        assert two[1]
        assert one[0] == two[0]

    def test_benchmark(self, toy_csv, tmp_path, monkeypatch):
        # Five splits of 30 test rows: the test-set pass of the stack covers
        # 150 rows.
        args = [
            "benchmark", "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
            "--splits", "5", "--test-fraction", "0.5", "--seed", "5",
        ]
        one = self._outputs(monkeypatch, 1, args, tmp_path / "one.csv")
        two = self._outputs(monkeypatch, 2, args, tmp_path / "two.csv")
        assert two[1]
        assert one[0] == two[0]

    @pytest.mark.parametrize(
        "command",
        [
            ["benchmark", "--splits", "8", "--test-fraction", "0.5"],
            ["active", "--policy", "both", "--repetitions", "4", "--initial-train", "8",
             "--test-size", "10", "--acquisitions", "3"],
        ],
        ids=["benchmark", "active"],
    )
    def test_training_in_run_groups(self, toy_csv, tmp_path, monkeypatch, command):
        # Eight runs train as one group on one CPU and as two groups of four,
        # each on its own thread, on two (every epoch, whatever its size);
        # the files written are the same.
        real, calls = kernel.Step.epoch, []

        def epoch(step, xs, ys):
            calls.append((ys.shape[1], threading.current_thread() is threading.main_thread()))
            return real(step, xs, ys)

        monkeypatch.setattr(kernel.Step, "epoch", epoch)
        monkeypatch.setattr(forward, "GROUP_WORK", 0)
        args = [command[0], "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
                "--seed", "5", *command[1:]]
        written = []
        for cpus in (1, 2):
            calls.clear()
            monkeypatch.setattr(forward, "usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(args + ["--out", str(out)]) == EXIT_OK
            written.append(sorted(
                (path.name.removeprefix(out.name), path.read_bytes())
                for path in tmp_path.glob(f"{out.name}*")
            ))
            assert {runs for runs, _ in calls} == {8 // cpus}
            assert {main for _, main in calls} == ({True} if cpus == 1 else {True, False})
        assert written[0] == written[1] and written[0]


class TestTrainingSetPasses:
    """A rows pass over a training set runs only where a command prints the
    training RMSE: once in train, never in benchmark or active. The toy set
    has 60 rows, and each command's arguments give its training sets a row
    count that no other pass of it has."""

    @pytest.fixture
    def passes(self, monkeypatch, tmp_path):
        """The rows per run of every rows pass, each with the names of the
        files in tmp_path when it started."""
        seen = []
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "pbp"]:
            real = getattr(module, "forward_output_moments", None)
            if real is None:
                continue

            def spy(stack, x, real=real):
                seen.append((np.shape(x)[1], sorted(path.name for path in tmp_path.iterdir())))
                return real(stack, x)

            monkeypatch.setattr(module, "forward_output_moments", spy)
        return seen

    @pytest.mark.parametrize("epochs", [2, 0])
    def test_train_takes_the_training_rmse_once_before_saving(
        self, toy_csv, tmp_path, capsys, monkeypatch, passes, epochs
    ):
        assert main(["train", "--data", str(toy_csv), "--hidden", "4", "--epochs", str(epochs),
                     "--seed", "3", "--out", str(tmp_path / "m.json")]) == EXIT_OK
        printed = summary(capsys.readouterr().out)
        # 54 training rows and 6 test rows; the model file is written between.
        test_pass = (6, ["m.json", "toy.csv"])
        assert passes == ([(54, ["toy.csv"]), test_pass] if epochs else [test_pass])
        rng = np.random.default_rng(3)
        train_set, _ = split(load_csv(toy_csv), 0.1, rng)
        config = PbpConfig(hidden_layer_sizes=(4,), epochs=epochs, seed=3)
        [(_, _, _, rmse)] = train_runs_tracing_rmse(
            monkeypatch, [normalize(train_set)[0]], config, [rng]
        )
        if epochs:
            assert printed["final_train_rmse_normalized"] == repr(rmse[-1])
        else:
            assert "final_train_rmse_normalized" not in printed

    def test_benchmark_runs_none(self, toy_csv, tmp_path, passes):
        # 54 training rows and 6 test rows per split.
        assert main(["benchmark", "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
                     "--splits", "3", "--out", str(tmp_path / "b.csv")]) == EXIT_OK
        assert passes == [(6, ["toy.csv"])]

    def test_active_runs_none(self, toy_csv, tmp_path, passes):
        # Training sets of 5, 6 and 7 rows, test sets of 20 and pools of 35
        # and 34.
        assert main(["active", "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
                     "--initial-train", "5", "--test-size", "20", "--acquisitions", "2",
                     "--repetitions", "2", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert sorted({n for n, _ in passes}) == [20, 34, 35]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """pbp train and then pbp predict, in a fresh process (BLAS reads its
    thread count when numpy loads), write the same bytes with one BLAS thread
    and with two. Hidden layers of 100 units put the training steps' gemvs
    and the rows passes' gemms above the sizes from which OpenBLAS splits
    them over its threads."""
    rng = np.random.default_rng(3)
    rows = np.column_stack([rng.normal(size=(200, 4)), rng.normal(size=200)])
    data, features = tmp_path / "data.csv", tmp_path / "features.csv"
    data.write_text("a,b,c,d,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    grid = rng.normal(size=(2048, 4)).tolist()
    features.write_text("".join(",".join(map(repr, row)) + "\n" for row in grid))
    path = os.pathsep.join(filter(None, [str(Path(pbp.__file__).parent.parent), os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        model, predictions = tmp_path / f"model-{threads}.json", tmp_path / f"pred-{threads}.csv"
        commands = [
            ["train", "--data", str(data), "--hidden", "100", "100", "--epochs", "1", "--out", str(model)],
            ["predict", "--model", str(model), "--data", str(features), "--out", str(predictions)],
        ]
        script = f"import sys; from pbp.cli import main; sys.exit(any(main(args) for args in {commands!r}))"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        written.append((model.read_bytes(), predictions.read_bytes()))
    assert written[0] == written[1]


class TestActiveCommand:
    def test_smoke_run_produces_curves(self, toy_csv, tmp_path):
        prefix = tmp_path / "curve"
        code = main(
            [
                "active", "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
                "--policy", "both", "--initial-train", "8", "--test-size", "10",
                "--acquisitions", "9", "--repetitions", "2", "--seed", "4",
                "--out", str(prefix),
            ]
        )
        assert code == EXIT_OK
        for policy in ("active", "random"):
            rows = read_rows(tmp_path / f"curve_{policy}.csv")
            assert rows[0] == ["step", "mean_rmse", "stderr"]
            assert len(rows) == 1 + 10  # header + 10 evaluations

    def test_sharded_repetitions_match_one_batch(self, toy_csv, tmp_path, process_starts):
        # --jobs is accepted and ignored: every repetition trains in this process.
        args = [
            "active", "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
            "--policy", "both", "--initial-train", "8", "--test-size", "10",
            "--acquisitions", "3", "--repetitions", "3", "--seed", "6",
        ]
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--jobs", "1", "--out", str(one)]) == EXIT_OK
        assert main(args + ["--jobs", "2", "--out", str(two)]) == EXIT_OK
        for policy in ("active", "random"):
            a = tmp_path / f"one_{policy}.csv"
            b = tmp_path / f"two_{policy}.csv"
            assert a.read_bytes() == b.read_bytes()
        assert process_starts == []


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_both_policies_match_separate_runs(self, toy_csv, tmp_path, jobs):
        # Both arms train as one batch; each curve is that of its arm alone.
        args = [
            "active", "--data", str(toy_csv), "--hidden", "3", "--epochs", "2",
            "--initial-train", "8", "--test-size", "10", "--acquisitions", "3",
            "--repetitions", "3", "--seed", "11", "--jobs", jobs,
        ]
        both = tmp_path / "both"
        assert main(args + ["--policy", "both", "--out", str(both)]) == EXIT_OK
        for policy in ("active", "random"):
            alone = tmp_path / f"alone_{policy}"
            assert main(args + ["--policy", policy, "--out", str(alone)]) == EXIT_OK
            separate = tmp_path / f"alone_{policy}_{policy}.csv"
            assert (tmp_path / f"both_{policy}.csv").read_bytes() == separate.read_bytes()

    def test_skip_rate_failure_names_the_repetition(self, toy_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "MAX_SKIP_RATE", -1)
        code = main(
            [
                "active", "--data", str(toy_csv), "--hidden", "3", "--epochs", "1",
                "--initial-train", "8", "--test-size", "10", "--acquisitions", "2",
                "--repetitions", "2", "--out", str(tmp_path / "curve"),
            ]
        )
        assert code == EXIT_NUMERIC
        assert "active repetition 0: 0/8 examples skipped in epoch 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("curve_*.csv"))


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["train", "--nonsense"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_bad_fraction_is_data_error(self, toy_csv, tmp_path):
        code = main(
            [
                "train", "--data", str(toy_csv), "--test-fraction", "2.0",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("benchmark", "--splits", "0"),
            ("benchmark", "--splits", "-2"),
            ("benchmark", "--jobs", "0"),
            ("benchmark", "--jobs", "-1"),
            ("active", "--repetitions", "0"),
            ("active", "--initial-train", "0"),
            ("active", "--jobs", "0"),
            ("active", "--jobs", "-1"),
            ("active", "--test-size", "0"),
            ("active", "--test-size", "-5"),
            ("train", "--hidden", "0"),
            ("benchmark", "--hidden", "0"),
            ("active", "--hidden", "-3"),
        ],
    )
    def test_count_below_one_is_a_usage_error(self, toy_csv, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert main([command, "--data", str(toy_csv), flag, value, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert flag in err and "at least 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv"]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("active", "--acquisitions", "-1"),
            ("active", "--acquisitions", "-2"),
            ("train", "--epochs", "-1"),
            ("benchmark", "--epochs", "-1"),
            ("active", "--epochs", "-3"),
            ("train", "--seed", "-1"),
            ("benchmark", "--seed", "-1"),
            ("active", "--seed", "-2"),
        ],
    )
    def test_negative_count_is_a_usage_error(self, toy_csv, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert main([command, "--data", str(toy_csv), flag, value, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert flag in err and "at least 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv"]

    def test_zero_acquisitions_gives_a_one_row_curve(self, toy_csv, tmp_path):
        prefix = tmp_path / "curve"
        code = main(
            [
                "active", "--data", str(toy_csv), "--hidden", "3", "--epochs", "1",
                "--policy", "random", "--initial-train", "8", "--test-size", "10",
                "--acquisitions", "0", "--repetitions", "2", "--out", str(prefix),
            ]
        )
        assert code == EXIT_OK
        assert len(read_rows(tmp_path / "curve_random.csv")) == 1 + 1


class TestHostileTrainingSets:
    """Training sets of one row or of repeated rows train cleanly: exit 0 and
    finite numbers, never a traceback or a NaN."""

    def test_two_row_csv_trains_on_one_row(self, tmp_path, capsys):
        data = write_csv(tmp_path / "two.csv", [(0.5, 1.5), (-1.0, 4.0)])
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--hidden", "4", "--epochs", "3",
                     "--test-fraction", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        lines = summary(capsys.readouterr().out)
        for key in ("final_train_rmse_normalized", "test_rmse", "test_log_likelihood"):
            assert math.isfinite(float(lines[key])), key
        assert lines["examples_skipped"] == "0"
        assert np.isfinite(load_model(out).net.layers[0].means).all()

    @pytest.mark.parametrize(
        "rows, fraction",
        [([(0.5, 1.5)] * 2, "0.5"), ([(0.5, 1.5), (2.0, -3.0)] * 20, "0.1")],
        ids=["one-row-twice", "two-rows-20-times"],
    )
    def test_repeated_rows_train_and_benchmark(self, tmp_path, capsys, rows, fraction):
        data = write_csv(tmp_path / "dup.csv", rows)
        model, bench = tmp_path / "m.json", tmp_path / "b.csv"
        assert main(["train", "--data", str(data), "--hidden", "4", "--epochs", "3",
                     "--test-fraction", fraction, "--out", str(model)]) == EXIT_OK
        lines = summary(capsys.readouterr().out)
        for key in ("final_train_rmse_normalized", "test_rmse", "test_log_likelihood"):
            assert math.isfinite(float(lines[key])), key
        assert main(["benchmark", "--data", str(data), "--hidden", "4", "--epochs", "3",
                     "--splits", "3", "--test-fraction", fraction, "--out", str(bench)]) == EXIT_OK
        table = read_rows(bench)
        assert len(table) == 1 + 3 + 1
        assert all(math.isfinite(float(cell)) for row in table[1:] for cell in row[1:] if cell)

    def test_one_row_trains_at_the_default_width(self, tmp_path, capsys):
        # Its one row normalizes to inputs of 0: every input weight's EP
        # cavity is flat, and where the running prior shape has fallen to 1
        # or below, the refresh skips the site rather than write b / (a - 1),
        # which was negative.
        data = write_csv(tmp_path / "two.csv", [(0.5, 1.5), (-1.0, 4.0)])
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--epochs", "3", "--test-fraction", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert np.isfinite(load_model(out).net.layers[0].variances).all()

    def test_a_constant_feature_column_trains_and_benchmarks(self, tmp_path, capsys):
        # The constant column normalizes to 0, so its weights' cavities are
        # flat (see above).
        rng = np.random.default_rng(0)
        features = rng.normal(size=(60, 2))
        features[:, 1] = 7.0
        targets = features.sum(axis=1) + rng.normal(size=60)
        data = tmp_path / "constant.csv"
        with open(data, "w") as fh:
            fh.write("a,b,y\n")
            for (a, b), y in zip(features.tolist(), targets.tolist()):
                fh.write(f"{a!r},{b!r},{y!r}\n")
        bench = tmp_path / "b.csv"
        code = main(["benchmark", "--data", str(data), "--epochs", "3", "--splits", "3",
                     "--out", str(bench)])
        assert code == EXIT_OK, capsys.readouterr().err
        table = read_rows(bench)
        assert all(math.isfinite(float(cell)) for row in table[1:] for cell in row[1:] if cell)


class TestTinyTargets:
    def test_targets_whose_spread_underflows_are_a_data_error(self, tmp_path, capsys):
        # Their standard deviation underflows to 0; pinning it to 1 would
        # train on targets of 0.
        rng = np.random.default_rng(3)
        rows = zip(rng.normal(size=30).tolist(), (1e-301 * rng.normal(size=30)).tolist())
        data = write_csv(tmp_path / "tiny.csv", rows)
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--hidden", "4", "--epochs", "1",
                     "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: target column 'y': the values differ but their ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_equal_targets_still_train(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        data = write_csv(tmp_path / "equal.csv", [(x, 1e-301) for x in rng.normal(size=30).tolist()])
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--hidden", "4", "--epochs", "1",
                     "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert out.exists()
