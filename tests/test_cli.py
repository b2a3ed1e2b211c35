import csv
import io
import json

import numpy as np
import pytest

from conftest import toy_cubic_dataset
import pbp.forward as forward
import pbp.training as training
import pbp.updates as updates
from pbp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _prediction_csv, main
from pbp.data import load_model, read_csv_matrix
from pbp.forward import MomentVector
from pbp.prediction import predict_batch


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
        floor = noise_floor(model.net) * model.norm.target_std**2
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
        means, variances = predict_batch(model.net, model.norm, read_csv_matrix(feats)[0])
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
        real = forward.forward_linear

        def negative(*args, **kwargs):
            a = real(*args, **kwargs)
            return MomentVector(a.mean, -1.0 - a.variance)

        monkeypatch.setattr(forward, "forward_linear", negative)
        code, out = self._train(toy_csv, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: negative pre-activation variance" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_variance_in_the_first_prior_incorporation(
        self, toy_csv, tmp_path, monkeypatch, capsys
    ):
        def failing(*args):
            raise updates.NegativeVarianceError("refined variance -1.0 (from v=inf)")

        monkeypatch.setattr(training, "incorporate_all_prior_factors", failing)
        code, out = self._train(toy_csv, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: refined variance -1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow(self, toy_csv, tmp_path, monkeypatch, capsys):
        def overflowing(net, rng):
            raise OverflowError("math range error")

        monkeypatch.setattr(training, "perturb_means", overflowing)
        code, out = self._train(toy_csv, tmp_path)
        assert code == EXIT_NUMERIC
        assert "numeric failure: math range error" in capsys.readouterr().err
        assert not out.exists()


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

    def test_jobs_flag_matches_serial(self, toy_csv, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = [
            "benchmark", "--data", str(toy_csv), "--hidden", "3",
            "--epochs", "1", "--splits", "2", "--seed", "3",
        ]
        assert main(args + ["--out", str(serial)]) == EXIT_OK
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_uneven_shards_match_one_batch(self, toy_csv, tmp_path):
        # Three splits over two processes: shards of two and one split.
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        args = [
            "benchmark", "--data", str(toy_csv), "--hidden", "3",
            "--epochs", "2", "--splits", "3", "--seed", "8",
        ]
        assert main(args + ["--jobs", "1", "--out", str(one)]) == EXIT_OK
        assert main(args + ["--jobs", "2", "--out", str(two)]) == EXIT_OK
        assert one.read_bytes() == two.read_bytes()

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
        # Three splits of 54 training rows: each epoch-RMSE pass of the stack
        # covers 162 rows.
        args = [
            "benchmark", "--data", str(toy_csv), "--hidden", "3",
            "--epochs", "2", "--splits", "3", "--seed", "5",
        ]
        one = self._outputs(monkeypatch, 1, args, tmp_path / "one.csv")
        two = self._outputs(monkeypatch, 2, args, tmp_path / "two.csv")
        assert two[1]
        assert one[0] == two[0]


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

    def test_sharded_repetitions_match_one_batch(self, toy_csv, tmp_path):
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
        ],
    )
    def test_count_below_one_is_a_usage_error(self, toy_csv, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert main([command, "--data", str(toy_csv), flag, value, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert flag in err and "at least 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv"]

    @pytest.mark.parametrize("value", ["-1", "-2"])
    def test_negative_acquisitions_is_a_usage_error(self, toy_csv, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = main(["active", "--data", str(toy_csv), "--acquisitions", value, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--acquisitions" in err and "at least 0" in err
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
