"""Acceptance suite: one test per criterion, with a printed PASS line each.

Criteria on the UCI benchmarks (2, 3, 4, 6) need the prepared CSVs under
data/ (see scripts/fetch_datasets.py); offline they skip with an explicit
reason instead of silently passing. Everything else runs self-contained.
"""

import math

import numpy as np
import pytest

from conftest import (
    one_run_gradients,
    output_moments,
    predict_alone,
    random_net,
    relu_moments,
    require_uci,
    toy_cubic_dataset,
)
from oracles import (
    fd_logz_gradients,
    gamma_tilted_moments_quadrature,
    mc_forward_moments,
)
from pbp.active import POLICIES, ActiveConfig, run_active_experiments
from pbp.cli import EXIT_OK
from pbp.cli import main as cli_main
from pbp.data import Dataset, load_csv, normalize, split
from pbp.forward import MomentVector
from pbp.posterior import GammaDist, PbpConfig, PosteriorStack
from pbp.prediction import test_metrics as stacked_metrics
from pbp.training import train, train_runs
from reference_prior import _gamma_moments, gaussian_refine

BENCH_CONFIG = dict(hidden_layer_sizes=(50,), epochs=40)
SPLITS = 20
BASE_SEED = 1000


def announce(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


# ---------------------------------------------------------------- criterion 1


class TestCriterion1UnitOracles:
    def test_relu_moments_vs_monte_carlo(self):
        rng = np.random.default_rng(101)
        draws = np.random.default_rng(202)
        n = 10**6
        for _ in range(50):
            m = float(rng.uniform(-3.0, 3.0))
            v = float(rng.uniform(0.05, 4.0))
            out, _ = relu_moments(MomentVector(np.array([m]), np.array([v])))
            samples = np.maximum(m + math.sqrt(v) * draws.standard_normal(n), 0.0)
            mean_se = samples.std(ddof=1) / math.sqrt(n)
            m4 = float(np.mean((samples - samples.mean()) ** 4))
            var = float(samples.var(ddof=1))
            var_se = math.sqrt(max(m4 - var * var, 0.0) / n)
            assert abs(out.mean[0] - samples.mean()) < 3 * mean_se
            assert abs(out.variance[0] - var) < 3 * var_se
        announce("1a", "relu_moments within 3 MC standard errors on 50 instances")

    @pytest.mark.slow
    def test_forward_moments_vs_monte_carlo(self):
        # Single-hidden-layer shapes: there the propagated moments are exact
        # (deeper nets invoke the documented Gaussian assumption on sums of
        # rectified units, checked separately below).
        rng = np.random.default_rng(11)
        shapes = [[2, 8, 1], [3, 16, 1], [4, 10, 1], [1, 12, 1], [5, 6, 1]]
        for trial in range(50):
            net = random_net(
                shapes[trial % len(shapes)],
                rng,
                mean_scale=0.8,
                var_low=0.02,
                var_high=0.5,
            )
            x = rng.normal(size=net.layer_sizes[0])
            m, v = output_moments(net, x)
            est = mc_forward_moments(net, x, 10**6, np.random.default_rng(500 + trial))
            assert abs(m - est.mean) < 3 * est.mean_se, f"trial {trial}"
            assert abs(v - est.variance) < 3 * est.variance_se, f"trial {trial}"
        announce("1b", "forward moments within 3 MC standard errors on 50 instances")

    def test_two_hidden_layer_approximation_quality(self):
        # Depth-2 moments rest on the central-limit collapse of each hidden
        # layer's output; the deviation must stay moderate and shrink as the
        # first hidden layer widens.
        devs = []
        for units in (6, 24):
            rng = np.random.default_rng(units)
            net = random_net(
                [3, units, 6, 1], rng, mean_scale=0.8, var_low=0.02, var_high=0.5
            )
            x = rng.normal(size=3)
            m, v = output_moments(net, x)
            est = mc_forward_moments(net, x, 10**6, np.random.default_rng(9 + units))
            scale = math.sqrt(est.variance)
            devs.append(abs(m - est.mean) / scale)
            assert abs(m - est.mean) / scale < 0.10
            assert abs(v - est.variance) / est.variance < 0.10
        assert devs[1] < devs[0]
        announce(
            "1b+",
            f"depth-2 CLT deviation {devs[0]:.3f} -> {devs[1]:.3f} of output sd "
            "as the hidden layer widens",
        )

    def test_gaussian_refine_vs_conjugate_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = float(rng.normal())
            v = float(rng.uniform(0.05, 8.0))
            y = float(rng.normal(scale=3.0))
            nv = float(rng.uniform(0.05, 8.0))
            total = v + nv
            dm = (y - m) / total
            dv = 0.5 * ((y - m) ** 2 / total**2 - 1.0 / total)
            m_new, v_new = gaussian_refine(m, v, dm, dv)
            assert abs(m_new - (m * nv + y * v) / total) < 1e-12
            assert abs(v_new - v * nv / total) < 1e-12
        announce("1c", "gaussian_refine matches conjugate posteriors to 1e-12")

    def test_gamma_refine_vs_quadrature(self):
        from test_updates import quadrature_logz_triple, student_t_factor

        rng = np.random.default_rng(31)
        for _ in range(20):
            g = GammaDist(float(rng.uniform(2.0, 12.0)), float(rng.uniform(1.0, 10.0)))
            factor = student_t_factor(
                float(rng.normal(scale=2.0)), float(rng.uniform(0.05, 2.0))
            )
            refined = GammaDist(*_gamma_moments(g.shape, g.rate, *quadrature_logz_triple(g, factor)))
            e1, e2 = gamma_tilted_moments_quadrature(g, factor)
            assert abs(refined.shape / refined.rate - e1) / e1 < 1e-6
            second = refined.shape * (refined.shape + 1.0) / refined.rate**2
            assert abs(second - e2) / e2 < 1e-6
        announce("1d", "the Gamma moment match agrees with quadrature tilted moments to 1e-6")

    def test_backward_gradients_vs_finite_differences(self):
        from test_gradients import assert_gradients_match

        rng = np.random.default_rng(41)
        shapes = [[3, 5, 1], [2, 4, 3, 1], [4, 8, 1], [1, 2, 2, 1], [5, 3, 1]]
        for trial in range(100):
            net = random_net(
                shapes[trial % len(shapes)], rng, var_low=0.05, var_high=1.5
            )
            net.gamma = GammaDist(
                float(rng.uniform(2, 10)), float(rng.uniform(2, 10))
            )
            x = rng.normal(size=net.layer_sizes[0])
            y = float(rng.normal())
            grads = one_run_gradients(net, x, y)
            fd = fd_logz_gradients(net, x, y)
            assert_gradients_match(grads, fd, rel_tol=1e-5)
        announce("1e", "backward gradients match finite differences on 100 instances")


# ------------------------------------------------------- criteria 2, 3, 4


def run_benchmark(dataset, splits=SPLITS, **config):
    """Every split in one lockstep batch, as `pbp benchmark` trains them:
    split s draws its split and its training from BASE_SEED + s. One row of
    results per split."""
    config = PbpConfig(**{**BENCH_CONFIG, **config})
    rngs = [np.random.default_rng(BASE_SEED + s) for s in range(splits)]
    train_sets, norms, test_sets = [], [], []
    for rng in rngs:
        train_set, test_set = split(dataset, 0.1, rng)
        train_norm, stats = normalize(train_set)
        train_sets.append(train_norm)
        norms.append(stats)
        test_sets.append(test_set)
    runs = train_runs(train_sets, config, rngs)
    rmses, lls = stacked_metrics(PosteriorStack.of([net for net, _, _ in runs]), norms, test_sets)
    results = []
    for (net, _, report), rmse, ll in zip(runs, rmses, lls):
        negative = sum(int((l.variances <= 0).sum()) for l in net.layers)
        results.append((
            rmse,
            ll,
            report.undo_events,
            report.weight_updates,
            report.examples_skipped,
            report.epochs_run * len(train_sets[0]),
            negative,
        ))
    return np.array(results)


def summarize(results):
    rmses, lls = results[:, 0], results[:, 1]
    undo_rate = results[:, 2].sum() / max(results[:, 3].sum(), 1)
    skip_rate = results[:, 4].sum() / max(results[:, 5].sum(), 1)
    negatives = results[:, 6].sum()
    return rmses, lls, undo_rate, skip_rate, negatives


class TestCriterion2Boston:
    def test_boston_rmse_and_ll(self):
        path = require_uci("boston")
        dataset = load_csv(path, "medv")
        assert dataset.features.shape == (506, 13)
        results = run_benchmark(dataset)
        rmses, lls, undo_rate, skip_rate, negatives = summarize(results)
        mean_rmse, mean_ll = rmses.mean(), lls.mean()
        assert 2.6 <= mean_rmse <= 3.6, f"boston mean RMSE {mean_rmse:.3f}"
        assert -2.9 <= mean_ll <= -2.3, f"boston mean LL {mean_ll:.3f}"
        assert negatives == 0 and undo_rate < 0.01 and skip_rate < 0.01
        announce(
            "2",
            f"boston rmse {mean_rmse:.3f} in [2.6, 3.6], ll {mean_ll:.3f} in [-2.9, -2.3]",
        )


class TestCriterion3Yacht:
    def test_yacht_rmse(self):
        path = require_uci("yacht")
        dataset = load_csv(path, "resistance")
        assert dataset.features.shape == (308, 6)
        results = run_benchmark(dataset)
        rmses, _, undo_rate, skip_rate, negatives = summarize(results)
        mean_rmse = rmses.mean()
        assert 0.8 <= mean_rmse <= 1.5, f"yacht mean RMSE {mean_rmse:.3f}"
        assert negatives == 0 and undo_rate < 0.01 and skip_rate < 0.01
        announce("3", f"yacht rmse {mean_rmse:.3f} in [0.8, 1.5]")


class TestCriterion4Wine:
    def test_wine_rmse(self):
        path = require_uci("wine")
        dataset = load_csv(path, "quality")
        assert dataset.features.shape == (1599, 11)
        results = run_benchmark(dataset)
        rmses, _, undo_rate, skip_rate, negatives = summarize(results)
        mean_rmse = rmses.mean()
        assert 0.60 <= mean_rmse <= 0.68, f"wine mean RMSE {mean_rmse:.3f}"
        assert negatives == 0 and undo_rate < 0.01 and skip_rate < 0.01
        announce("4", f"wine rmse {mean_rmse:.3f} in [0.60, 0.68]")


# ---------------------------------------------------------------- criterion 5


class TestCriterion5ToyCubic:
    def test_toy_cubic_calibration_and_fit(self):
        ds = toy_cubic_dataset(20, seed=7, noise_sd=3.0)
        norm, stats = normalize(ds)
        cfg = PbpConfig(hidden_layer_sizes=(100,), epochs=40, seed=7)
        net, _, _ = train(norm, cfg, np.random.default_rng(7))
        holdout_rng = np.random.default_rng(70)
        x_hold = holdout_rng.uniform(-4.0, 4.0, 100)
        y_hold = x_hold**3 + holdout_rng.normal(0.0, 3.0, 100)
        means, variances = predict_alone(net, stats, x_hold[:, None])
        inside = np.abs(y_hold - means) <= 3.0 * np.sqrt(variances)
        coverage = inside.mean()
        assert coverage >= 0.95, f"coverage {coverage:.2f}"

        grid = np.linspace(-3.5, 3.5, 200)
        grid_means, _ = predict_alone(net, stats, grid[:, None])
        curve_rmse = float(np.sqrt(np.mean((grid_means - grid**3) ** 2)))
        assert curve_rmse < 10.0, f"curve RMSE {curve_rmse:.2f}"

        # Calibration sanity at the cubic's zero crossing.
        m0, v0 = predict_alone(net, stats, np.array([[0.0]]))
        assert abs(m0[0]) <= 3.0 * math.sqrt(v0[0])
        announce(
            "5", f"toy coverage {coverage:.0%} >= 95%, curve rmse {curve_rmse:.2f} < 10"
        )


# ---------------------------------------------------------------- criterion 6


def run_active_benchmark(dataset, repetitions=40):
    """Every repetition of both arms in one lockstep batch, as `pbp active`
    runs them: repetition r of either arm starts from BASE_SEED + r."""
    runs = [(policy, rep) for policy in POLICIES for rep in range(repetitions)]
    states = run_active_experiments(
        dataset,
        [policy for policy, _ in runs],
        PbpConfig(hidden_layer_sizes=(10,), epochs=40),
        [np.random.default_rng(BASE_SEED + rep) for _, rep in runs],
        ActiveConfig(initial_train=20, test_size=100, acquisitions=9),
    )
    finals = np.array([state.rmse_history[-1] for state in states]).reshape(len(POLICIES), repetitions)
    return finals[POLICIES.index("active")], finals[POLICIES.index("random")]


def assert_active_beats_random(active, random_arm, name):
    diff = random_arm.mean() - active.mean()
    pooled_se = math.sqrt(
        active.std(ddof=1) ** 2 / active.size
        + random_arm.std(ddof=1) ** 2 / random_arm.size
    )
    assert diff > pooled_se, (
        f"{name}: active {active.mean():.3f} vs random {random_arm.mean():.3f}, "
        f"diff {diff:.3f} <= pooled se {pooled_se:.3f}"
    )
    return diff, pooled_se


class TestCriterion6ActiveLearning:
    def test_boston_active_beats_random(self):
        path = require_uci("boston")
        dataset = load_csv(path, "medv")
        active, random_arm = run_active_benchmark(dataset)
        diff, se = assert_active_beats_random(active, random_arm, "boston")
        announce(
            "6a",
            f"boston active {active.mean():.3f} < random {random_arm.mean():.3f} "
            f"(diff {diff:.3f} > se {se:.3f})",
        )

    def test_yacht_active_beats_random(self):
        path = require_uci("yacht")
        dataset = load_csv(path, "resistance")
        active, random_arm = run_active_benchmark(dataset)
        diff, se = assert_active_beats_random(active, random_arm, "yacht")
        announce(
            "6b",
            f"yacht active {active.mean():.3f} < random {random_arm.mean():.3f} "
            f"(diff {diff:.3f} > se {se:.3f})",
        )


# ---------------------------------------------------------------- criterion 7


class TestCriterion7Determinism:
    def test_benchmark_outputs_byte_identical(self, tmp_path):
        ds = toy_cubic_dataset(80, seed=13)
        csv_path = tmp_path / "toy.csv"
        with open(csv_path, "w") as fh:
            fh.write("x,y\n")
            for row, target in zip(ds.features, ds.targets):
                fh.write(f"{float(row[0])!r},{float(target)!r}\n")

        args = [
            "benchmark", "--data", str(csv_path), "--hidden", "10",
            "--epochs", "5", "--splits", "4", "--seed", "21",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(a)]) == EXIT_OK
        assert cli_main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        announce("7", "cmd_benchmark reruns are byte-identical under a fixed seed")


# ---------------------------------------------------------------- criterion 8


class TestCriterion8Robustness:
    def test_counters_and_variances_at_scale(self):
        # Toy-cubic run plus a benchmark-scale synthetic task (506 x 13, 50
        # hidden units, 40 epochs), standing in for the UCI shapes offline.
        ds_toy = toy_cubic_dataset(20, seed=7, noise_sd=3.0)
        norm, _ = normalize(ds_toy)
        cfg = PbpConfig(hidden_layer_sizes=(100,), epochs=40, seed=7)
        net, _, report = train(norm, cfg, np.random.default_rng(7))
        runs = [(net, report, len(norm))]

        rng = np.random.default_rng(88)
        X = rng.normal(size=(506, 13))
        teacher = np.maximum(X @ rng.normal(size=(13, 20)) / math.sqrt(13), 0.0)
        y = teacher @ rng.normal(size=20)
        y = y + rng.normal(0.0, 0.3 * y.std(), 506)
        big = Dataset(X, y)
        srng = np.random.default_rng(99)
        tr, _ = split(big, 0.1, srng)
        trn, _ = normalize(tr)
        cfg_big = PbpConfig(hidden_layer_sizes=(50,), epochs=40, seed=99)
        net_big, _, report_big = train(trn, cfg_big, srng)
        runs.append((net_big, report_big, len(trn)))

        for trained, rep, n in runs:
            for layer in trained.layers:
                assert np.all(layer.variances > 0.0)
                assert np.all(np.isfinite(layer.variances))
            undo_rate = rep.undo_events / max(rep.weight_updates, 1)
            skip_rate = rep.examples_skipped / max(rep.epochs_run * n, 1)
            assert undo_rate < 0.01, f"undo rate {undo_rate:.4%}"
            assert skip_rate < 0.01, f"skip rate {skip_rate:.4%}"
        announce(
            "8",
            "no negative variances; undo and skip rates below 1% on toy and "
            "benchmark-scale runs",
        )
