import math

import numpy as np
import pytest

from conftest import identity_stats, output_moments, predict_alone, random_net
from pbp import forward
from pbp.data import Dataset, NormStats, normalize
from pbp.forward import BLOCK_ROWS
from pbp.posterior import GammaDist, NumericError, PbpConfig, PosteriorStack, new_uniform
from pbp.prediction import TrainedModel, noise_floor, predict_batch
from pbp.prediction import test_metrics as stacked_metrics


def model_from_net(net, norm=None):
    return TrainedModel(
        net=net,
        norm=norm or identity_stats(net.layer_sizes[0]),
        config=PbpConfig(hidden_layer_sizes=tuple(net.layer_sizes[1:-1])),
    )


def metrics(model, test):
    """The model's test RMSE and average log-likelihood, as floats, from
    stacked_metrics of its stack of one."""
    [rmse_value], [ll_value] = stacked_metrics(PosteriorStack.of([model.net]), [model.norm], [test])
    return float(rmse_value), float(ll_value)


def rmse(model, test):
    return metrics(model, test)[0]


def avg_log_likelihood(model, test):
    return metrics(model, test)[1]


def lone_noise_floor(net):
    return float(noise_floor(PosteriorStack.of([net]))[0])


class TestPredict:
    def test_identity_normalization_exact(self):
        rng = np.random.default_rng(2)
        net = random_net([2, 4, 1], rng)
        x = np.array([0.3, -0.8])
        mz, vz = output_moments(net, x)
        mean, variance = predict_alone(net, identity_stats(2), x[None, :])
        assert mean.shape == variance.shape == (1,)
        assert mean[0] == mz
        assert variance[0] == lone_noise_floor(net) + vz

    def test_deterministic_net_gives_noise_floor_only(self):
        rng = np.random.default_rng(4)
        net = random_net([2, 3, 1], rng)
        for layer in net.layers:
            layer.variances[...] = 0.0
        _, variance = predict_alone(net, identity_stats(2), np.array([[0.5, 0.5]]))
        assert variance[0] == pytest.approx(lone_noise_floor(net), rel=1e-15)

    def test_denormalization_identity(self):
        # Scaling stats must map the normalized-space computation through
        # mean*sd + mu and variance*sd^2 exactly.
        rng = np.random.default_rng(6)
        net = random_net([3, 4, 1], rng)
        stats = identity_stats(3)
        stats.target_mean = 11.0
        stats.target_std = 2.5
        x = rng.normal(size=3)
        mz, vz = output_moments(net, x)
        mean, variance = predict_alone(net, stats, x[None, :])
        assert mean[0] == pytest.approx(mz * 2.5 + 11.0, rel=1e-15)
        assert variance[0] == pytest.approx((lone_noise_floor(net) + vz) * 6.25, rel=1e-15)

    def test_feature_normalization_applied(self):
        rng = np.random.default_rng(8)
        net = random_net([1, 3, 1], rng)
        stats = identity_stats(1)
        stats.feature_mean = np.array([2.0])
        stats.feature_std = np.array([4.0])
        raw = np.array([[6.0]])  # normalizes to 1.0
        direct_mean, _ = predict_alone(net, identity_stats(1), np.array([[1.0]]))
        via_stats_mean, _ = predict_alone(net, stats, raw)
        assert via_stats_mean == direct_mean

    def test_dimension_mismatch(self):
        net = random_net([2, 3, 1], np.random.default_rng(0))
        with pytest.raises(ValueError):
            predict_alone(net, identity_stats(2), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            predict_alone(net, identity_stats(2), np.zeros(2))  # one row needs shape (1, d)

    @pytest.mark.parametrize(
        "rows, first", [((0.5, 1e300, 0.5), 2), ((1e160, -1e300), 1), ((-1e300,), 1)]
    )
    def test_non_finite_prediction_names_the_first_row(self, rows, first):
        # Overflow and inf - inf are left to the check on the outputs, so no
        # RuntimeWarning comes first (the suite turns those into errors).
        net = random_net([1, 3, 1], np.random.default_rng(9))
        with pytest.raises(NumericError, match=f"^input row {first}: predictive mean"):
            predict_alone(net, identity_stats(1), np.array(rows)[:, None])

    def test_non_finite_prediction_names_the_run(self):
        # Run 0's rows all stay finite; run 1's second overflows.
        rng = np.random.default_rng(9)
        stack = PosteriorStack.of([random_net([1, 3, 1], rng) for _ in range(2)])
        rows = np.array([[0.5, -1e3, 0.5], [0.5, 1e300, 0.5]])[..., None]
        with pytest.raises(NumericError, match="^run 1, input row 2: predictive mean"):
            predict_batch(stack, [identity_stats(1)] * 2, rows)


class TestNoiseFloor:
    def test_gaussian_collapse_of_the_noise_gamma(self):
        net = new_uniform([2, 3, 1])
        net.gamma = GammaDist(6.0, 6.0)
        assert lone_noise_floor(net) == 6.0 / 5.0
        net.gamma = GammaDist(3.0, 0.5)
        assert lone_noise_floor(net) == 0.25

    @pytest.mark.parametrize("gamma", [GammaDist(1.0, 0.0), GammaDist(0.5, 2.0)])
    def test_undefined_for_an_untrained_gamma(self, gamma):
        # Shape <= 1 (the uniform state among them) has no finite variance.
        net = new_uniform([2, 3, 1])
        net.gamma = gamma
        with pytest.raises(ValueError, match="not trained"):
            lone_noise_floor(net)


class TestMetrics:
    def test_rmse_zero_for_exact_predictions(self):
        rng = np.random.default_rng(1)
        net = random_net([1, 3, 1], rng)
        stats = identity_stats(1)
        X = rng.normal(size=(7, 1))
        means, _ = predict_alone(net, stats, X)
        model = model_from_net(net)
        assert rmse(model, Dataset(X, means)) == 0.0

    def test_rmse_of_constant_mean_prediction(self):
        # Predicting the target mean gives RMSE equal to the population SD.
        rng = np.random.default_rng(3)
        targets = rng.normal(5.0, 3.0, 400)
        net = random_net([1, 2, 1], rng)
        for layer in net.layers:
            layer.means[...] = 0.0
            layer.variances[...] = 0.0
        stats = identity_stats(1)
        stats.target_mean = float(targets.mean())
        stats.target_std = 1.0
        model = model_from_net(net, stats)
        ds = Dataset(np.zeros((400, 1)), targets)
        assert rmse(model, ds) == pytest.approx(targets.std(), rel=1e-12)

    def test_log_likelihood_peak_value(self):
        # One point at the predictive mean with unit predictive variance.
        net = random_net([1, 2, 1], np.random.default_rng(5))
        for layer in net.layers:
            layer.variances[...] = 0.0
        # noise floor = rate/(shape-1) = 1 in normalized units
        net.gamma = GammaDist(2.0, 1.0)
        stats = identity_stats(1)
        model = model_from_net(net, stats)
        x = np.array([[0.4]])
        mean, var = predict_alone(net, stats, x)
        assert var[0] == pytest.approx(1.0, rel=1e-15)
        ll = avg_log_likelihood(model, Dataset(x, mean))
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_variance_widening_drops_ll_by_log2(self):
        net = random_net([1, 2, 1], np.random.default_rng(5))
        for layer in net.layers:
            layer.variances[...] = 0.0
        net.gamma = GammaDist(2.0, 1.0)
        model = model_from_net(net)
        x = np.array([[0.4]])
        mean, _ = predict_alone(net, model.norm, x)
        ll_narrow = avg_log_likelihood(model, Dataset(x, mean))
        net.gamma = GammaDist(2.0, 4.0)  # predictive variance x4
        ll_wide = avg_log_likelihood(model, Dataset(x, mean))
        assert ll_narrow - ll_wide == pytest.approx(math.log(2.0), abs=1e-12)

    def test_metrics_invariant_to_order(self):
        rng = np.random.default_rng(7)
        net = random_net([2, 3, 1], rng)
        model = model_from_net(net)
        X = rng.normal(size=(9, 2))
        y = rng.normal(size=9)
        ds = Dataset(X, y)
        perm = rng.permutation(9)
        shuffled = Dataset(X[perm], y[perm])
        assert rmse(model, ds) == pytest.approx(rmse(model, shuffled), rel=1e-14)
        assert avg_log_likelihood(model, ds) == pytest.approx(
            avg_log_likelihood(model, shuffled), rel=1e-14
        )

    def test_empty_test_set_rejected(self):
        model = model_from_net(random_net([1, 2, 1], np.random.default_rng(0)))
        with pytest.raises(ValueError):
            rmse(model, Dataset(np.zeros((0, 1)), np.zeros(0)))


class TestStackedEvaluation:
    """One prediction over a stack gives each run the bits of predicting it
    alone, each with its own normalization, noise Gamma and test set."""

    @staticmethod
    def runs(n, rng):
        """Three (net, stats, test set) of a [4, 6, 1] architecture, test
        sets of n rows."""
        runs = []
        for r in range(3):
            net = random_net([4, 6, 1], rng, mean_scale=0.5)
            net.gamma = GammaDist(2.0 + r, 0.5 + r)
            stats = NormStats(
                rng.normal(size=4), rng.uniform(0.5, 2.0, 4), float(rng.normal(3.0)), float(rng.uniform(0.5, 3.0))
            )
            X = rng.normal(size=(n, 4)) * stats.feature_std + stats.feature_mean
            y = rng.normal(stats.target_mean, stats.target_std, n)
            runs.append((net, stats, Dataset(X, y)))
        return runs

    @pytest.mark.parametrize("n", [5, 2 * BLOCK_ROWS // 3 + 1], ids=["serial", "threaded"])
    def test_each_run_matches_its_stack_of_one(self, monkeypatch, n):
        # 3 * n rows: 15 stay on the calling thread; 3 * 683 = 2049 reach
        # 2 * BLOCK_ROWS, and the pass runs on a helper thread too.
        monkeypatch.setattr(forward, "usable_cpus", lambda: 2)
        runs = self.runs(n, np.random.default_rng(n))
        nets, norms, tests = (list(column) for column in zip(*runs))
        stack = PosteriorStack.of(nets)
        means, variances = predict_batch(stack, norms, np.stack([test.features for test in tests]))
        rmses, lls = stacked_metrics(stack, norms, tests)
        assert means.shape == variances.shape == (3, n)
        assert rmses.shape == lls.shape == (3,)
        for r, (net, stats, test) in enumerate(runs):
            alone = PosteriorStack.of([net])
            [m], [v] = predict_batch(alone, [stats], test.features[None])
            [rmse_r], [ll_r] = stacked_metrics(alone, [stats], [test])
            assert means[r].tobytes() == m.tobytes(), r
            assert variances[r].tobytes() == v.tobytes(), r
            assert rmses[r].tobytes() == rmse_r.tobytes(), r
            assert lls[r].tobytes() == ll_r.tobytes(), r
