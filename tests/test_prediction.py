import math

import numpy as np
import pytest

from conftest import random_net
from pbp.data import Dataset, identity_stats, normalize
from pbp.forward import forward_output_moments
from pbp.posterior import GammaDist, PbpConfig
from pbp.prediction import (
    TrainedModel,
    noise_floor,
    predict_batch,
    rmse,
)
from pbp.prediction import test_log_likelihood as avg_log_likelihood
from pbp.updates import PriorSiteStore


def model_from_net(net, norm=None):
    return TrainedModel(
        net=net,
        sites=PriorSiteStore.zeros(net),
        norm=norm or identity_stats(net.layer_sizes[0]),
        config=PbpConfig(hidden_layer_sizes=tuple(net.layer_sizes[1:-1])),
    )


class TestPredict:
    def test_identity_normalization_exact(self):
        rng = np.random.default_rng(2)
        net = random_net([2, 4, 1], rng)
        x = np.array([0.3, -0.8])
        mz, vz, _ = forward_output_moments(net, x)
        mean, variance = predict_batch(net, identity_stats(2), x)
        assert mean == mz
        assert variance == noise_floor(net) + vz

    def test_deterministic_net_gives_noise_floor_only(self):
        rng = np.random.default_rng(4)
        net = random_net([2, 3, 1], rng)
        for layer in net.layers:
            layer.variances[...] = 0.0
        _, variance = predict_batch(net, identity_stats(2), np.array([0.5, 0.5]))
        assert variance == pytest.approx(noise_floor(net), rel=1e-15)

    def test_denormalization_identity(self):
        # Scaling stats must map the normalized-space computation through
        # mean*sd + mu and variance*sd^2 exactly.
        rng = np.random.default_rng(6)
        net = random_net([3, 4, 1], rng)
        stats = identity_stats(3)
        stats.target_mean = 11.0
        stats.target_std = 2.5
        x = rng.normal(size=3)
        mz, vz, _ = forward_output_moments(net, x)
        mean, variance = predict_batch(net, stats, x)
        assert mean == pytest.approx(mz * 2.5 + 11.0, rel=1e-15)
        assert variance == pytest.approx((noise_floor(net) + vz) * 6.25, rel=1e-15)

    def test_feature_normalization_applied(self):
        rng = np.random.default_rng(8)
        net = random_net([1, 3, 1], rng)
        stats = identity_stats(1)
        stats.feature_mean = np.array([2.0])
        stats.feature_std = np.array([4.0])
        raw = np.array([6.0])  # normalizes to 1.0
        direct_mean, _ = predict_batch(net, identity_stats(1), np.array([1.0]))
        via_stats_mean, _ = predict_batch(net, stats, raw)
        assert via_stats_mean == direct_mean

    def test_dimension_mismatch(self):
        net = random_net([2, 3, 1], np.random.default_rng(0))
        with pytest.raises(ValueError):
            predict_batch(net, identity_stats(2), np.zeros(3))


class TestMetrics:
    def test_rmse_zero_for_exact_predictions(self):
        rng = np.random.default_rng(1)
        net = random_net([1, 3, 1], rng)
        stats = identity_stats(1)
        X = rng.normal(size=(7, 1))
        means, _ = predict_batch(net, stats, X)
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
        mean, var = predict_batch(net, stats, x)
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
        mean, _ = predict_batch(net, model.norm, x)
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
