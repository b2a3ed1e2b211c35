import numpy as np
import pytest

from conftest import identity_stats, predict_alone, random_net, toy_cubic_dataset
from pbp.active import ActiveConfig, acquire_next, run_active_experiments
from pbp.data import Dataset, normalize
from pbp.posterior import PbpConfig
from pbp.prediction import TrainedModel
from pbp.training import train


def model_from_net(net):
    return TrainedModel(
        net=net,
        norm=identity_stats(net.layer_sizes[0]),
        config=PbpConfig(hidden_layer_sizes=tuple(net.layer_sizes[1:-1])),
    )


def acquire(model, pool):
    """acquire_next of the model's predictive variances of pool."""
    return acquire_next(predict_alone(model.net, model.norm, pool)[1])


def run_active_experiment(dataset, policy, config, rng, active_cfg):
    """One repetition of run_active_experiments."""
    [state] = run_active_experiments(dataset, [policy], config, [rng], active_cfg)
    return state


SMALL = PbpConfig(hidden_layer_sizes=(5,), epochs=5, seed=0)
KNOBS = ActiveConfig(initial_train=8, test_size=10, acquisitions=4)


class TestAcquireNext:
    def test_single_point_pool(self):
        model = model_from_net(random_net([2, 3, 1], np.random.default_rng(0)))
        assert acquire(model, np.array([[0.1, 0.2]])) == 0

    def test_deterministic_model_ties_break_low(self):
        net = random_net([2, 3, 1], np.random.default_rng(1))
        for layer in net.layers:
            layer.variances[...] = 0.0
        model = model_from_net(net)
        pool = np.random.default_rng(2).normal(size=(6, 2))
        # All predictive variances equal the noise floor; first index wins.
        assert acquire(model, pool) == 0

    def test_empty_pool_rejected(self):
        model = model_from_net(random_net([2, 3, 1], np.random.default_rng(0)))
        with pytest.raises(ValueError):
            acquire(model, np.zeros((0, 2)))

    def test_far_point_has_higher_variance_on_toy_model(self):
        ds = toy_cubic_dataset(20, seed=3)
        norm, stats = normalize(ds)
        cfg = PbpConfig(hidden_layer_sizes=(50,), epochs=20, seed=3)
        net, _, _ = train(norm, cfg, np.random.default_rng(3))
        model = TrainedModel(net=net, norm=stats, config=cfg)
        # One interpolation point, one extrapolation point far outside [-4, 4].
        pool = np.array([[0.1], [9.0]])
        assert acquire(model, pool) == 1


class TestRunActiveExperiment:
    def _dataset(self, n=40, seed=1):
        return toy_cubic_dataset(n, seed=seed)

    def test_history_length(self):
        state = run_active_experiment(
            self._dataset(), "random", SMALL, np.random.default_rng(0), KNOBS
        )
        assert len(state.rmse_history) == KNOBS.acquisitions + 1

    def test_random_policy_deterministic_under_seed(self):
        a = run_active_experiment(
            self._dataset(), "random", SMALL, np.random.default_rng(5), KNOBS
        )
        b = run_active_experiment(
            self._dataset(), "random", SMALL, np.random.default_rng(5), KNOBS
        )
        assert a.rmse_history == b.rmse_history

    def test_policies_share_initial_split(self):
        ds = self._dataset()
        a = run_active_experiment(ds, "active", SMALL, np.random.default_rng(9), KNOBS)
        b = run_active_experiment(ds, "random", SMALL, np.random.default_rng(9), KNOBS)
        # The initial 8 training rows (before acquisitions) must coincide.
        assert np.array_equal(
            a.train.features[: KNOBS.initial_train],
            b.train.features[: KNOBS.initial_train],
        )
        assert np.array_equal(a.test.features, b.test.features)
        assert np.array_equal(a.pool_features, b.pool_features)

    def test_pool_target_hygiene(self):
        state = run_active_experiment(
            self._dataset(), "active", SMALL, np.random.default_rng(2), KNOBS
        )
        # Exactly one reveal per acquisition, each a distinct pool row.
        assert len(state.pool_targets.reveal_log) == KNOBS.acquisitions
        assert len(set(state.pool_targets.reveal_log)) == KNOBS.acquisitions

    def test_train_set_grows_by_one_per_acquisition(self):
        state = run_active_experiment(
            self._dataset(), "active", SMALL, np.random.default_rng(4), KNOBS
        )
        assert len(state.train) == KNOBS.initial_train + KNOBS.acquisitions
        assert state.pool_remaining.shape[0] == (
            40 - KNOBS.initial_train - KNOBS.test_size - KNOBS.acquisitions
        )

    def test_acquired_targets_match_source_rows(self):
        ds = self._dataset()
        state = run_active_experiment(
            ds, "active", SMALL, np.random.default_rng(7), KNOBS
        )
        # Each appended training row's target equals the dataset row's target.
        for k in range(KNOBS.acquisitions):
            row = state.train.features[KNOBS.initial_train + k]
            target = state.train.targets[KNOBS.initial_train + k]
            match = np.where((ds.features == row).all(axis=1))[0]
            assert match.size == 1
            assert ds.targets[match[0]] == target

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            run_active_experiment(
                self._dataset(n=15), "active", SMALL, np.random.default_rng(0), KNOBS
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_active_experiment(
                self._dataset(), "greedy", SMALL, np.random.default_rng(0), KNOBS
            )
