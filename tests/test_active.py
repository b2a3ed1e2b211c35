import numpy as np
import pytest

from conftest import identity_stats, predict_alone, random_net, toy_cubic_dataset
from pbp.active import ActiveConfig, acquire_next, run_active_experiments
from pbp.data import Dataset, normalize
from pbp.posterior import PbpConfig
from pbp.prediction import TrainedModel
from pbp.prediction import test_metrics as stacked_metrics
from pbp.training import train


def model_from_net(net):
    return TrainedModel(
        stack=net,
        norm=identity_stats(net.layer_sizes[0]),
        config=PbpConfig(hidden_layer_sizes=tuple(net.layer_sizes[1:-1])),
    )


def acquire(model, pool):
    """acquire_next of the model's predictive variances of pool."""
    return acquire_next(predict_alone(model.stack, model.norm, pool)[1])


def run_active_experiment(dataset, policy, config, rng, active_cfg):
    """One repetition of run_active_experiments."""
    [state] = run_active_experiments(dataset, [policy], config, [rng], active_cfg)
    return state


SMALL = PbpConfig(hidden_layer_sizes=(5,), epochs=5, seed=0)
KNOBS = ActiveConfig(initial_train=8, test_size=10, acquisitions=4)


def step_by_step(dataset, policy, config, rng, cfg):
    """One repetition through the one-run API, a step at a time: normalize
    and train its training set, evaluate its test set, acquire from its
    pool, append the point. Its (rmse history, reveal log, final training
    set, remaining pool)."""
    perm = rng.permutation(len(dataset))
    first, pool_start = cfg.initial_train, cfg.initial_train + cfg.test_size
    tr, te, pool = perm[:first], perm[first:pool_start], perm[pool_start:]
    train_set = Dataset(dataset.features[tr], dataset.targets[tr])
    test_set = Dataset(dataset.features[te][None], dataset.targets[te][None])
    remaining, reveals, history = np.arange(pool.size), [], []
    for step in range(cfg.acquisitions + 1):
        train_norm, stats = normalize(train_set)
        net, _, _ = train(train_norm, config, rng)
        [rmse], _ = stacked_metrics(net, stats, test_set)
        history.append(float(rmse))
        if step == cfg.acquisitions:
            break
        if policy == "active":
            pick = acquire_next(predict_alone(net, stats, dataset.features[pool[remaining]])[1])
        else:
            pick = int(rng.integers(remaining.size))
        reveals.append(int(remaining[pick]))
        row = pool[remaining[pick]]
        train_set = Dataset(
            np.vstack([train_set.features, dataset.features[row][None]]),
            np.append(train_set.targets, dataset.targets[row]),
        )
        remaining = np.delete(remaining, pick)
    return history, reveals, train_set, remaining


def assert_same_repetition(state, history, reveals, train_set, remaining):
    assert np.array(state.rmse_history).tobytes() == np.array(history).tobytes()
    assert state.pool_targets.reveal_log == reveals
    assert state.train.features.tobytes() == train_set.features.tobytes()
    assert state.train.targets.tobytes() == train_set.targets.tobytes()
    assert state.pool_remaining.dtype == remaining.dtype
    assert state.pool_remaining.tobytes() == remaining.tobytes()


class TestAcquireNext:
    def test_single_point_pool(self):
        model = model_from_net(random_net([2, 3, 1], np.random.default_rng(0)))
        assert acquire(model, np.array([[0.1, 0.2]])) == 0

    def test_deterministic_model_ties_break_low(self):
        net = random_net([2, 3, 1], np.random.default_rng(1))
        net.variances[...] = 0.0
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
        model = TrainedModel(stack=net, norm=stats, config=cfg)
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

    @pytest.mark.parametrize("policy", ["active", "random"])
    def test_a_repetition_is_the_step_by_step_loop(self, policy):
        ds = self._dataset()
        state = run_active_experiment(ds, policy, SMALL, np.random.default_rng(6), KNOBS)
        want = step_by_step(ds, policy, SMALL, np.random.default_rng(6), KNOBS)
        assert_same_repetition(state, *want)

    def test_each_repetition_of_a_batch_is_the_repetition_alone(self):
        # Two repetitions per policy, the first two sharing a seed and so a
        # split: every one ends as it does run alone, bit for bit.
        ds = self._dataset()
        policies, seeds = ["active", "random", "active", "random"], [3, 3, 4, 5]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        batch = run_active_experiments(ds, policies, SMALL, rngs, KNOBS)
        for state, policy, seed in zip(batch, policies, seeds, strict=True):
            alone = run_active_experiment(ds, policy, SMALL, np.random.default_rng(seed), KNOBS)
            assert state.policy == policy
            assert_same_repetition(
                state, alone.rmse_history, alone.pool_targets.reveal_log, alone.train,
                alone.pool_remaining,
            )

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
