import numpy as np
import pytest

import pbp.training as training
from conftest import toy_cubic_dataset
from pbp.data import normalize
from pbp.posterior import NumericError, PbpConfig, PosteriorStack
from pbp.training import SkipRateError, train, train_runs
from pbp.updates import UpdateOutcome


def normalized_toy(n=20, seed=11):
    ds = toy_cubic_dataset(n, seed)
    norm, stats = normalize(ds)
    return norm, stats


class TestSchedule:
    def test_zero_epochs_gives_prior_only_posterior(self):
        norm, _ = normalized_toy()
        cfg = PbpConfig(hidden_layer_sizes=(7,), epochs=0, seed=3)
        net, sites, report = train(norm, cfg, np.random.default_rng(3))
        assert report.epochs_run == 0
        for layer in net.layers:
            assert np.allclose(layer.variances, 1.2, atol=1e-12)
        assert net.gamma.shape == 6.0 and net.gamma.rate == 6.0
        assert net.lam.shape == 6.0 and net.lam.rate == 6.0

    def test_each_example_incorporated_once_per_epoch(self, monkeypatch):
        norm, _ = normalized_toy(n=13)
        seen, calls = [], []

        def spy(stack, xs, ys):
            # One call per epoch, its examples (n, R, d), one row per run of
            # each; train is the one-run case.
            calls.append(xs.shape)
            seen.extend(xs[:, 0, 0].tolist())
            none = np.zeros(1, dtype=int)
            return UpdateOutcome(skipped=none, undo_count=none, weight_updates=none)

        monkeypatch.setattr(training, "incorporate_likelihood_factors", spy)
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=4, seed=5)
        train(norm, cfg, np.random.default_rng(5))
        assert calls == [(13, 1, 1)] * 4
        assert len(seen) == 13 * 4
        per_epoch = [sorted(seen[i * 13 : (i + 1) * 13]) for i in range(4)]
        expected = sorted(norm.features[:, 0].tolist())
        for epoch_values in per_epoch:
            assert epoch_values == pytest.approx(expected)

    def test_prior_factors_incorporated_once_and_refreshed_per_epoch(self, monkeypatch):
        norm, _ = normalized_toy(n=9)
        counts = {"prior": 0, "refresh": 0}
        real_prior = training.incorporate_all_prior_factors
        real_refresh = training.ep_refresh_prior

        def prior_spy(stack):
            counts["prior"] += 1
            return real_prior(stack)

        def refresh_spy(stack, sites):
            counts["refresh"] += 1
            return real_refresh(stack, sites)

        monkeypatch.setattr(training, "incorporate_all_prior_factors", prior_spy)
        monkeypatch.setattr(training, "ep_refresh_prior", refresh_spy)
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=5, seed=2)
        train(norm, cfg, np.random.default_rng(2))
        assert counts["prior"] == 1
        assert counts["refresh"] == 5

    def test_refresh_follows_the_last_example_of_each_epoch(self, monkeypatch):
        # Per epoch: every example once, in one call, then one EP refresh,
        # then the epoch-RMSE pass on the refreshed posterior.
        datasets = [normalized_toy(n=4, seed=s)[0] for s in (1, 2, 3)]
        events = []

        def spy(name, real):
            def record(*args):
                events.append(name)
                return real(*args)

            monkeypatch.setattr(training, real.__name__, record)

        spy("example", training.incorporate_likelihood_factors)
        spy("refresh", training.ep_refresh_prior)
        spy("rmse", training.forward_output_moments)
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=3, seed=4)
        results = train_runs(datasets, cfg, [np.random.default_rng(s) for s in (4, 5, 6)])
        assert events == ["example", "refresh", "rmse"] * 3
        assert all(len(report.refreshes) == 3 for _, _, report in results)

    def test_each_run_keeps_its_own_refresh_outcomes(self, monkeypatch):
        norm, _ = normalized_toy(n=10)
        real_refresh = training.ep_refresh_prior
        seen = []

        def inflating_spy(stack, sites):
            # Inflate the precision of run 0's first site beyond its
            # marginal's: a negative cavity, which that run alone skips.
            sites[0, 0, 0] = 1.0 / stack.variances[0, 0] + 5.0
            report = real_refresh(stack, sites)
            seen.append(report.runs)
            return report

        monkeypatch.setattr(training, "ep_refresh_prior", inflating_spy)
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=3, seed=2)
        rngs = [np.random.default_rng(2), np.random.default_rng(3)]
        results = training.train_runs([norm, norm], cfg, rngs)
        skipping, clean = (report.refreshes for _, _, report in results)
        assert [n for n, _ in skipping] == [1, 1, 1]
        assert [n for n, _ in clean] == [0, 0, 0]
        assert [list(pair) for pair in zip(skipping, clean)] == seen
        assert all(0.0 < change < np.inf for _, change in skipping + clean)

    def test_a_lone_run_reports_every_refresh(self):
        norm, _ = normalized_toy(n=10)
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=2, seed=2)
        _, _, report = train(norm, cfg, np.random.default_rng(2))
        assert len(report.refreshes) == 2
        assert all(n == 0 and 0.0 < change < np.inf for n, change in report.refreshes)


class TestDeterminism:
    def test_fixed_seed_reproduces_everything(self):
        norm, _ = normalized_toy()
        cfg = PbpConfig(hidden_layer_sizes=(10,), epochs=3, seed=7)
        net_a, _, rep_a = train(norm, cfg, np.random.default_rng(7))
        net_b, _, rep_b = train(norm, cfg, np.random.default_rng(7))
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.means, lb.means)
            assert np.array_equal(la.variances, lb.variances)
        assert net_a.gamma == net_b.gamma
        assert rep_a.epoch_rmse == rep_b.epoch_rmse
        assert rep_a.undo_events == rep_b.undo_events


class TestProgress:
    def test_toy_cubic_rmse_trend(self):
        norm, _ = normalized_toy()
        cfg = PbpConfig(hidden_layer_sizes=(100,), epochs=40, seed=11)
        _, _, report = train(norm, cfg, np.random.default_rng(11))
        assert report.epochs_run == 40
        # Early-window average must comfortably exceed the late-window one.
        early = np.mean(report.epoch_rmse[:5])
        late = np.mean(report.epoch_rmse[-5:])
        assert late < early
        assert report.epoch_rmse[-1] < report.epoch_rmse[0]

    def test_posterior_is_finite_and_positive_after_training(self):
        norm, _ = normalized_toy()
        cfg = PbpConfig(hidden_layer_sizes=(12,), epochs=8, seed=4)
        net, _, _ = train(norm, cfg, np.random.default_rng(4))
        for layer in net.layers:
            assert np.all(np.isfinite(layer.means))
            assert np.all(layer.variances > 0.0)
            assert np.all(np.isfinite(layer.variances))
        assert net.gamma.shape > 1.0
        assert net.lam.shape > 1.0

    def test_two_hidden_layer_training(self):
        norm, _ = normalized_toy(n=30)
        cfg = PbpConfig(hidden_layer_sizes=(8, 6), epochs=15, seed=6)
        net, _, report = train(norm, cfg, np.random.default_rng(6))
        assert [l.means.shape for l in net.layers] == [(8, 2), (6, 9), (1, 7)]
        assert report.epoch_rmse[-1] < report.epoch_rmse[0]
        for layer in net.layers:
            assert np.all(layer.variances > 0.0)

    def test_learned_noise_floor_tracks_true_noise(self):
        # On a noise-dominated task (easy mean function, sd-1 noise) the
        # Gamma posterior's implied noise variance must recover the truth.
        from pbp.data import Dataset
        from pbp.prediction import noise_floor

        rng = np.random.default_rng(42)
        x = rng.uniform(-3, 3, 300)
        y = 2.0 * x + rng.normal(0.0, 1.0, 300)
        norm, stats = normalize(Dataset(x[:, None], y))
        cfg = PbpConfig(hidden_layer_sizes=(20,), epochs=20, seed=42)
        net, _, _ = train(norm, cfg, np.random.default_rng(42))
        learned = noise_floor(PosteriorStack.of([net]))[0] * stats.target_std**2
        assert learned == pytest.approx(1.0, rel=0.15)


class TestSkipRateAbort:
    def test_abort_when_skip_rate_exceeds_threshold(self, monkeypatch):
        norm, _ = normalized_toy(n=10)

        def always_skip(stack, xs, ys):
            # Every run skips every example of the epoch.
            none = np.zeros(ys.shape[1], dtype=int)
            return UpdateOutcome(skipped=none + len(ys), undo_count=none, weight_updates=none)

        monkeypatch.setattr(training, "incorporate_likelihood_factors", always_skip)
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=1, seed=0)
        with pytest.raises(SkipRateError):
            train(norm, cfg, np.random.default_rng(0))


class TestEpochEndCheck:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_a_variance_not_finite_and_positive_names_the_run_and_epoch(self, monkeypatch, bad):
        # A refresh that leaves one weight variance of run 1 unusable at the
        # end of epoch 2: the check after it names the run by its label.
        real, refreshes = training.ep_refresh_prior, []

        def spoiling(stack, sites):
            report = real(stack, sites)
            refreshes.append(report)
            if len(refreshes) == 2:
                stack.variances[1, 4] = bad
            return report

        monkeypatch.setattr(training, "ep_refresh_prior", spoiling)
        datasets = [normalized_toy(n=10, seed=s)[0] for s in (1, 2, 3)]
        cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=3, seed=0)
        rngs = [np.random.default_rng(r) for r in range(3)]
        message = r"^split 1: 1 weight variances not finite and positive after epoch 2$"
        with pytest.raises(NumericError, match=message):
            train_runs(datasets, cfg, rngs, ["split 0", "split 1", "split 2"])
        assert len(refreshes) == 2


def test_empty_training_set_rejected():
    from pbp.data import Dataset

    cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=1, seed=0)
    with pytest.raises(ValueError):
        train(Dataset(np.zeros((0, 2)), np.zeros(0)), cfg, np.random.default_rng(0))
