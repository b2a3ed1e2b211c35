import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    forward_trace,
    lone_output_moments,
    output_moments,
    random_net,
    relu_moments,
    stack_of,
    weights,
)
from pbp import forward, kernel, training
from pbp.data import Dataset
from pbp.forward import BLOCK_ROWS, forward_output_moments
from oracles import mc_forward_moments
from pbp.posterior import NumericError, PbpConfig, new_uniform
from pbp.training import train_runs
from reference_forward import forward_output_moments_batch
from reference_update import MomentVector, append_bias, forward_linear


def mv(mean, var):
    return MomentVector(np.asarray(mean, dtype=float), np.asarray(var, dtype=float))


def linear(means, variances, x):
    """The moments of the units of a layer of weight means and variances,
    (rows, cols), at the input row x, the bias unit (mean 1, variance 0)
    after it: each unit through forward_output_moments of a one-layer net of
    that unit alone."""
    moments = []
    for unit_means, unit_variances in zip(means, variances):
        net = new_uniform([unit_means.size - 1, 1])
        net.means[0] = unit_means
        net.variances[0] = unit_variances
        moments.append(output_moments(net, x))
    return mv(*zip(*moments))


class TestForwardLinear:
    def test_deterministic_weights_and_inputs(self):
        out = linear(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]), [3.0])
        assert out.mean[0] == pytest.approx(4.0 / math.sqrt(2.0), abs=1e-15)
        assert out.variance[0] == 0.0

    def test_pure_weight_variance(self):
        out = linear(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), [1.0])
        assert out.mean[0] == 0.0
        assert out.variance[0] == pytest.approx(1.0, abs=1e-15)

    def test_all_deterministic_gives_zero_variance(self):
        out = linear(np.array([[2.0, -1.0, 0.5]]), np.zeros((1, 3)), [0.3, 0.7])
        assert out.variance[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            linear(np.zeros((2, 3)), np.ones((2, 3)), [1.0])

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        means, variances = rng.normal(size=(2, 3)), rng.uniform(0.1, 1.0, (2, 3))
        z_mean = rng.normal(size=3)
        z_mean[-1] = 1.0  # the bias unit
        out = linear(means, variances, z_mean[:-1])
        n = 400_000
        w = means + np.sqrt(variances) * rng.standard_normal((n, 2, 3))
        samples = np.einsum("nrc,c->nr", w, z_mean) / math.sqrt(3)
        assert np.allclose(out.mean, samples.mean(axis=0), atol=4e-3)
        assert np.allclose(out.variance, samples.var(axis=0), rtol=2e-2)


def exact_relu_moments(m, v):
    """High-precision rectified-Gaussian moments, independent of the package."""
    m, v = mp.mpf(m), mp.mpf(v)
    s = mp.sqrt(v)
    alpha = m / s
    big_phi = mp.ncdf(alpha)
    ratio = mp.npdf(alpha) / big_phi
    vp = m + s * ratio
    mean = big_phi * vp
    var = mean * vp * mp.ncdf(-alpha) + big_phi * v * (1 - ratio * (ratio + alpha))
    return float(mean), float(var)


class TestReluMoments:
    def test_standard_normal_closed_form(self):
        out, _ = relu_moments(mv([0.0], [1.0]))
        assert out.mean[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
        assert out.variance[0] == pytest.approx(0.5 - 1.0 / (2 * math.pi), abs=1e-15)

    def test_standard_normal_monte_carlo(self):
        rng = np.random.default_rng(0)
        n = 10**7
        samples = np.maximum(rng.standard_normal(n), 0.0)
        out, _ = relu_moments(mv([0.0], [1.0]))
        mean_se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(out.mean[0] - samples.mean()) < 3 * mean_se
        m4 = np.mean((samples - samples.mean()) ** 4)
        var_se = math.sqrt((m4 - samples.var() ** 2) / n)
        assert abs(out.variance[0] - samples.var(ddof=1)) < 3 * var_se

    def test_deterministic_positive(self):
        out, _ = relu_moments(mv([5.0], [0.0]))
        assert out.mean[0] == 5.0 and out.variance[0] == 0.0

    def test_deterministic_negative(self):
        out, _ = relu_moments(mv([-2.0], [0.0]))
        assert out.mean[0] == 0.0 and out.variance[0] == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            relu_moments(mv([0.0], [-1.0]))

    def test_series_branch_positive_and_finite(self):
        # alpha = -35 is representable; alpha = -40 underflows to exactly 0
        # (true value ~1e-351 is below the smallest subnormal).
        out, aux = relu_moments(mv([-35.0], [1.0]))
        assert aux.series[0]
        assert 0.0 < out.mean[0] < 1e-250
        assert 0.0 < out.variance[0] < 1e-250
        out40, _ = relu_moments(mv([-40.0], [1.0]))
        assert out40.mean[0] >= 0.0 and out40.variance[0] >= 0.0
        assert np.isfinite(out40.mean[0]) and np.isfinite(out40.variance[0])

    @pytest.mark.parametrize("alpha", [-30.001, -29.999])
    def test_branch_agreement_at_threshold(self, alpha):
        # Both branches must agree with the exact moments at the switch point
        # to within the 3-term series' truncation error (measured: 1.3e-5 for
        # the mean, 5.6e-3 for the variance).
        out, _ = relu_moments(mv([alpha], [1.0]))
        exact_m, exact_v = exact_relu_moments(alpha, 1.0)
        assert out.mean[0] == pytest.approx(exact_m, rel=2e-5)
        assert out.variance[0] == pytest.approx(exact_v, rel=1e-2)

    def test_matches_exact_moments_on_grid(self):
        # Variance tolerance allows the unavoidable cancellation in
        # 1 - ratio*(ratio+alpha) for strongly negative alpha.
        for m in (-8.0, -2.0, -0.5, 0.0, 0.7, 3.0, 12.0):
            for v in (0.01, 0.5, 1.0, 9.0, 100.0):
                out, _ = relu_moments(mv([m], [v]))
                exact_m, exact_v = exact_relu_moments(m, v)
                assert out.mean[0] == pytest.approx(exact_m, rel=1e-10, abs=1e-300)
                assert out.variance[0] == pytest.approx(exact_v, rel=1e-8, abs=1e-300)

    def test_outputs_nonnegative_over_wide_range(self):
        rng = np.random.default_rng(4)
        alphas = np.concatenate(
            [
                rng.uniform(-1e6, 1e6, 200),
                rng.uniform(-50, 50, 200),
                [-1e6, 1e6, 0.0],
            ]
        )
        variances = 10.0 ** rng.uniform(-6, 6, alphas.size)
        means = alphas * np.sqrt(variances)
        out, _ = relu_moments(mv(means, variances))
        assert np.all(out.mean >= 0.0)
        assert np.all(out.variance >= 0.0)
        assert np.all(np.isfinite(out.mean)) and np.all(np.isfinite(out.variance))

    def test_mean_nondecreasing_in_input_mean(self):
        grid = np.linspace(-20, 20, 401)
        out, _ = relu_moments(mv(grid, np.full(grid.size, 2.3)))
        assert np.all(np.diff(out.mean) >= 0.0)


class TestAppendBias:
    """The reference update's bias step, which the forward and gradient
    oracles build every layer input with."""

    def test_empty(self):
        out = append_bias(mv([], []))
        assert out.mean.tolist() == [1.0] and out.variance.tolist() == [0.0]

    def test_single(self):
        out = append_bias(mv([2.0], [3.0]))
        assert out.mean.tolist() == [2.0, 1.0]
        assert out.variance.tolist() == [3.0, 0.0]

    def test_length_and_last_entry(self):
        out = append_bias(mv(np.arange(5.0), np.arange(5.0)))
        assert len(out) == 6
        assert out.variance[-1] == 0.0


class TestForwardOutputMoments:
    def test_deterministic_collapse(self):
        # Zero-variance posterior: the output equals the plain scaled ReLU
        # network evaluated at the means, with zero variance.
        rng = np.random.default_rng(5)
        net = random_net([3, 4, 1], rng)
        net.variances[...] = 0.0
        x = rng.normal(size=3)
        m, v = output_moments(net, x)

        means, _ = weights(net)
        z = np.append(x, 1.0)
        a = means[0] @ z / math.sqrt(4)
        z2 = np.append(np.maximum(a, 0.0), 1.0)
        expected = (means[1] @ z2 / math.sqrt(5))[0]
        assert m == pytest.approx(expected, rel=1e-12)
        assert v == 0.0

    def test_monte_carlo_one_hidden_layer(self):
        rng = np.random.default_rng(42)
        net = random_net([2, 8, 1], rng, mean_scale=0.8, var_low=0.05, var_high=0.6)
        x = np.array([0.3, -1.2])
        m, v = output_moments(net, x)
        est = mc_forward_moments(net, x, 10**6, np.random.default_rng(7))
        assert abs(m - est.mean) < 3 * est.mean_se
        assert abs(v - est.variance) < 3 * est.variance_se

    def test_monte_carlo_two_hidden_layers_approximation(self):
        # Depth 2 invokes the Gaussian collapse of a sum of rectified units,
        # so agreement is approximate: bound the deviation by a few percent of
        # the output scale rather than by MC noise.
        rng = np.random.default_rng(21)
        net = random_net([3, 6, 5, 1], rng, mean_scale=0.7, var_low=0.02, var_high=0.4)
        x = rng.normal(size=3)
        m, v = output_moments(net, x)
        est = mc_forward_moments(net, x, 10**6, np.random.default_rng(3))
        scale = math.sqrt(est.variance)
        assert abs(m - est.mean) < max(3 * est.mean_se, 0.08 * scale)
        assert abs(v - est.variance) < max(3 * est.variance_se, 0.08 * est.variance)

    def test_hidden_unit_permutation_invariance(self):
        rng = np.random.default_rng(17)
        net = random_net([3, 6, 1], rng)
        x = rng.normal(size=3)
        m0, v0 = output_moments(net, x)

        perm = rng.permutation(6)
        permuted = net.take([0])
        for into, (first, second) in zip(weights(permuted), weights(net)):
            into[0][...] = first[perm]
            into[1][...] = np.hstack([second[:, :6][:, perm], second[:, 6:]])
        m1, v1 = output_moments(permuted, x)
        assert m1 == pytest.approx(m0, rel=1e-12)
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_output_variance_nonnegative(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            net = random_net([4, 5, 1], rng, mean_scale=2.0, var_high=3.0)
            x = rng.normal(scale=2.0, size=4)
            _, v = output_moments(net, x)
            assert v >= 0.0

    def test_dimension_mismatch(self):
        net = new_uniform([3, 2, 1])
        with pytest.raises(ValueError):
            lone_output_moments(net, np.zeros((1, 4)))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(2)
        net = random_net([3, 5, 1], rng)
        X = rng.normal(size=(11, 3))
        bm, bv = lone_output_moments(net, X)
        for i in range(11):
            m, v = output_moments(net, X[i])
            assert bm[i] == pytest.approx(m, rel=1e-12)
            assert bv[i] == pytest.approx(v, rel=1e-12)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestShapeContract:
    """Moments have shape (*runs, rows, units); one function serves updates,
    prediction and stacked runs, with the arithmetic of the paths it replaced."""

    @pytest.mark.parametrize("sizes", [[3, 5, 1], [4, 6, 5, 1]])
    @pytest.mark.parametrize("n", [1, 11, 500])
    def test_rows_match_the_batch_reference(self, sizes, n):
        rng = np.random.default_rng(n)
        net = random_net(sizes, rng)
        X = rng.normal(size=(n, sizes[0]))
        m, v = lone_output_moments(net, X)
        ref_m, ref_v = forward_output_moments_batch(net, X)
        assert m.shape == v.shape == (n,)
        assert _bits(m) == _bits(ref_m)
        assert _bits(v) == _bits(ref_v)

    @pytest.mark.parametrize("n", [1, 11])
    def test_stack_matches_each_run_alone(self, n):
        rng = np.random.default_rng(9)
        nets = [random_net([3, 4, 4, 1], rng) for _ in range(3)]
        X = rng.normal(size=(3, n, 3))
        m, v = forward_output_moments(stack_of(nets), X)
        assert m.shape == v.shape == (3, n)
        for r, net in enumerate(nets):
            alone_m, alone_v = lone_output_moments(net, X[r])
            assert _bits(m[r]) == _bits(alone_m)
            assert _bits(v[r]) == _bits(alone_v)

    def test_stack_without_a_rows_axis_rejected(self):
        rng = np.random.default_rng(5)
        stack = stack_of([random_net([3, 4, 1], rng) for _ in range(3)])
        with pytest.raises(ValueError, match="expected"):
            forward_output_moments(stack, rng.normal(size=(3, 3)))

    def test_single_input_rejected(self):
        rng = np.random.default_rng(4)
        net = random_net([3, 5, 1], rng)
        with pytest.raises(ValueError, match="expected"):
            lone_output_moments(net, rng.normal(size=3))

    def test_trace_gives_the_bits_of_the_rows_pass(self):
        # The update's one-row trace and the rows pass are separate entry
        # points over the same layer arithmetic.
        rng = np.random.default_rng(6)
        nets = [random_net([3, 4, 4, 1], rng) for _ in range(2)]
        stack = stack_of(nets)
        x = rng.normal(size=(2, 3))
        trace_m, trace_v = forward_trace(stack, x)
        m, v = forward_output_moments(stack, x[:, None, :])
        assert trace_m.shape == trace_v.shape == (2,)
        assert len(stack.workspace.rectifiers) == 2
        assert _bits(trace_m) == _bits(m[:, 0])
        assert _bits(trace_v) == _bits(v[:, 0])
        for r, net in enumerate(nets):
            alone_m, alone_v = lone_output_moments(net, x[r][None, :])
            assert _bits(alone_m) == _bits(m[r]) and _bits(alone_v) == _bits(v[r])

    def test_trace_shape_checked(self):
        rng = np.random.default_rng(7)
        stack = stack_of([random_net([3, 4, 1], rng) for _ in range(2)])
        for shape in [(2, 1, 3), (3,), (1, 3), (2, 4)]:
            with pytest.raises(ValueError, match="expected"):
                forward_trace(stack, rng.normal(size=shape))


def _row_counts(b):
    return [b - 1, b, 2 * b - 1, 2 * b, 2 * b + 1, 3 * b + 5]


def _branch_net_and_rows(n, block, rng):
    """A [6, 10, 1] net and n rows where only the rows of block 1 (rows
    block..2*block-1) drive hidden unit 0 into the deterministic and far-tail
    rectifier branches.

    Unit 0 reads its mean from feature 0 and its variance from feature 1 alone,
    so alpha = -x0 / |x1|: x1 = 0 makes it deterministic, x1 = 1e-3 puts alpha
    at -700 or below, and x1 in [1, 2] keeps every other row in the direct
    branch.
    """
    net = random_net([6, 10, 1], rng)
    (means, _), (variances, _) = weights(net)
    means[0] = 0.0
    means[0, 0] = -1.0
    variances[0] = 0.0
    variances[0, 1] = 1.0
    X = rng.normal(size=(n, 6))
    X[:, 0] = rng.uniform(-1.0, 1.0, n)
    X[:, 1] = rng.uniform(1.0, 2.0, n)
    special = np.arange(block, block + 6)
    X[special, 0] = [1.0, -1.0, 0.5, 1.0, 2.0, 0.7]
    X[special, 1] = [0.0, 0.0, 0.0, 1e-3, 1e-3, 1e-3]
    return net, X


class TestBlockedRows:
    """From 2 * BLOCK_ROWS rows on, the forward pass runs in row blocks; it
    must stay bit-identical to the unblocked reference."""

    @pytest.mark.parametrize("sizes", [[11, 50, 50, 1], [6, 10, 1]])
    def test_rows_match_the_unblocked_reference(self, block, sizes):
        rng = np.random.default_rng(sizes[0])
        net = random_net(sizes, rng, mean_scale=0.5)
        for n in _row_counts(block):
            X = rng.normal(size=(n, sizes[0]))
            m, v = lone_output_moments(net, X)
            ref_m, ref_v = forward_output_moments_batch(net, X)
            assert m.shape == v.shape == (n,)
            assert np.array_equal(m, ref_m), n
            assert np.array_equal(v, ref_v), n

    def test_stack_matches_the_unblocked_reference_per_run(self, block):
        rng = np.random.default_rng(12)
        nets = [random_net([11, 50, 50, 1], rng, mean_scale=0.5) for _ in range(3)]
        stack = stack_of(nets)
        for n in _row_counts(block):
            X = rng.normal(size=(3, n, 11))
            m, v = forward_output_moments(stack, X)
            assert m.shape == v.shape == (3, n)
            for r, net in enumerate(nets):
                ref_m, ref_v = forward_output_moments_batch(net, X[r])
                assert np.array_equal(m[r], ref_m), (n, r)
                assert np.array_equal(v[r], ref_v), (n, r)

    def test_branches_taken_in_one_block_only(self, block):
        rng = np.random.default_rng(13)
        n = 3 * block + 5
        net, X = _branch_net_and_rows(n, block, rng)
        (means, _), (variances, _) = weights(net)
        z = append_bias(mv(X, np.zeros_like(X)))
        _, aux = relu_moments(forward_linear(means, variances, z))
        for flags in (aux.deterministic[:, 0], aux.series[:, 0]):
            assert flags[block : 2 * block].any()
            assert not flags[:block].any() and not flags[2 * block :].any()
        m, v = lone_output_moments(net, X)
        ref_m, ref_v = forward_output_moments_batch(net, X)
        assert np.array_equal(m, ref_m)
        assert np.array_equal(v, ref_v)


@pytest.fixture(params=[BLOCK_ROWS, 64], ids=["block-default", "block-64"])
def block(request, monkeypatch):
    monkeypatch.setattr(forward, "BLOCK_ROWS", request.param)
    return request.param


def _force_cpus(monkeypatch, count):
    monkeypatch.setattr(forward, "usable_cpus", lambda: count)


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty helper pool in place of the process's for one test; its
    helpers end after the test."""
    pool = forward._new_pool()
    monkeypatch.setattr(forward, "_pool", pool)
    yield pool
    helpers = _helpers(pool)
    pool.shutdown(wait=False)
    for helper in helpers:
        helper.join(timeout=10)
        assert not helper.is_alive()


def _helpers(pool) -> set:
    """The helper threads a pool has started."""
    return set(pool._threads)


def _spy_items(monkeypatch, before=lambda: None):
    """Route every work item of a rows pass (kernel.RowsPass.__call__)
    through a wrapper that calls before() first. Returns, for every item
    done, (thread, (runs, rows) of the item, (shape, deterministic and
    series counts) of each hidden layer's rectifier)."""
    real, calls = kernel.RowsPass.__call__, []

    def call(self, runs, rows):
        before()
        real(self, runs, rows)
        item = len(range(self.shape[0])[runs]), len(range(self.shape[1])[rows])
        relus = [(r.shape, r.n_deterministic, r.n_series) for r in self.rectifiers]
        calls.append((threading.current_thread(), item, relus))

    monkeypatch.setattr(kernel.RowsPass, "__call__", call)
    return calls


def _on_helpers(monkeypatch, on_helper=lambda: None):
    """Route every work item through a wrapper that runs on_helper on helper
    threads, and holds the calling thread's first item until a helper has
    started one, so some helper surely takes an item. Returns the items
    done, as _spy_items does."""
    entered, main = threading.Event(), threading.current_thread()

    def before():
        if threading.current_thread() is main:
            entered.wait(timeout=10)
        else:
            entered.set()
            on_helper()

    return _spy_items(monkeypatch, before)


class TestParallelPass:
    """A rows pass over enough rows runs its items on every usable CPU; its
    outputs must be those of the serial reference, bit for bit."""

    @pytest.fixture(params=[1, 2, 3], ids=["cpus-1", "cpus-2", "cpus-3"])
    def cpus(self, request, monkeypatch):
        _force_cpus(monkeypatch, request.param)
        return request.param

    def test_network_matches_the_reference(self, cpus, block):
        rng = np.random.default_rng(15)
        net = random_net([11, 50, 50, 1], rng, mean_scale=0.5)
        for n in _row_counts(block):
            X = rng.normal(size=(n, 11))
            m, v = lone_output_moments(net, X)
            ref_m, ref_v = forward_output_moments_batch(net, X)
            assert np.array_equal(m, ref_m), n
            assert np.array_equal(v, ref_v), n

    def test_stack_matches_the_reference_per_run(self, cpus, block):
        # Three runs: 2 * block // 3 rows per run are below the serial
        # threshold, one more is above it, and the rest straddle the blocks.
        rng = np.random.default_rng(16)
        nets = [random_net([13, 50, 1], rng, mean_scale=0.5) for _ in range(3)]
        stack = stack_of(nets)
        for n in [2 * block // 3, 2 * block // 3 + 1, *_row_counts(block)]:
            X = rng.normal(size=(3, n, 13))
            m, v = forward_output_moments(stack, X)
            for r, net in enumerate(nets):
                ref_m, ref_v = forward_output_moments_batch(net, X[r])
                assert np.array_equal(m[r], ref_m), (n, r)
                assert np.array_equal(v[r], ref_v), (n, r)

    def test_branches_taken_in_a_helpers_item_only(self, monkeypatch):
        # One block alone has deterministic and far-tail units. Which thread
        # takes it is up to the scheduler, so the pass repeats, with those
        # rows in block 1 and then in block 0, until a helper has taken it;
        # it must match the reference every time.
        _force_cpus(monkeypatch, 2)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)
        calls = _spy_items(monkeypatch)
        net, X = _branch_net_and_rows(3 * 64 + 5, 64, np.random.default_rng(17))
        for attempt in range(50):
            rows = np.roll(X, -64 * (attempt % 2), axis=0)
            calls.clear()
            m, v = lone_output_moments(net, rows)
            ref_m, ref_v = forward_output_moments_batch(net, rows)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)
            branched = [t for t, _, [(_, deterministic, _)] in calls if deterministic]
            assert branched == [t for t, _, [(_, _, series)] in calls if series]
            assert len(branched) == 1
            if branched[0] is not threading.current_thread():
                break
        else:
            pytest.fail("no helper took the item with the branches in 50 passes")

    def test_error_in_a_helper_reaches_the_caller(self, monkeypatch):
        _force_cpus(monkeypatch, 2)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)

        def fail():
            raise NumericError("raised in a helper")

        calls = _on_helpers(monkeypatch, fail)
        net = random_net([6, 10, 1], np.random.default_rng(18))
        X = np.random.default_rng(19).normal(size=(40 * 64, 6))
        threads = set(threading.enumerate())
        with pytest.raises(NumericError, match="raised in a helper"):
            lone_output_moments(net, X)
        # No thread beyond the pool's helpers runs on.
        assert set(threading.enumerate()) <= threads | _helpers(forward._pool)
        # The caller finished the item it had; nobody took another of the 40.
        assert len(calls) <= 2

    def test_helpers_see_the_callers_error_state(self, monkeypatch):
        _force_cpus(monkeypatch, 2)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)
        seen = []
        calls = _on_helpers(monkeypatch, lambda: seen.append(np.geterr()))
        net = random_net([6, 10, 1], np.random.default_rng(20))
        X = np.random.default_rng(21).normal(size=(4 * 64, 6))
        with np.errstate(all="ignore"):
            expected = np.geterr()
            lone_output_moments(net, X)
        assert seen and all(state == expected for state in seen)
        assert expected != np.geterr()
        assert len(calls) == 4

    def test_more_threads_than_cpus_take_every_item_once(self, monkeypatch):
        # Eight threads on fewer CPUs, switching every 10 us: a lost or a
        # doubled hand-out of an item would show in the count or the bits.
        _force_cpus(monkeypatch, 8)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 16)
        calls = _spy_items(monkeypatch)
        rng = np.random.default_rng(24)
        net = random_net([6, 10, 1], rng)
        X = rng.normal(size=(60 * 16, 6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            m, v = lone_output_moments(net, X)
        finally:
            sys.setswitchinterval(interval)
        ref_m, ref_v = forward_output_moments_batch(net, X)
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)
        assert len(calls) == 60

    def test_no_thread_to_be_had_leaves_the_work_to_the_caller(self, monkeypatch, fresh_pool):
        _force_cpus(monkeypatch, 3)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)

        def no_thread(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        rng = np.random.default_rng(22)
        net = random_net([6, 10, 1], rng)
        X = rng.normal(size=(5 * 64, 6))
        m, v = lone_output_moments(net, X)
        ref_m, ref_v = forward_output_moments_batch(net, X)
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)
        assert _helpers(fresh_pool) == set()

    def test_a_job_queued_by_a_refused_start_is_waited_for(self, monkeypatch):
        # A submit that cannot start a thread raises with its job queued, and
        # a helper the pool has already may run that job all the same: the
        # caller must wait for the item it takes.
        _force_cpus(monkeypatch, 2)
        taken, caller_done, done, main = threading.Event(), threading.Event(), [], threading.current_thread()

        class RefusingPool:
            def submit(self, function, *args):
                threading.Thread(target=function, args=args).start()
                raise RuntimeError("can't start new thread")

        def work(item):
            if threading.current_thread() is main:
                assert taken.wait(timeout=10)
                caller_done.set()
            else:
                taken.set()
                assert caller_done.wait(timeout=10)
                time.sleep(0.05)
            done.append(item)

        monkeypatch.setattr(forward, "_pool", RefusingPool())
        forward._run_items(work, [0, 1], True)
        assert sorted(done) == [0, 1]


def _grouped_training(monkeypatch, cpus):
    """A stack of 8 runs of 6-10-1 after a training of one epoch on 25
    seeded examples per run with `cpus` usable CPUs (two run groups from 2
    on), as bytes of its means, variances, Gammas and sites."""
    _force_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(26)
    train = Dataset(rng.normal(size=(8, 25, 6)), rng.normal(size=(8, 25)))
    rngs = [np.random.default_rng(26 + r) for r in range(8)]
    stack, sites, _ = train_runs(train, PbpConfig(hidden_layer_sizes=(10,), epochs=1), rngs)
    return [a.tobytes() for a in (stack.means, stack.variances, stack.gamma, stack.lam, sites)]


class TestHelperPool:
    """The helpers of parallel passes are started once and kept: a pass
    starts no thread, a forked child starts its own, and a caller waits for
    no item it did not hand to a helper that took it."""

    def test_passes_start_no_thread_after_the_first(self, monkeypatch, fresh_pool):
        _force_cpus(monkeypatch, 3)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)
        rng = np.random.default_rng(27)
        train = Dataset(rng.normal(size=(12, 5, 6)), rng.normal(size=(12, 5)))
        config, X = PbpConfig(hidden_layer_sizes=(10,), epochs=1), rng.normal(size=(12, 20, 6))
        real_run_items, dispatches = training._run_items, []

        def run_items(work, items, parallel):
            dispatches.append(len(items))
            real_run_items(work, items, parallel)

        monkeypatch.setattr(training, "_run_items", run_items)

        def grouped_training_and_rows_pass():
            stack, _, _ = train_runs(train, config, [np.random.default_rng(r) for r in range(12)])
            forward_output_moments(stack, X)

        grouped_training_and_rows_pass()
        assert dispatches == [3]
        threads = threading.enumerate()
        assert 1 <= len(_helpers(fresh_pool)) <= forward.usable_cpus() - 1
        real_start, started = threading.Thread.start, []

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        for _ in range(100):
            grouped_training_and_rows_pass()
        assert started == []
        assert threading.enumerate() == threads

    def test_a_forked_child_runs_a_grouped_training_on_helpers_of_its_own(self, monkeypatch):
        want = _grouped_training(monkeypatch, 1)
        assert _grouped_training(monkeypatch, 2) == want
        parent_helpers = _helpers(forward._pool)
        assert parent_helpers  # which the child's copy of the pool would name
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child():
            got = _grouped_training(monkeypatch, 2)
            helpers, alive = _helpers(forward._pool), threading.enumerate()
            send.send((got, len(helpers), sum(h in alive for h in helpers), len(parent_helpers & helpers)))

        process = context.Process(target=child)
        process.start()
        try:
            assert receive.poll(60), "the forked child did not finish its training"
            got, helpers, alive, inherited = receive.recv()
        finally:
            process.join(timeout=60)
        assert not process.is_alive() and process.exitcode == 0
        assert got == want
        assert helpers == alive == 1 and inherited == 0

    def test_a_finished_pass_leaves_nothing_alive_on_a_helper(self, monkeypatch, fresh_pool):
        # Once a helper has run its job, nothing of the pass stays alive:
        # not its inputs, nor the kernel bindings the helper made for it.
        _force_cpus(monkeypatch, 2)
        monkeypatch.setattr(forward, "BLOCK_ROWS", 64)
        rng = np.random.default_rng(28)
        stack = stack_of([random_net([6, 10, 1], rng)])
        X = rng.normal(size=(1, 5 * 64, 6))
        forward_output_moments(stack, X)
        assert _helpers(fresh_pool)
        passed = weakref.ref(X)
        del X
        deadline = time.monotonic() + 10
        while passed() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert passed() is None

    def test_a_caller_waits_for_no_item_another_callers_item_holds_up(self, monkeypatch, fresh_pool):
        # The helper holds one item of caller A until `release`, and A, its
        # own item done, waits for it; caller B then finishes both its items
        # on its own thread, the job it queued for the helper still waiting
        # behind A's item.
        _force_cpus(monkeypatch, 2)
        held, release, own_done = threading.Event(), threading.Event(), threading.Event()
        done_a, taken_b, caller_a = [], [], None

        def work_a(item):
            if threading.current_thread() is caller_a:
                assert held.wait(timeout=10)  # the helper has taken the other item
                done_a.append(item)
                own_done.set()
            else:
                held.set()
                assert release.wait(timeout=30)
                done_a.append(item)

        caller_a = threading.Thread(target=forward._run_items, args=(work_a, [0, 1], True))
        caller_a.start()
        try:
            assert own_done.wait(timeout=10)
            forward._run_items(lambda item: taken_b.append((item, threading.current_thread())), [0, 1], True)
            assert taken_b == [(0, threading.current_thread()), (1, threading.current_thread())]
            assert not release.is_set() and len(done_a) == 1 and caller_a.is_alive()
        finally:
            release.set()
            caller_a.join(timeout=30)
        assert sorted(done_a) == [0, 1] and not caller_a.is_alive()
        assert len(_helpers(fresh_pool)) == 1


class TestOneRectifierCallPerItem:
    """A rows pass runs each of its work items (see _work_items) in one
    kernel.c call, which rectifies the item's rows in one rectify call per
    hidden layer, serially and, from 2 * BLOCK_ROWS rows over all runs on,
    on helper threads. On both sides of every item boundary it must give the
    bits of the frozen rectifier of reference_forward, its deterministic and
    far-tail branches included."""

    @staticmethod
    def nets_and_rows(runs, n, units, rng):
        """runs [6, units, 7, 1] nets whose hidden unit 0 has alpha = -x0 /
        |x1| (see _branch_net_and_rows), and (runs, n, 6) rows: in every run,
        the two rows on each side of every row-block boundary, the first and
        last rows included, take the deterministic (x1 = 0) and far-tail
        (x1 = 1e-3) branches."""
        nets = [random_net([6, units, 7, 1], rng, mean_scale=0.5) for _ in range(runs)]
        for net in nets:
            (means, *_), (variances, *_) = weights(net)
            means[0] = 0.0
            means[0, 0] = -1.0
            variances[0] = 0.0
            variances[0, 1] = 1.0
        X = rng.normal(size=(runs, n, 6))
        X[..., 0] = rng.uniform(-1.0, 1.0, (runs, n))
        X[..., 1] = rng.uniform(1.0, 2.0, (runs, n))
        for _, rows in forward._work_items(1, n):
            for b in (rows.start, rows.stop):
                near = [r for r in range(b - 2, b + 2) if 0 <= r < n]
                X[:, near, 0] = [[1.0, 1.0, -1.0, 0.5][r - b + 2] for r in near]
                X[:, near, 1] = [[0.0, 1e-3, 0.0, 1e-3][r - b + 2] for r in near]
        return nets, X

    @pytest.mark.parametrize("units", [9, 50])
    @pytest.mark.parametrize(
        "runs, n",
        [
            (1, 2 * BLOCK_ROWS - 1),
            (1, 2 * BLOCK_ROWS),
            (1, 3 * BLOCK_ROWS + 7),
            (3, 2 * BLOCK_ROWS // 3),
            (3, 2 * BLOCK_ROWS // 3 + 1),
            (5, 100),
        ],
    )
    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "threaded"])
    def test_items_match_the_reference(self, monkeypatch, cpus, runs, n, units):
        _force_cpus(monkeypatch, cpus)
        real_run_items, parallel = forward._run_items, []
        calls = _spy_items(monkeypatch)

        def run_items(work, items, is_parallel):
            parallel.append(is_parallel)
            return real_run_items(work, items, is_parallel)

        monkeypatch.setattr(forward, "_run_items", run_items)
        nets, X = self.nets_and_rows(runs, n, units, np.random.default_rng(runs * n + units))
        m, v = forward_output_moments(stack_of(nets), X)
        for r, net in enumerate(nets):
            ref_m, ref_v = forward_output_moments_batch(net, X[r])
            assert m[r].tobytes() == ref_m.tobytes() and v[r].tobytes() == ref_v.tobytes(), r
        assert parallel == [runs * n >= 2 * BLOCK_ROWS]

        items = sorted(X[group, rows].shape[:-1] for group, rows in forward._work_items(runs, n))
        assert len(calls) == len(items)
        assert sorted(item for _, item, _ in calls) == items
        for _, (group, block), relus in calls:
            assert [shape for shape, _, _ in relus] == [(group * block, units), (group * block, 7)]
        first = [relus[0] for _, _, relus in calls]
        assert all(deterministic > 0 and series > 0 for _, deterministic, series in first)


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "threaded"])
def test_a_threads_buffers_serve_items_of_every_shape_in_a_pass(monkeypatch, block, cpus):
    # Each thread's buffers serve items of either shape of a pass, whichever
    # it takes first: full row blocks then a last block of 2 * block - 1
    # rows (one run, and three), or groups of two runs then a short last
    # group of one.
    _force_cpus(monkeypatch, cpus)
    calls = _spy_items(monkeypatch)
    rng = np.random.default_rng(25)
    for runs, n in [(1, 4 * block - 1), (3, 4 * block - 1), (5, block // 2)]:
        nets = [random_net([6, 10, 7, 1], rng, mean_scale=0.5) for _ in range(runs)]
        X = rng.normal(size=(runs, n, 6))
        calls.clear()
        m, v = forward_output_moments(stack_of(nets), X)
        for r, net in enumerate(nets):
            ref_m, ref_v = forward_output_moments_batch(net, X[r])
            assert m[r].tobytes() == ref_m.tobytes() and v[r].tobytes() == ref_v.tobytes(), (n, r)
        items = {item for _, item, _ in calls}
        assert len(items) == 2 and max(items) in [(1, 2 * block - 1), (2, block // 2)]
        if cpus == 1:
            assert {thread for thread, _, _ in calls} == {threading.current_thread()}


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "threaded"])
def test_a_threads_buffers_fit_the_items_it_takes(monkeypatch, block, cpus):
    # A Wine-shaped training-set pass: 1,439 rows through 1 x 11-50-50-1,
    # items of 512 and 927 rows at the default block. A thread's capacity is
    # the running maximum of the items it has taken, and its old buffers are
    # dropped before new ones are bound: the peak stays under 14 MB on one
    # thread and 22 MB on two.
    _force_cpus(monkeypatch, cpus)
    real, seen = kernel.RowsPass.__call__, []

    def call(self, runs, rows):
        real(self, runs, rows)
        group = len(range(self.shape[0])[runs])
        item = group, group * len(range(self.shape[1])[rows])
        seen.append((threading.current_thread(), item, self.capacity))

    monkeypatch.setattr(kernel.RowsPass, "__call__", call)
    rng = np.random.default_rng(31)
    net = random_net([11, 50, 50, 1], rng, mean_scale=0.5)
    stack, X = stack_of([net]), rng.normal(size=(1, 1439, 11))
    m, v = forward_output_moments(stack, X)
    ref_m, ref_v = forward_output_moments_batch(net, X[0])
    assert m[0].tobytes() == ref_m.tobytes() and v[0].tobytes() == ref_v.tobytes()
    for thread in {thread for thread, _, _ in seen}:
        taken = [(item, capacity) for t, item, capacity in seen if t is thread]
        for k, (_, capacity) in enumerate(taken):
            items = [item for item, _ in taken[: k + 1]]
            assert capacity == (max(i[0] for i in items), max(i[1] for i in items))
    assert _forward_peak_bytes(stack, X) < {1: 14e6, 2: 22e6}[cpus]


def _forward_peak_bytes(stack, X) -> int:
    tracemalloc.start()
    try:
        forward_output_moments(stack, X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_is_bounded_by_one_block(monkeypatch):
    # Unblocked, a 20k-row forward through 11-50-50-1 peaked at 210 MB; in
    # blocks of 512 rows it takes 10.9 MB at 20k rows and 11.5 MB at 40k.
    # Each working thread holds one block, so the thread count is fixed.
    _force_cpus(monkeypatch, 2)
    rng = np.random.default_rng(14)
    stack = stack_of([random_net([11, 50, 50, 1], rng, mean_scale=0.5)])
    X20, X40 = rng.normal(size=(1, 20_000, 11)), rng.normal(size=(1, 40_000, 11))
    peak20 = _forward_peak_bytes(stack, X20)
    peak40 = _forward_peak_bytes(stack, X40)
    assert peak20 < 40e6
    assert peak40 < 1.5 * peak20


@pytest.mark.parametrize("cpus", [1, 2])
def test_stack_memory_is_bounded_by_its_items(monkeypatch, cpus):
    # The epoch-RMSE pass of 20 Boston-shaped runs peaked at 64.5 MB while the
    # rectifier ran over all runs at once and kept every intermediate alive;
    # in items of one run, each rectified in one call, it takes 4.4 MB on one
    # thread and 8.6 MB on two.
    _force_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(23)
    stack = stack_of([random_net([13, 50, 1], rng) for _ in range(20)])
    assert _forward_peak_bytes(stack, rng.normal(size=(20, 456, 13))) < 12e6
