"""Reverse-mode gradients validated against independent oracles.

The relative comparison uses a scale floor: entries whose finite-difference
value is below it are noise-dominated in the oracle itself (log Z carries
~1e-16 relative error, so a central difference with h = 1e-5 has ~1e-11
absolute noise) and are compared absolutely instead.
"""

import math

import numpy as np
import pytest

from conftest import forward_trace, one_run_gradients, output_moments, random_net
from oracles import fd_logz_gradients
from pbp.posterior import GammaDist, PosteriorStack, new_uniform

GRAD_FLOOR = 1e-5
FD_NOISE = 1e-9


def assert_gradients_match(analytic, fd, rel_tol=1e-5):
    for a, b in zip(
        analytic.d_means + analytic.d_variances, fd.d_means + fd.d_variances
    ):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), GRAD_FLOOR)
        rel = np.abs(a - b) / scale
        small = np.maximum(np.abs(a), np.abs(b)) < GRAD_FLOOR
        assert np.all(rel[~small] <= rel_tol), f"max rel err {rel[~small].max()}"
        assert np.all(np.abs(a - b)[small] <= FD_NOISE)


def test_matches_finite_differences_random_nets():
    rng = np.random.default_rng(3)
    shapes = [[3, 5, 1], [2, 4, 3, 1], [4, 8, 1], [1, 2, 2, 1], [5, 3, 1]]
    for trial in range(20):
        net = random_net(shapes[trial % len(shapes)], rng, var_low=0.05, var_high=1.5)
        net.gamma = GammaDist(rng.uniform(2, 10), rng.uniform(2, 10))
        x = rng.normal(size=net.layer_sizes[0])
        y = float(rng.normal())
        grads = one_run_gradients(net, x, y)
        fd = fd_logz_gradients(net, x, y)
        assert_gradients_match(grads, fd)


def test_deterministic_net_equals_classic_backprop():
    # With all weight variances at 0 the forward pass is the plain scaled ReLU
    # network and log Z = log N(y | f(x), noise), so the mean-gradients must
    # reproduce textbook backprop through f.
    rng = np.random.default_rng(8)
    net = random_net([2, 3, 1], rng)
    for layer in net.layers:
        layer.variances[...] = 0.0
    net.gamma = GammaDist(6.0, 6.0)
    x = rng.normal(size=2)
    y = 0.7

    z0 = np.append(x, 1.0)
    w1, w2 = net.layers[0].means, net.layers[1].means
    a1 = w1 @ z0 / math.sqrt(3)
    b1 = np.maximum(a1, 0.0)
    z1 = np.append(b1, 1.0)
    out = (w2 @ z1 / math.sqrt(4))[0]

    noise = net.gamma.rate / (net.gamma.shape - 1.0)
    dout = (y - out) / noise
    d_w2 = dout * z1 / math.sqrt(4)
    d_b1 = dout * w2[0, :3] / math.sqrt(4)
    d_a1 = d_b1 * (a1 > 0.0)
    d_w1 = np.outer(d_a1, z0) / math.sqrt(3)

    grads = one_run_gradients(net, x, y)
    assert np.allclose(grads.d_means[1][0], d_w2, rtol=1e-12, atol=1e-14)
    assert np.allclose(grads.d_means[0], d_w1, rtol=1e-12, atol=1e-14)


def test_output_bias_variance_gradient_single_path():
    # The output-layer bias variance feeds the output variance with coefficient
    # (mz^2 + vz)/cols = 1/cols, so its gradient is d log Z / d vz / cols.
    rng = np.random.default_rng(15)
    net = random_net([2, 4, 1], rng)
    x = rng.normal(size=2)
    y = -0.4
    mz, vz = output_moments(net, x)
    grads = one_run_gradients(net, x, y)

    total = net.gamma.rate / (net.gamma.shape - 1.0) + vz
    dvz = 0.5 * ((y - mz) ** 2 / total**2 - 1.0 / total)
    cols = net.layers[1].cols
    assert grads.d_variances[1][0, -1] == pytest.approx(dvz / cols, rel=1e-12)


def test_gradients_through_series_branch():
    # Push one hidden unit deep into the series regime and check the backward
    # pass still matches finite differences of the implemented forward pass.
    net = new_uniform([1, 2, 1])
    net.gamma = GammaDist(6.0, 6.0)
    net.lam = GammaDist(6.0, 6.0)
    net.layers[0].means[...] = np.array([[-40.0, -8.0], [0.5, 0.2]])
    net.layers[0].variances[...] = np.array([[0.3, 0.4], [0.2, 0.3]])
    net.layers[1].means[...] = np.array([[1.2, 0.8, 0.1]])
    net.layers[1].variances[...] = np.array([[0.2, 0.1, 0.3]])
    x = np.array([1.0])
    y = 0.3
    stack = PosteriorStack.of([net])
    forward_trace(stack, x[None, :])
    assert stack.workspace.rectifiers[0].series.any()
    grads = one_run_gradients(net, x, y)
    fd = fd_logz_gradients(net, x, y)
    assert_gradients_match(grads, fd)
