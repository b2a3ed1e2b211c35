import math

import mpmath as mp
import numpy as np
import pytest

from conftest import random_net
from pbp.forward import (
    MomentVector,
    append_bias,
    forward_linear,
    forward_output_moments,
    relu_moments,
)
from pbp.oracles import mc_forward_moments
from pbp.posterior import LayerPosterior, PosteriorStack, new_uniform
from reference_forward import forward_output_moments_batch


def mv(mean, var):
    return MomentVector(np.asarray(mean, dtype=float), np.asarray(var, dtype=float))


class TestForwardLinear:
    def test_deterministic_weights_and_inputs(self):
        layer = LayerPosterior(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
        out = forward_linear(layer, mv([3.0, 1.0], [0.0, 0.0]))
        assert out.mean[0] == pytest.approx(4.0 / math.sqrt(2.0), abs=1e-15)
        assert out.variance[0] == 0.0

    def test_pure_weight_variance(self):
        layer = LayerPosterior(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        out = forward_linear(layer, mv([1.0, 1.0], [0.0, 0.0]))
        assert out.mean[0] == 0.0
        assert out.variance[0] == pytest.approx(1.0, abs=1e-15)

    def test_all_deterministic_gives_zero_variance(self):
        layer = LayerPosterior(np.array([[2.0, -1.0, 0.5]]), np.zeros((1, 3)))
        out = forward_linear(layer, mv([0.3, 0.7, 1.0], [0.0, 0.0, 0.0]))
        assert out.variance[0] == 0.0

    def test_dimension_mismatch(self):
        layer = LayerPosterior(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            forward_linear(layer, mv([1.0, 2.0], [0.0, 0.0]))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        layer = LayerPosterior(rng.normal(size=(2, 3)), rng.uniform(0.1, 1.0, (2, 3)))
        z_mean = rng.normal(size=3)
        out = forward_linear(layer, mv(z_mean, np.zeros(3)))
        n = 400_000
        w = layer.means + np.sqrt(layer.variances) * rng.standard_normal((n, 2, 3))
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
        for layer in net.layers:
            layer.variances[...] = 0.0
        x = rng.normal(size=3)
        m, v, _ = forward_output_moments(net, x)

        z = np.append(x, 1.0)
        a = net.layers[0].means @ z / math.sqrt(4)
        z2 = np.append(np.maximum(a, 0.0), 1.0)
        expected = (net.layers[1].means @ z2 / math.sqrt(5))[0]
        assert m == pytest.approx(expected, rel=1e-12)
        assert v == 0.0

    def test_monte_carlo_one_hidden_layer(self):
        rng = np.random.default_rng(42)
        net = random_net([2, 8, 1], rng, mean_scale=0.8, var_low=0.05, var_high=0.6)
        x = np.array([0.3, -1.2])
        m, v, _ = forward_output_moments(net, x)
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
        m, v, _ = forward_output_moments(net, x)
        est = mc_forward_moments(net, x, 10**6, np.random.default_rng(3))
        scale = math.sqrt(est.variance)
        assert abs(m - est.mean) < max(3 * est.mean_se, 0.08 * scale)
        assert abs(v - est.variance) < max(3 * est.variance_se, 0.08 * est.variance)

    def test_hidden_unit_permutation_invariance(self):
        rng = np.random.default_rng(17)
        net = random_net([3, 6, 1], rng)
        x = rng.normal(size=3)
        m0, v0, _ = forward_output_moments(net, x)

        perm = rng.permutation(6)
        permuted = net.clone()
        permuted.layers[0].means = net.layers[0].means[perm]
        permuted.layers[0].variances = net.layers[0].variances[perm]
        permuted.layers[1].means = np.hstack(
            [net.layers[1].means[:, :6][:, perm], net.layers[1].means[:, 6:]]
        )
        permuted.layers[1].variances = np.hstack(
            [net.layers[1].variances[:, :6][:, perm], net.layers[1].variances[:, 6:]]
        )
        m1, v1, _ = forward_output_moments(permuted, x)
        assert m1 == pytest.approx(m0, rel=1e-12)
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_output_variance_nonnegative(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            net = random_net([4, 5, 1], rng, mean_scale=2.0, var_high=3.0)
            x = rng.normal(scale=2.0, size=4)
            _, v, _ = forward_output_moments(net, x)
            assert v >= 0.0

    def test_dimension_mismatch(self):
        net = new_uniform([3, 2, 1])
        with pytest.raises(ValueError):
            forward_output_moments(net, np.zeros(4))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(2)
        net = random_net([3, 5, 1], rng)
        X = rng.normal(size=(11, 3))
        bm, bv, _ = forward_output_moments(net, X)
        for i in range(11):
            m, v, _ = forward_output_moments(net, X[i])
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
        m, v, _ = forward_output_moments(net, X)
        ref_m, ref_v = forward_output_moments_batch(net, X)
        assert m.shape == v.shape == (n,)
        assert _bits(m) == _bits(ref_m)
        assert _bits(v) == _bits(ref_v)

    @pytest.mark.parametrize("n", [1, 11])
    def test_stack_matches_each_run_alone(self, n):
        rng = np.random.default_rng(9)
        nets = [random_net([3, 4, 4, 1], rng) for _ in range(3)]
        X = rng.normal(size=(3, n, 3))
        m, v, _ = forward_output_moments(PosteriorStack.of(nets), X)
        assert m.shape == v.shape == (3, n)
        for r, net in enumerate(nets):
            alone_m, alone_v, _ = forward_output_moments(net, X[r])
            assert _bits(m[r]) == _bits(alone_m)
            assert _bits(v[r]) == _bits(alone_v)

    def test_single_input_gives_the_floats_of_its_row(self):
        rng = np.random.default_rng(4)
        net = random_net([3, 5, 1], rng)
        x = rng.normal(size=3)
        m, v, trace = forward_output_moments(net, x)
        row_m, row_v, row_trace = forward_output_moments(net, x[None, :])
        assert type(m) is float and type(v) is float
        assert _bits(m) == _bits(row_m[0]) and _bits(v) == _bits(row_v[0])
        assert (trace.output_mean, trace.output_variance) == (m, v)
        assert (row_trace.output_mean, row_trace.output_variance) == (m, v)

    def test_stack_without_a_rows_axis_rejected(self):
        rng = np.random.default_rng(5)
        stack = PosteriorStack.of([random_net([3, 4, 1], rng) for _ in range(3)])
        with pytest.raises(ValueError, match="expected"):
            forward_output_moments(stack, rng.normal(size=(3, 3)))

    def test_trace_kept_only_for_one_row(self):
        rng = np.random.default_rng(6)
        net = random_net([3, 4, 1], rng)
        stack = PosteriorStack.of([net, random_net([3, 4, 1], rng)])
        assert forward_output_moments(net, rng.normal(size=(2, 3)))[2] is None
        assert forward_output_moments(stack, rng.normal(size=(2, 5, 3)))[2] is None
        _, _, trace = forward_output_moments(stack, rng.normal(size=(2, 1, 3)))
        assert trace.output_mean.shape == (2,)
        assert len(trace.records) == 2
