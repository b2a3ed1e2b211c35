"""Shared fixtures and helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from pbp.data import Dataset, NormStats
from pbp.forward import forward_output_moments, forward_trace
from pbp.kernel import NoiseStep
from pbp.posterior import GammaDist, PosteriorStack, new_uniform
from pbp.updates import backward_gradients, ep_refresh_prior, incorporate_all_prior_factors
from reference_update import GradientStore

# Prepared benchmark CSVs live here (see scripts/fetch_datasets.py); tests that
# need them skip when absent, since this suite must run offline.
DATA_DIR = Path(os.environ.get("PBP_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))

UCI_FILES = {
    "boston": "boston.csv",
    "yacht": "yacht.csv",
    "wine": "winequality-red.csv",
}


def uci_path(name: str) -> Path:
    return DATA_DIR / UCI_FILES[name]


def require_uci(name: str) -> Path:
    path = uci_path(name)
    if not path.exists():
        pytest.skip(
            f"{path} not present; run scripts/fetch_datasets.py on a networked "
            f"machine to prepare the benchmark CSVs"
        )
    return path


def random_net(layer_sizes, rng, mean_scale=1.0, var_low=0.05, var_high=1.0):
    """A fully populated posterior with random finite parameters."""
    net = new_uniform(layer_sizes)
    for layer in net.layers:
        layer.means[...] = rng.normal(0.0, mean_scale, layer.means.shape)
        layer.variances[...] = rng.uniform(var_low, var_high, layer.variances.shape)
    net.gamma = GammaDist(6.0, 6.0)
    net.lam = GammaDist(6.0, 6.0)
    return net


def output_moments(net, x):
    """The output mean and variance of one input row x, as two floats."""
    m, v = forward_output_moments(net, np.asarray(x, dtype=float)[None, :])
    return float(m[0]), float(v[0])


def identity_stats(n_features: int) -> NormStats:
    """Pass-through normalization statistics, for data already normalized."""
    return NormStats(np.zeros(n_features), np.ones(n_features), 0.0, 1.0)


def toy_cubic_dataset(n: int, seed: int, noise_sd: float = 3.0) -> Dataset:
    """Inputs uniform on [-4, 4], targets x^3 plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, n)
    y = x**3 + rng.normal(0.0, noise_sd, n)
    return Dataset(x[:, None], y)


def one_run_gradients(net, x, y) -> GradientStore:
    """backward_gradients of the likelihood log Z for one input x and target y,
    through a one-run stack of a copy of net; per-layer arrays without the
    runs axis."""
    stack = PosteriorStack.of([net])
    forward_trace(stack, np.asarray(x, dtype=float)[None, :])
    backward_gradients(stack, np.array([y]))
    ws = stack.workspace
    return GradientStore(
        [g[0].copy() for g in ws.d_mean_views], [g[0].copy() for g in ws.d_variance_views]
    )


def _one_run(net, kernel):
    """kernel(stack) on a one-run stack of a copy of net; net takes the run's
    weights and prior Gamma back when the kernel returns."""
    stack = PosteriorStack.of([net])
    result = kernel(stack)
    for layer, run_layer in zip(net.layers, stack.layers):
        layer.means[...] = run_layer.means[0]
        layer.variances[...] = run_layer.variances[0]
    net.lam = stack.run(0).lam
    return result


def refresh_one_run(net, sites):
    """pbp.updates.ep_refresh_prior on a one-run stack of a copy of net, with
    sites (a reference_prior.Sites) as the run's sites, refreshed in place;
    net takes the run's weights and prior Gamma back. Returns the report."""
    return _one_run(net, lambda stack: ep_refresh_prior(stack, sites.flat[:, None]))


def incorporate_one_run(net, sites):
    """pbp.updates.incorporate_all_prior_factors on a one-run stack of a copy
    of net; net takes the run's weights back and sites (a
    reference_prior.Sites) the run's new sites."""

    def incorporate(stack):
        sites.flat[...] = incorporate_all_prior_factors(stack)[:, 0]

    _one_run(net, incorporate)


def likelihood_step(cases) -> NoiseStep:
    """kernel.c's noise_step on one (y, mz, vz, (shape, rate)) case per run,
    bound to Gammas of its own: the NoiseStep, its buffers filled."""
    y, mz, vz, gammas = zip(*cases)
    step = NoiseStep(np.array(gammas, dtype=float).T.copy())
    step.moments[...] = (y, mz, vz)
    step()
    return step


def log_z_triple(y, mz, vz, gam: GammaDist):
    """The kernel's likelihood log-normalizers of target y against output
    moments (mz, vz) under the noise Gamma gam, at shape + 0, 1, 2, or None
    when it skips the example."""
    step = likelihood_step([(y, mz, vz, (gam.shape, gam.rate))])
    return None if step.skipped[0] else tuple(step.log_z[:, 0].tolist())
