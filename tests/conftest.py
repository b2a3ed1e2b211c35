"""Shared fixtures and helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from pbp.data import Dataset
from pbp.forward import forward_output_moments
from pbp.posterior import GammaDist, PosteriorStack, new_uniform
from pbp.updates import GradientStore, backward_gradients

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
    _, _, trace = forward_output_moments(stack, np.asarray(x, dtype=float)[None, None, :])
    grads = backward_gradients(stack, trace, np.array([y]))
    return GradientStore(
        [g[0].copy() for g in grads.d_means], [g[0].copy() for g in grads.d_variances]
    )
