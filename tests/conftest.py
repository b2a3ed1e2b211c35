"""Shared fixtures and helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from pbp.data import Dataset, NormStats
from pbp.forward import (
    DETERMINISTIC_VARIANCE,
    SERIES_THRESHOLD,
    MomentVector,
    forward_output_moments,
    workspace,
)
from pbp.kernel import NoiseStep, Rectifier
from pbp.posterior import GammaDist, PosteriorStack, new_uniform
from pbp.prediction import predict_batch
from pbp.updates import (
    UpdateOutcome,
    ep_refresh_prior,
    incorporate_all_prior_factors,
    incorporate_likelihood_factors,
)
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


def lone_output_moments(net, X):
    """forward_output_moments of rows X, shape (n, d), through a stack of one
    copy of net: (n,) means and variances."""
    m, v = forward_output_moments(PosteriorStack.of([net]), np.asarray(X, dtype=float)[None])
    return m[0], v[0]


def output_moments(net, x):
    """The output mean and variance of one input row x, as two floats."""
    m, v = lone_output_moments(net, np.asarray(x, dtype=float)[None, :])
    return float(m[0]), float(v[0])


def predict_alone(net, norm, X_raw):
    """predict_batch of raw rows X_raw, shape (n, d), through a stack of one
    copy of net normalized with norm: (n,) means and variances."""
    means, variances = predict_batch(PosteriorStack.of([net]), [norm], np.asarray(X_raw, dtype=float)[None])
    return means[0], variances[0]


def relu_moments(a: MomentVector, out: np.ndarray | None = None) -> tuple[MomentVector, Rectifier]:
    """Mean and variance of max(0, x) for x ~ N(a.mean, a.variance), per unit,
    through the package's rectifier (kernel.Rectifier, bound to a's moments
    as C-contiguous floats), and the rectifier, whose buffers hold the
    intermediates. out, (2, *a.mean.shape), when given, takes the moments."""
    m = np.ascontiguousarray(a.mean, dtype=float)
    v = np.ascontiguousarray(a.variance, dtype=float)
    out = np.empty((2, *m.shape)) if out is None else out
    rectifier = Rectifier(m, v, out, DETERMINISTIC_VARIANCE, SERIES_THRESHOLD)
    rectifier()
    return MomentVector(*out), rectifier


def forward_trace(stack, x):
    """The forward pass of one input row per run, x of shape (R, d), in the
    stack's likelihood step (pbp.forward.workspace), whose intermediates the
    backward pass reads until the stack's next step: its (R,) output means
    and variances, the noise step's mz and vz."""
    x = np.asarray(x, dtype=float)
    expected = stack.means.shape[:-1] + (stack.layer_sizes[0],)
    if x.shape != expected:
        raise ValueError(f"input has shape {x.shape}, expected {expected}")
    step = workspace(stack)
    np.copyto(step.x, x[:, None, :])
    step.forward()
    return step.noise.mz, step.noise.vz


def backward_gradients(stack, y) -> None:
    """Gradients of the likelihood log Z w.r.t. every weight mean and
    variance, through the stack's likelihood step, whose intermediates the
    stack's last forward_trace left: y holds one target per run. They go
    into the step's buffers: flat over all weights in d_means and
    d_variances, with per-layer (R, rows, cols) views d_mean_views and
    d_variance_views."""
    step = stack.workspace
    np.copyto(step.noise.targets, y)
    step.backward()


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


def one_step(stack, x, y) -> UpdateOutcome:
    """incorporate_likelihood_factors of one example per run, x (R, d) and
    y (R,): kernel.c's step_epoch over an epoch of one step."""
    return incorporate_likelihood_factors(stack, np.asarray(x)[None], np.asarray(y)[None])


def step_by_phases(stack, x, y) -> UpdateOutcome:
    """One likelihood step of one example per run, x (R, d) and y (R,),
    driven from Python one phase at a time: forward_trace, the workspace's
    NoiseStep, backward_gradients (looked up in this module at each call, so
    a test may patch it) and Step.refine. The outcome counts 0 or 1 per
    run."""
    forward_trace(stack, np.asarray(x, dtype=float))
    step = stack.workspace
    step.noise.y[...] = y
    skips = step.noise()
    skipped = step.noise.skipped.astype(np.int64)
    if skips == len(skipped):
        return UpdateOutcome(skipped, np.zeros_like(skipped), np.zeros_like(skipped))
    # The skipping runs' gradients are discarded; their targets are their
    # output means, whose zero residual keeps them finite.
    backward_gradients(stack, step.noise.targets)
    step.refine()
    return UpdateOutcome(skipped, step.undo.copy(), step.updates.copy())


def epoch_by_phases(stack, xs, ys) -> UpdateOutcome:
    """incorporate_likelihood_factors of xs (n, R, d) and ys (n, R), one
    step_by_phases per example: the per-example driver through whose seams
    a test patches a phase of training."""
    counts = np.zeros((3, stack.means.shape[0]), dtype=np.int64)
    for x, y in zip(xs, ys):
        outcome = step_by_phases(stack, x, y)
        counts += (outcome.skipped, outcome.undo_count, outcome.weight_updates)
    return UpdateOutcome(*counts)
