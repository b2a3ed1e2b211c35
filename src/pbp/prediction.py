"""Gaussian predictive distributions and test metrics in original units, of
every run of a PosteriorStack at once; a lone model is a stack of one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NormStats
from .forward import forward_output_moments
from .kernel import LOG_2PI
from .posterior import NetworkPosterior, NumericError, PbpConfig, PosteriorStack


@dataclass
class TrainedModel:
    """A trained posterior bundled with its normalization statistics."""

    net: NetworkPosterior
    norm: NormStats
    config: PbpConfig


def noise_floor(stack: PosteriorStack) -> np.ndarray:
    """Each run's observation-noise variance implied by its Gamma posterior
    (normalized target units): rate / (shape - 1), the Gaussian-collapse
    variance; shape (R,)."""
    shape, rate = stack.gamma
    if (shape <= 1.0).any():
        raise ValueError(f"noise Gamma shape {shape.min()} <= 1: posterior not trained")
    return rate / (shape - 1.0)


def predict_batch(
    stack: PosteriorStack,
    norms: list[NormStats],
    X_raw: np.ndarray,
    labels: list[str] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances in original target units, shape (R, n):
    run r's for its n rows of raw inputs X_raw[r], X_raw of shape (R, n, d),
    normalized with norms[r].

    Raises NumericError naming the first row whose mean or variance is not
    finite (inputs or weights too large for the arithmetic), and its run by
    labels[r]. Without labels a run is "run <r>", and the run of a stack of
    one goes unnamed. Run r's row i is "data row rows[r, i]" where rows, (R,
    n), gives the rows' places in their data set, else "input row i + 1".
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X_raw = np.asarray(X_raw, dtype=float)
        X = np.stack([norm.apply_features(x) for norm, x in zip(norms, X_raw, strict=True)])
        mz, vz = forward_output_moments(stack, X)
        # Each run's scalars as a lone run computes them: target_std ** 2 is
        # a Python float power, which need not round as numpy's square does.
        std = np.array([[norm.target_std] for norm in norms])
        mean = np.array([[norm.target_mean] for norm in norms])
        std_sq = np.array([[norm.target_std**2] for norm in norms])
        means = mz * std + mean
        variances = (noise_floor(stack)[:, None] + vz) * std_sq
    bad = ~(np.isfinite(means) & np.isfinite(variances))
    if bad.any():
        r, i = np.unravel_index(np.argmax(bad), bad.shape)
        if labels is None and len(norms) > 1:
            labels = [f"run {k}" for k in range(len(norms))]
        row = f"input row {i + 1}" if rows is None else f"data row {rows[r, i]}"
        row = row if labels is None else f"{labels[r]}, {row}"
        raise NumericError(
            f"{row}: predictive mean {float(means[r, i])!r} and variance "
            f"{float(variances[r, i])!r} are not both finite"
        )
    return means, variances


def test_metrics(
    stack: PosteriorStack,
    norms: list[NormStats],
    tests: list[Dataset],
    labels: list[str] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each run's test RMSE of the predictive means and average log-density
    of the true targets under the predictive Gaussians, original units, both
    (R,) from one prediction: run r's on its test set tests[r], normalized
    with norms[r]. The test sets must have equal sizes; labels and rows name
    the runs and rows as in predict_batch."""
    if any(len(test) == 0 for test in tests):
        raise ValueError("empty test set")
    X_raw = np.stack([test.features for test in tests])
    means, variances = predict_batch(stack, norms, X_raw, labels, rows)
    targets = np.stack([test.targets for test in tests])
    logp = -0.5 * (LOG_2PI + np.log(variances) + (targets - means) ** 2 / variances)
    return np.sqrt(np.mean((means - targets) ** 2, axis=-1)), np.mean(logp, axis=-1)
