"""Gaussian predictive distributions and test metrics in original units."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NormStats
from .forward import forward_output_moments
from .gauss import LOG_2PI
from .posterior import NetworkPosterior, NumericError, PbpConfig


@dataclass
class TrainedModel:
    """A trained posterior bundled with its normalization statistics."""

    net: NetworkPosterior
    norm: NormStats
    config: PbpConfig


def noise_floor(net: NetworkPosterior) -> float:
    """Observation-noise variance implied by the Gamma posterior (normalized
    target units): rate / (shape - 1), the Gaussian-collapse variance."""
    if net.gamma.shape <= 1.0:
        raise ValueError(
            f"noise Gamma shape {net.gamma.shape} <= 1: posterior not trained"
        )
    return net.gamma.rate / (net.gamma.shape - 1.0)


def predict_batch(
    net: NetworkPosterior, norm: NormStats, X_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances in original target units, one per row
    of raw inputs X_raw, shape (n, d).

    Raises NumericError naming the first row, counted from 1, whose mean or
    variance is not finite (inputs or weights too large for the arithmetic).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X = norm.apply_features(np.asarray(X_raw, dtype=float))
        mz, vz = forward_output_moments(net, X)
        means = mz * norm.target_std + norm.target_mean
        variances = (noise_floor(net) + vz) * norm.target_std**2
    bad = ~(np.isfinite(means) & np.isfinite(variances))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"input row {i + 1}: predictive mean {float(means[i])!r} and variance "
            f"{float(variances[i])!r} are not both finite"
        )
    return means, variances


def rmse(model: TrainedModel, test: Dataset) -> float:
    """Root mean squared error of the predictive means, original units."""
    if len(test) == 0:
        raise ValueError("empty test set")
    means, _ = predict_batch(model.net, model.norm, test.features)
    return float(np.sqrt(np.mean((means - test.targets) ** 2)))


def test_log_likelihood(model: TrainedModel, test: Dataset) -> float:
    """Average log-density of the true targets under the predictive Gaussians."""
    if len(test) == 0:
        raise ValueError("empty test set")
    means, variances = predict_batch(model.net, model.norm, test.features)
    logp = -0.5 * (LOG_2PI + np.log(variances) + (test.targets - means) ** 2 / variances)
    return float(np.mean(logp))
