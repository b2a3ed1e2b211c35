"""The batch forward pass as it stood before training, prediction and stacked
runs shared `forward_output_moments`, kept verbatim as a reference.

`forward_output_moments` on rows must reproduce it bit for bit, and
`test_batched_engine.reference_train` uses it for the epoch RMSE of the
per-example schedule. Its rectifier is the frozen numpy one of
`reference_update`, so the compiled rectifier is compared with an
independent copy.
"""

import math

import numpy as np

from pbp.posterior import PosteriorStack
from reference_prior import weights
from reference_update import MomentVector, relu_moments


def forward_output_moments_batch(
    net: PosteriorStack, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Output moments of a stack of one for a batch of inputs (rows of X).
    No trace is kept."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"batch has shape {X.shape}, expected (n, {net.layer_sizes[0]})"
        )
    n = X.shape[0]
    mz = np.hstack([X, np.ones((n, 1))])
    vz = np.zeros_like(mz)

    means, variances = weights(net)
    last = len(means) - 1
    for l, (m, v) in enumerate(zip(means, variances)):
        cols = m.shape[-1]
        ma = (mz @ m.T) / math.sqrt(cols)
        va = (vz @ (m * m).T + (mz * mz) @ v.T + vz @ v.T) / cols
        if l < last:
            b, _ = relu_moments(MomentVector(ma, va))
            mz = np.hstack([b.mean, np.ones((n, 1))])
            vz = np.hstack([b.variance, np.zeros((n, 1))])
    return ma[:, 0], va[:, 0]
