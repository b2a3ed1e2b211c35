"""Independent brute-force oracles used to validate the analytic paths.

Nothing here shares code with the moment propagation or the update rules:
forward moments are checked by sampling the network output, gradients by
central finite differences, and the Gamma tilted moments by 1-D quadrature on
a log-transformed axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from pbp.forward import forward_output_moments
from pbp.kernel import LOG_2PI
from pbp.posterior import PosteriorStack
from reference_prior import weights
from reference_update import GradientStore


class OracleError(Exception):
    """An oracle failed its own convergence or sanity check."""


@dataclass
class McEstimate:
    """Sample mean/variance of the network output with standard errors."""

    mean: float
    variance: float
    mean_se: float
    variance_se: float
    samples: int


def _sample_network_output(
    net: PosteriorStack, x: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the network output under count independent weight sets.

    Given a layer's input z, W z / sqrt(cols) with independent Gaussian
    weights is Gaussian with mean M z / sqrt(cols) and variance V z^2 / cols,
    independently across units, so each layer's pre-activations are drawn
    directly from that (the local reparameterization of Kingma, Salimans &
    Welling 2015, arXiv 1506.02557). It is exact in distribution, and draws
    one normal per unit instead of one per weight;
    _sample_network_output_by_weights draws the weights themselves.
    """
    z = np.tile(np.append(x, 1.0), (count, 1))
    means, variances = weights(net)
    last = len(means) - 1
    for l, (m, v) in enumerate(zip(means, variances)):
        mean = z @ m.T
        std = np.sqrt((z * z) @ v.T)
        a = (mean + std * rng.standard_normal(mean.shape)) / math.sqrt(m.shape[-1])
        if l < last:
            z = np.hstack([np.maximum(a, 0.0), np.ones((count, 1))])
    return a[:, 0]


def _sample_network_output_by_weights(
    net: PosteriorStack, x: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw weight sets from the posterior and run the deterministic network."""
    z = np.tile(np.append(x, 1.0), (count, 1))
    means, variances = weights(net)
    last = len(means) - 1
    for l, (m, v) in enumerate(zip(means, variances)):
        std = np.sqrt(v)
        w = m + std * rng.standard_normal((count, *m.shape))
        a = np.einsum("nrc,nc->nr", w, z) / math.sqrt(m.shape[-1])
        if l < last:
            b = np.maximum(a, 0.0)
            z = np.hstack([b, np.ones((count, 1))])
    return a[:, 0]


# (count, mean, M2, M3, M4) with Mk the k-th centred sum about the mean.
_Moments = tuple[int, float, float, float, float]


def _centred_moments(out: np.ndarray) -> _Moments:
    """Count, mean and centred sums M2, M3, M4 of one chunk of samples.

    The mean gets one correction pass, so a chunk of identical samples centres
    to exact zeros rather than to the rounding error of the first mean.
    """
    mean = float(out.mean())
    mean += float((out - mean).mean())
    d = out - mean
    d2 = d * d
    return out.size, mean, float(d2.sum()), float((d2 * d).sum()), float((d2 * d2).sum())


def _merge_moments(a: _Moments, b: _Moments) -> _Moments:
    """Pairwise update of (count, mean, M2, M3, M4) for the union of two sets.

    Chan, Golub & LeVeque (1979) for M2; Pébay, SAND2008-6212 (2008), for M3
    and M4. Only differences of means enter, never raw power sums.
    """
    na, ma, m2a, m3a, m4a = a
    nb, mb, m2b, m3b, m4b = b
    n = na + nb
    delta = mb - ma
    dn = delta / n
    mean = ma + nb * dn
    m2 = m2a + m2b + delta * dn * na * nb
    m3 = m3a + m3b + dn * dn * delta * na * nb * (na - nb) + 3 * dn * (na * m2b - nb * m2a)
    m4 = (
        m4a
        + m4b
        + dn**3 * delta * na * nb * (na * na - na * nb + nb * nb)
        + 6 * dn * dn * (na * na * m2b + nb * nb * m2a)
        + 4 * dn * (na * m3b - nb * m3a)
    )
    return n, mean, m2, m3, m4


def mc_forward_moments(
    net: PosteriorStack,
    x: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    chunk: int = 20000,
) -> McEstimate:
    """Monte-Carlo estimate of the output mean and variance under the posterior.

    Sampling runs in chunks of at most ``chunk`` draws, each on its own
    substream spawned from ``rng``. Each chunk contributes its count, mean and
    centred sums M2, M3 and M4; these are merged into running totals in
    substream order with the pairwise formulas of Chan, Golub & LeVeque (1979)
    for M2 and Pébay (SAND2008-6212, 2008) for M3 and M4. The variance and
    both standard errors come from the merged centred sums, so the estimate
    does not lose precision to a large output mean, and a net with zero weight
    variances gives zero variance and zero standard errors.

    ``chunk`` decides which samples are drawn, since it fixes the number of
    substreams and the draws on each: estimates at different ``chunk`` are
    different Monte-Carlo draws of the same quantities. For a given ``rng``
    state and ``chunk`` the merge order is fixed and the result is
    bit-reproducible.
    """
    if samples < 10_000:
        raise ValueError("use at least 10^4 samples for a meaningful oracle")
    n_chunks = math.ceil(samples / chunk)
    streams = rng.spawn(n_chunks)
    total = None
    remaining = samples
    for stream in streams:
        count = min(chunk, remaining)
        remaining -= count
        part = _centred_moments(_sample_network_output(net, x, count, stream))
        total = part if total is None else _merge_moments(total, part)

    n, mean, m2_sum, _, m4_sum = total
    m2 = m2_sum / n
    m4 = m4_sum / n
    variance = m2_sum / (n - 1)
    mean_se = math.sqrt(m2 / n)
    # m4 >= m2^2 holds exactly; rounding can dip below it when the samples
    # take (nearly) two values or one, where the true gap is zero.
    variance_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
    return McEstimate(mean, variance, mean_se, variance_se, samples)


def fd_logz_gradients(
    net: PosteriorStack, x: np.ndarray, y: float, step: float = 1e-5
) -> GradientStore:
    """Central finite differences of the likelihood log Z per weight parameter.

    Step size is relative: h = step * max(1, |theta|), clipped for variances so
    the downward evaluation stays positive.
    """

    shape, rate = net.gamma[:, 0].tolist()

    def logz(n: PosteriorStack) -> float:
        # log N(y | mz, noise + vz), the noise precision's Gamma collapsed.
        mz, vz = forward_output_moments(n, x[None, None, :])
        mz, vz = mz[0, 0], vz[0, 0]
        var = rate / (shape - 1.0) + vz
        return -0.5 * (LOG_2PI + math.log(var) + (y - mz) ** 2 / var)

    work = net.take([0])
    d_means, d_variances = [], []
    for means, variances in zip(*weights(work)):
        dm = np.zeros_like(means)
        dv = np.zeros_like(variances)
        rows, cols = means.shape
        for i in range(rows):
            for j in range(cols):
                theta = means[i, j]
                h = step * max(1.0, abs(theta))
                means[i, j] = theta + h
                up = logz(work)
                means[i, j] = theta - h
                down = logz(work)
                means[i, j] = theta
                dm[i, j] = (up - down) / (2 * h)

                theta = variances[i, j]
                h = min(step * max(1.0, abs(theta)), 0.5 * theta)
                if h <= 0.0:
                    raise OracleError(f"variance step underflow at {theta}")
                variances[i, j] = theta + h
                up = logz(work)
                variances[i, j] = theta - h
                down = logz(work)
                variances[i, j] = theta
                dv[i, j] = (up - down) / (2 * h)
        d_means.append(dm)
        d_variances.append(dv)
    return GradientStore(d_means, d_variances)


def gamma_tilted_moments_quadrature(
    g: tuple[float, float], factor, rel_tol: float = 1e-9
) -> tuple[float, float]:
    """First two moments of s(x) ∝ factor(x) * Gamma(x | shape, rate), g
    the (shape, rate) pair.

    Integrates on t = log x so both tails decay at least exponentially; each
    integral is shifted by its own maximum to stay in range. factor must be
    positive and integrable against the Gamma density.
    """
    a, b = g
    if b <= 0.0:
        raise ValueError("quadrature needs a proper Gamma (rate > 0)")
    t0 = math.log(a / b)
    lo, hi = t0 - 70.0, t0 + 70.0
    log_gamma_const = a * math.log(b) - gammaln(a)

    def log_integrand(t: float, k: int) -> float:
        lam = math.exp(t)
        f = factor(lam)
        if f < 0.0:
            raise OracleError("factor must be nonnegative")
        if f == 0.0:
            return -math.inf
        # log Gamma pdf + log-axis Jacobian contributes a*t - b*lam.
        return k * t + math.log(f) + log_gamma_const + a * t - b * lam

    grid = np.linspace(lo, hi, 512)
    results = []
    for k in (0, 1, 2):
        shift = max(log_integrand(t, k) for t in grid)
        if not math.isfinite(shift):
            raise OracleError("integrand vanished everywhere on the grid")
        val, err = quad(
            lambda t: math.exp(log_integrand(t, k) - shift),
            lo,
            hi,
            epsabs=0.0,
            epsrel=rel_tol,
            limit=400,
        )
        if val <= 0.0 or err > 10 * rel_tol * val:
            raise OracleError(f"non-convergent integral (k={k}, val={val}, err={err})")
        results.append((shift, val))

    (c0, i0), (c1, i1), (c2, i2) = results
    first = math.exp(c1 - c0) * i1 / i0
    second = math.exp(c2 - c0) * i2 / i0
    return first, second
