"""Log-domain Gaussian density helpers shared across the package."""

import math

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_log_density(x: float, mean: float, variance: float) -> float:
    """log N(x | mean, variance), variance > 0 (inf allowed, giving -inf)."""
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return -0.5 * (LOG_2PI + math.log(variance) + (x - mean) ** 2 / variance)

