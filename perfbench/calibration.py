"""Speed calibration of the measured CPU.

On a shared machine one CPU's speed drifts by tens of percent over tens of
seconds, and the drift of the two CPUs is uncorrelated, so neither longer runs
nor a probe on another CPU remove it. `SpeedProbe` runs a small fixed kernel on
the measured thread itself, from a SIGALRM handler 25 times a second (and
once around every timed span), and converts a raw duration into seconds at a
reference speed: each stretch between samples, minus the probe's own time,
scaled by KERNEL_REF_S over the kernel time measured at its start.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.04
# Kernel time that defines the reference speed; close to this machine's median.
KERNEL_REF_S = 0.4e-3

_M = np.linspace(-1.0, 1.0, 50 * 14).reshape(50, 14)
_Z = np.linspace(0.0, 1.0, 14)
_V = np.linspace(0.0, 1.0, 2000)


def kernel() -> float:
    """Fixed work shaped like the program's: small matrix-vector products,
    elementwise transcendental maps on short and longer vectors, and Python
    float arithmetic."""
    acc = 0.0
    for i in range(45):
        a = _M @ _Z
        acc += float(np.exp(-a * a).sum()) + math.sqrt(i + 1.0)
    for _ in range(20):
        acc += float(np.exp(_V)[-1])
    return acc


class SpeedProbe:
    """Samples the kernel time on the measured thread while active."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None
        kernel()  # the first call pays one-time costs; keep it out of the samples

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds at the reference speed of the span [start, end].

        The span is cut at every sample inside it; each piece, less the probe
        time in it, is scaled by KERNEL_REF_S over the kernel time of the
        sample that opens it (the last one before the span for the first
        piece), smoothed as the median of each sample and its neighbours. The
        span should be bracketed by `sample()` calls.
        """
        near = sorted(
            (t, d) for t, d in self.samples
            if start - self.interval_s <= t <= end + self.interval_s
        )
        kernel_s = [
            statistics.median(d for _, d in near[max(0, i - 1) : i + 2])
            for i in range(len(near))
        ]
        opening = [i for i, (t, _) in enumerate(near) if t < start]
        inside = [i for i, (t, _) in enumerate(near) if start <= t < end]
        pieces = [(start, opening[-1] if opening else 0, 0.0)]
        pieces += [(near[i][0], i, near[i][1]) for i in inside]
        cuts = [t for t, _, _ in pieces] + [end]
        return sum(
            (cuts[k + 1] - cuts[k] - probe) * KERNEL_REF_S / kernel_s[i]
            for k, (_, i, probe) in enumerate(pieces)
        )
