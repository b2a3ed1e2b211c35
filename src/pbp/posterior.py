"""Factored posterior state over network weights and precision hyperparameters.

The approximation is a product of one-dimensional Gaussians, one per weight,
times two Gamma distributions: one for the observation-noise precision and one
for the shared weight-prior precision. A PosteriorStack holds R such
posteriors of one architecture; a lone network is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Uniform-state sentinel for "no information yet": exact, cannot overflow, and
# resolved by the first prior incorporation, in refresh_run's flat-cavity branch.
INFINITE_VARIANCE = math.inf


class NumericError(ValueError):
    """The arithmetic of the approximation failed (a negative variance, say),
    as opposed to the input being invalid."""


class PosteriorStack:
    """R independent posteriors of one architecture, updated in lockstep.

    Every run's weight means, layer after layer and row-major within a layer,
    fill one row of the (R, W) buffer `means`, and likewise the variances;
    layer_views gives each layer's (R, rows, cols) views into the two
    buffers, and training updates them in place. Each run keeps its own two Gamma factors: `gamma`
    (noise precision) and `lam` (prior precision) are (2, R) buffers of
    shapes and rates, also updated in place. `workspace` holds the buffers of
    the update steps (a kernel.Step), and `groups` those of its run groups,
    a kernel.Step each, where an epoch runs in groups; the stack's first step
    builds them (see forward.workspace and forward.run_groups), and only the
    stack refers to them. `refresh` is the compiled EP refresh bound to the
    stack and the sites it last refreshed.
    """

    def __init__(self, means, variances, gamma, lam, layer_sizes):
        self.means = means
        self.variances = variances
        self.gamma = gamma
        self.lam = lam
        self.layer_sizes = layer_sizes
        self.workspace = None
        self.groups = None
        self.refresh = None

    def take(self, runs: np.ndarray) -> PosteriorStack:
        """A stack of copies of the given runs, in that order, in C-contiguous
        buffers as a step binds them."""
        return PosteriorStack(
            self.means[runs], self.variances[runs], self.gamma.take(runs, axis=1),
            self.lam.take(runs, axis=1), self.layer_sizes,
        )

    def n_weights(self) -> int:
        """Weights per run."""
        return self.means.shape[-1]


def layer_views(flat: np.ndarray, layer_sizes: list[int]) -> list[np.ndarray]:
    """Each layer's (*runs, rows, cols) view into a (*runs, W) weight buffer."""
    views, start = [], 0
    for v_in, v_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        shape = (v_out, v_in + 1)  # +1 bias column
        stop = start + shape[0] * shape[1]
        views.append(flat[..., start:stop].reshape(flat.shape[:-1] + shape, copy=False))
        start = stop
    if start != flat.shape[-1]:
        raise ValueError(f"{flat.shape[-1]} weights for layer sizes {layer_sizes}")
    return views


# (shape, rate) of the Gamma hyperprior on both the noise precision and the
# weight-prior precision, as in the paper: twelve pseudo-observations of unit
# empirical variance.
HYPERPRIOR = (6.0, 6.0)


@dataclass
class PbpConfig:
    """Training configuration."""

    hidden_layer_sizes: tuple[int, ...] = (50,)
    epochs: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if any(h <= 0 for h in self.hidden_layer_sizes):
            raise ValueError("hidden layer sizes must be positive")


def new_uniform(layer_sizes: list[int], runs: int = 1) -> PosteriorStack:
    """Construct a stack of runs in the uninformative starting state.

    All means are 0, all variances are the infinite-variance sentinel, and both
    Gamma factors of every run are the uniform Gamma(1, 0).
    """
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output layer sizes")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    if layer_sizes[-1] != 1:
        raise ValueError(f"output layer must have exactly 1 unit, got {layer_sizes[-1]}")

    weights = sum((v_in + 1) * v_out for v_in, v_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    uniform = np.array([[1.0], [0.0]]).repeat(runs, axis=1)
    return PosteriorStack(
        np.zeros((runs, weights)), np.full((runs, weights), INFINITE_VARIANCE),
        uniform, uniform.copy(), list(layer_sizes),
    )


def perturb_means(stack: PosteriorStack, rngs: list[np.random.Generator]) -> None:
    """Replace every weight mean of run r of a stack with a draw from
    N(0, 1/(V_l + 1)), from rngs[r], in place.

    V_l is the layer's output-unit count (row count). Variances are untouched.
    Breaks the symmetry between hidden units before the first data pass; call
    once, right after the prior factors have been incorporated. Each run
    draws its weights in PosteriorStack order, layer after layer, as a lone
    run does.
    """
    std = np.empty(stack.means.shape[-1])
    for view, v_out in zip(layer_views(std, stack.layer_sizes), stack.layer_sizes[1:]):
        view[...] = math.sqrt(1.0 / (v_out + 1))
    for r, rng in enumerate(rngs):
        stack.means[r] = rng.standard_normal(std.shape[0]) * std
