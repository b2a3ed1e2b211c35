"""Factored posterior state over network weights and precision hyperparameters.

The approximation is a product of one-dimensional Gaussians, one per weight,
times two Gamma distributions: one for the observation-noise precision and one
for the shared weight-prior precision. Weight marginals are stored as per-layer
mean/variance matrices whose column count includes the bias column.
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


@dataclass
class GammaDist:
    """Gamma distribution in shape/rate parametrization.

    rate == 0 is allowed only as the uninitialized uniform state.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0.0:
            raise ValueError(f"Gamma shape must be positive, got {self.shape}")
        if self.rate < 0.0:
            raise ValueError(f"Gamma rate must be nonnegative, got {self.rate}")


@dataclass
class LayerPosterior:
    """Per-layer matrices of weight means and variances, bias column included.

    In a PosteriorStack the matrices carry a leading runs axis.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if self.means.shape != self.variances.shape:
            raise ValueError(
                f"mean/variance shape mismatch: {self.means.shape} vs {self.variances.shape}"
            )

    @property
    def rows(self) -> int:
        return self.means.shape[-2]

    @property
    def cols(self) -> int:
        return self.means.shape[-1]


@dataclass
class NetworkPosterior:
    """Full approximate posterior: weight layers plus the two Gamma factors.

    A plain value object: share freely read-only, mutate from a single writer.
    """

    layers: list[LayerPosterior]
    gamma: GammaDist
    lam: GammaDist
    layer_sizes: list[int]


class PosteriorStack:
    """R independent posteriors of one architecture, updated in lockstep.

    Every run's weight means, layer after layer and row-major within a layer,
    fill one row of the (R, W) buffer `means`, and likewise the variances;
    each layer holds (R, rows, cols) views into the two buffers, so training
    updates them in place. Each run keeps its own two Gamma factors: `gamma`
    (noise precision) and `lam` (prior precision) are (2, R) buffers of
    shapes and rates, also updated in place. `workspace` holds the buffers of
    the update steps (a kernel.Step); the stack's first step builds it (see
    forward.workspace), and only the stack refers to it. `refresh` is the compiled EP refresh bound to the
    stack and the sites it last refreshed.
    """

    def __init__(self, means, variances, gamma, lam, layer_sizes):
        self.means = means
        self.variances = variances
        self.gamma = gamma
        self.lam = lam
        self.layer_sizes = layer_sizes
        self.layers = flat_layers(means, variances, layer_sizes)
        self.workspace = None
        self.refresh = None

    @classmethod
    def of(cls, nets: list[NetworkPosterior]) -> PosteriorStack:
        """Stack copies of networks that share one architecture."""
        means, variances = (
            np.stack(
                [np.concatenate([getattr(layer, name).ravel() for layer in net.layers]) for net in nets]
            )
            for name in ("means", "variances")
        )
        gamma, lam = (
            np.array([[g.shape for g in gammas], [g.rate for g in gammas]], dtype=float)
            for gammas in ([net.gamma for net in nets], [net.lam for net in nets])
        )
        return cls(means, variances, gamma, lam, list(nets[0].layer_sizes))

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

    def run(self, r: int) -> NetworkPosterior:
        """Run r as a network whose weight matrices are views into the stack.

        In-place writes to its weights land in the stack; its Gamma factors
        are the stack's at the time of the call.
        """
        return NetworkPosterior(
            layers=[LayerPosterior(layer.means[r], layer.variances[r]) for layer in self.layers],
            gamma=GammaDist(*self.gamma[:, r].tolist()),
            lam=GammaDist(*self.lam[:, r].tolist()),
            layer_sizes=list(self.layer_sizes),
        )


def flat_layers(means, variances, layer_sizes: list[int]) -> list[LayerPosterior]:
    """The layers whose weights are views into flat (*runs, W) buffers."""
    return [
        LayerPosterior(m, v)
        for m, v in zip(layer_views(means, layer_sizes), layer_views(variances, layer_sizes))
    ]


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


def new_uniform(layer_sizes: list[int]) -> NetworkPosterior:
    """Construct the uninformative starting state.

    All means are 0, all variances are the infinite-variance sentinel, and both
    Gamma factors are the uniform Gamma(1, 0).
    """
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output layer sizes")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    if layer_sizes[-1] != 1:
        raise ValueError(f"output layer must have exactly 1 unit, got {layer_sizes[-1]}")

    layers = []
    for v_in, v_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        shape = (v_out, v_in + 1)  # +1 bias column
        layers.append(
            LayerPosterior(
                means=np.zeros(shape),
                variances=np.full(shape, INFINITE_VARIANCE),
            )
        )
    return NetworkPosterior(
        layers=layers,
        gamma=GammaDist(shape=1.0, rate=0.0),
        lam=GammaDist(shape=1.0, rate=0.0),
        layer_sizes=list(layer_sizes),
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
    std = np.concatenate([
        np.full(layer.means[0].size, math.sqrt(1.0 / (layer.rows + 1))) for layer in stack.layers
    ])
    for r, rng in enumerate(rngs):
        stack.means[r] = rng.standard_normal(std.shape[0]) * std
