"""Factored posterior state over network weights and precision hyperparameters.

The approximation is a product of one-dimensional Gaussians, one per weight,
times two Gamma distributions: one for the observation-noise precision and one
for the shared weight-prior precision. Weight marginals are stored as per-layer
mean/variance matrices whose column count includes the bias column.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

# Uniform-state sentinel for "no information yet": exact, cannot overflow, and
# the first prior-factor incorporation resolves it through a closed-form limit.
INFINITE_VARIANCE = math.inf


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

    def mean(self) -> float:
        if self.rate <= 0.0:
            raise ValueError("mean undefined for the uniform (rate=0) state")
        return self.shape / self.rate


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

    def clone(self) -> NetworkPosterior:
        return copy.deepcopy(self)

    def n_weights(self) -> int:
        return sum(layer.means.size for layer in self.layers)


@dataclass
class PosteriorStack:
    """R independent posteriors of one architecture, updated in lockstep.

    Each layer holds the runs' weight matrices stacked as (R, rows, cols);
    each run keeps its own two Gamma factors.
    """

    layers: list[LayerPosterior]
    gammas: list[GammaDist]
    lams: list[GammaDist]
    layer_sizes: list[int]

    @classmethod
    def of(cls, nets: list[NetworkPosterior]) -> PosteriorStack:
        """Stack copies of networks that share one architecture."""
        first = nets[0]
        layers = [
            LayerPosterior(
                means=np.stack([net.layers[l].means for net in nets]),
                variances=np.stack([net.layers[l].variances for net in nets]),
            )
            for l in range(len(first.layers))
        ]
        return cls(
            layers=layers,
            gammas=[net.gamma for net in nets],
            lams=[net.lam for net in nets],
            layer_sizes=list(first.layer_sizes),
        )

    def n_weights(self) -> int:
        """Weights per run."""
        return sum(layer.rows * layer.cols for layer in self.layers)

    def run(self, r: int) -> NetworkPosterior:
        """Run r as a network whose weight matrices are views into the stack.

        In-place writes to its weights land in the stack; its Gamma factors
        go back with put_gammas.
        """
        return NetworkPosterior(
            layers=[LayerPosterior(layer.means[r], layer.variances[r]) for layer in self.layers],
            gamma=self.gammas[r],
            lam=self.lams[r],
            layer_sizes=list(self.layer_sizes),
        )

    def put_gammas(self, r: int, net: NetworkPosterior) -> None:
        """Store the Gamma factors of run r's view back into the stack."""
        self.gammas[r] = net.gamma
        self.lams[r] = net.lam


@dataclass
class PbpConfig:
    """Training configuration. Hyperprior defaults correspond to twelve
    pseudo-observations of unit empirical variance."""

    hidden_layer_sizes: tuple[int, ...] = (50,)
    epochs: int = 40
    prior_shape_lambda: float = 6.0
    prior_rate_lambda: float = 6.0
    prior_shape_gamma: float = 6.0
    prior_rate_gamma: float = 6.0
    seed: int = 0
    # Refresh the stored prior sites after this many likelihood updates.
    # None means once per full pass over the training data.
    refresh_every_n_examples: int | None = None

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


def perturb_means(net: NetworkPosterior, rng: np.random.Generator) -> NetworkPosterior:
    """Replace every weight mean with a draw from N(0, 1/(V_l + 1)).

    V_l is the layer's output-unit count (row count). Variances are untouched.
    Breaks the symmetry between hidden units before the first data pass; call
    once, right after the prior factors have been incorporated.
    """
    for layer in net.layers:
        std = math.sqrt(1.0 / (layer.rows + 1))
        layer.means[...] = rng.standard_normal(layer.means.shape) * std
    return net
