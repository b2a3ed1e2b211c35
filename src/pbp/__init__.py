"""Bayesian neural network regression by probabilistic backpropagation.

Per-weight Gaussian posteriors are maintained by assumed density filtering:
probabilities propagate forward through the network, gradients of the marginal
likelihood propagate back, and each observation refines every weight's mean
and variance in closed form. Gamma posteriors track the observation-noise and
weight-prior precisions, and stored approximate prior factors get one
expectation-propagation refresh per data pass.
"""

from .active import ActiveConfig, acquire_next, run_active_experiments
from .data import (
    DataError,
    Dataset,
    NormStats,
    load_csv,
    load_model,
    normalize,
    save_model,
    split,
)
from .forward import MomentVector, forward_output_moments
from .posterior import (
    GammaDist,
    LayerPosterior,
    NetworkPosterior,
    NumericError,
    PbpConfig,
    PosteriorStack,
    new_uniform,
    perturb_means,
)
from .prediction import (
    TrainedModel,
    noise_floor,
    predict_batch,
    test_metrics,
)
from .training import SkipRateError, TrainReport, train, train_runs
from .updates import ep_refresh_prior, incorporate_likelihood_factors

__version__ = "0.1.0"
