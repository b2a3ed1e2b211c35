"""Normalizer approximations, their gradients, and the ADF/EP update rules.

One likelihood or prior factor is folded into the posterior by moment-matching
the tilted distribution (factor x current posterior, normalized by Z):

  * Gaussian weight marginals move along the gradients of log Z.
  * The Gamma precision factors match the first two tilted moments of the
    precision, computed from Z evaluated at shape, shape+1, shape+2.

All Z bookkeeping stays in log space. Gradients of the likelihood log-Z with
respect to every weight mean and variance come from a hand-written
reverse-mode sweep over the moment maps of the forward pass.

A likelihood step's elementwise arithmetic, the Gamma chains included, runs
in kernel.c, bound to the stack's Workspace; numpy runs the matmuls of the
sweep (and, in the rectifier's far tail, powers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import forward_trace
from .kernel import LinearBackward, Rectifier, Refresh
from .posterior import NumericError, PosteriorStack


@dataclass
class RefreshReport:
    """Outcome of one EP sweep over the stored prior sites of a stack: totals
    over its runs, and each run's (sites skipped, max abs change)."""

    sites_visited: int
    sites_skipped: int
    max_abs_change: float
    runs: list[tuple[int, float]]


@dataclass
class UpdateOutcome:
    """Outcome of incorporating one likelihood factor per run of a stack:
    each field is an array with one entry per run."""

    skipped: np.ndarray
    undo_count: np.ndarray
    weight_updates: np.ndarray


def incorporate_all_prior_factors(stack: PosteriorStack) -> np.ndarray:
    """ADF-incorporate every weight's prior factor into a stack in the uniform
    start, in place, and return the prior sites of every run.

    The sites are one (4, R, W) array: per weight, in PosteriorStack order,
    the site's precision and precision x mean (a Gaussian in natural
    parameters, so the cavity is a subtraction) and its additive Gamma
    contribution to the prior precision (shape, rate). The incorporation is
    an EP sweep (ep_refresh_prior) over empty sites with every mean at 0:
    each cavity is flat, so each factor takes the flat limit of the
    refinement, the same for every weight of a run. The weight collapses onto
    the collapsed Gaussian prior, mean 0, variance b/(a-1) of the run's
    prior-precision Gamma(a, b); its site is that prior in natural
    parameters; and the Gamma is untouched (all Z ratios -> 1). The sweep's
    refresh stays bound to the sites returned. Raises ValueError on any other
    state; ZeroDivisionError where a Gamma shape of 1 divides by 0, and
    NumericError where the prior variance is 0, having written nothing.
    """
    if not np.isinf(stack.variances).all():
        raise ValueError("the prior factors are incorporated once, into the uniform state")
    means = stack.means.copy()
    stack.means[...] = 0.0
    sites = np.zeros((4, *stack.means.shape))
    try:
        ep_refresh_prior(stack, sites)
    except (ArithmeticError, NumericError):
        stack.means[...] = means
        raise
    return sites


def backward_gradients(stack: PosteriorStack, y: np.ndarray) -> None:
    """Gradients of the likelihood log Z w.r.t. every weight mean and variance.

    Seeds with d log Z / d(output moments) and walks the layers in reverse,
    applying the exact partial derivatives of the linear and rectifier moment
    maps as implemented in the forward pass, whose intermediates the stack's
    last forward_trace left in its workspace; y holds one target per run. The
    gradients go into the workspace: flat over all weights in d_means and
    d_variances, with per-layer (R, rows, cols) views.
    """
    ws = stack.workspace
    np.copyto(ws.noise.targets, y)
    ws.output_gradients()
    for l in range(len(stack.layers) - 1, -1, -1):
        _linear_backward(ws.linear_backward[l])
        if l > 0:
            _relu_backward(ws.rectifiers[l - 1])


def _linear_backward(kernel: LinearBackward) -> None:
    """Backward through ma = M mz / sqrt(c), va = [(M*M) vz + V (mz^2 + vz)] / c.

    kernel is bound to the layer's weights, its input moments (one row per
    run), the gradients (dma, dva) w.r.t. its output moments, and the weight
    gradients it writes. The input gradients (kernel.d_inputs) are formed
    for a layer with inputs, and not for the input layer (whose would go
    unused), which has no operand.
    """
    kernel.weights()
    if kernel.operand is None:
        return
    products = kernel.products
    np.matmul(kernel.dma, kernel.means, out=products[0])
    np.matmul(kernel.dva, kernel.variances, out=products[1])
    np.matmul(kernel.dva, kernel.operand, out=products[2])
    kernel.inputs()


def _relu_backward(rectifier: Rectifier) -> None:
    """Backward through the rectifier moment map, branch for branch.

    Differentiates the forward expressions exactly, including through the
    asymptotic series for the pdf/cdf ratio where that branch was taken, so
    finite differences of the implemented forward pass agree everywhere. The
    intermediates the forward pass formed are in the rectifier's buffers.
    """
    if rectifier.n_series:
        np.copyto(rectifier.inv_square, rectifier.alpha_s**-2)
        np.copyto(rectifier.inv_fourth, rectifier.alpha_s**-4)
    rectifier.backward()


def incorporate_likelihood_factors(
    stack: PosteriorStack, x: np.ndarray, y: np.ndarray
) -> UpdateOutcome:
    """Fold one observation per run into a stack: run r takes (x[r], y[r]).

    One probabilistic forward pass, one reverse gradient sweep, then the
    Gaussian refinement of every weight, in place, and the tilted-moment
    update of each run's noise-precision Gamma. Weights whose refined
    variance would be invalid are rolled back individually; a run whose log Z
    is not finite skips the example and keeps its weights. A run's arithmetic
    is that of a stack of that run alone, bit for bit.

    The log Z and Gamma step is kernel.c's noise_step, before the gradient
    sweep, whose noise variances come from the Gammas before the update. It
    raises ZeroDivisionError, having written nothing, where the sweep or the
    Gamma match would divide by 0 (a Gamma shape of 1 or a rate of 0).
    """
    forward_trace(stack, x)
    noise = stack.workspace.noise
    noise.y[...] = y
    skips = noise()
    skipped = noise.skipped.copy()
    if skips == len(skipped):
        none = np.zeros(len(skipped), dtype=int)
        return UpdateOutcome(skipped, none, none.copy())

    # The skipping runs' gradients are discarded; their targets are their
    # output means, whose zero residual keeps them finite.
    backward_gradients(stack, noise.targets)
    refine = stack.workspace.refine
    refine()
    return UpdateOutcome(skipped, refine.undo.copy(), refine.updates.copy())


def ep_refresh_prior(stack: PosteriorStack, sites: np.ndarray) -> RefreshReport:
    """One EP sweep over the stored prior sites of every run of a stack, the
    (4, R, W) array of incorporate_all_prior_factors, updated in place.

    Per weight, in order: remove the site (natural-parameter subtraction),
    redo the tilted moment-match against the cavity, and store the new site.
    Cavities with negative Gaussian precision are skipped, and so are those
    whose refined variance is invalid; a cavity with exactly zero precision
    (no likelihood information yet) takes the closed-form flat limit. Gamma
    cavities whose shape would not support the Gaussian collapse leave the
    precision factor untouched.

    The running prior-precision Gamma makes a run's sweep sequential; the
    sweep is kernel.c's ep_refresh, bound to the stack and sites on the first
    call with them. A zero weight variance, or a zero prior variance at a flat
    site, raises NumericError; nothing is written when anything raises.
    """
    refresh = stack.refresh
    if refresh is None or refresh.sites is not sites:
        refresh = stack.refresh = Refresh(stack.means, stack.variances, stack.lam, sites)
    refresh()
    skipped, change = refresh.skipped.tolist(), refresh.change.tolist()
    return RefreshReport(
        sites_visited=stack.means.size,
        sites_skipped=sum(skipped),
        max_abs_change=max(change),
        runs=list(zip(skipped, change)),
    )
