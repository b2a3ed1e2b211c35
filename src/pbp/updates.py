"""Normalizer approximations, their gradients, and the ADF/EP update rules.

One likelihood or prior factor is folded into the posterior by moment-matching
the tilted distribution (factor x current posterior, normalized by Z):

  * Gaussian weight marginals move along the gradients of log Z.
  * The Gamma precision factors match the first two tilted moments of the
    precision, computed from Z evaluated at shape, shape+1, shape+2.

All Z bookkeeping stays in log space. Gradients of the likelihood log-Z with
respect to every weight mean and variance come from a hand-written
reverse-mode sweep over the moment maps of the forward pass.

The likelihood steps of an epoch run in kernel.c, in one call through the
stack's workspace (a kernel.Step, see forward.workspace): per example the
forward pass, the noise-Gamma step, the reverse sweep and the refinement.
Its matmuls, log_ndtr, exp and powers call numpy's BLAS, scipy's log_ndtr
and numpy's ufunc loops from there; no Python runs between two examples.
The EP sweep over the prior sites is one kernel.c call (ep_refresh) over
the stack; a run group (forward.run_groups) is a stack of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import workspace
from .kernel import Refresh
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
    """Outcome of incorporating likelihood factors into a stack: each field
    is an array with one count per run, summed over the examples."""

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


def incorporate_likelihood_factors(
    stack: PosteriorStack, xs: np.ndarray, ys: np.ndarray
) -> UpdateOutcome:
    """Fold n observations per run into a stack, in sequence: in step t, run
    r takes (xs[t, r], ys[t, r]); xs has shape (n, R, d) and ys (n, R).

    Each step is one probabilistic forward pass, one reverse gradient sweep,
    then the Gaussian refinement of every weight, in place, and the
    tilted-moment update of each run's noise-precision Gamma. Weights whose
    refined variance would be invalid are rolled back individually; a run
    whose log Z is not finite skips the example and keeps its weights. The
    outcome counts each run's skipped examples, undone weights and weight
    updates.

    The log Z and Gamma step is kernel.c's noise_step, before the gradient
    sweep, whose noise variances come from the Gammas before the update. It
    raises ZeroDivisionError, having written nothing in that step, where the
    Gamma match would divide by 0 (a noise rate of 0); the steps before it
    stay done.

    A run's arithmetic is that of a stack of that run alone, bit for bit: a
    run whose noise shape is exactly 1.0 skips every example, in a stack as
    alone.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    ys = np.ascontiguousarray(ys, dtype=float)
    runs, d = stack.means.shape[0], stack.layer_sizes[0]
    if xs.ndim != 3 or xs.shape[1:] != (runs, d) or ys.shape != xs.shape[:2]:
        raise ValueError(
            f"inputs of shape {xs.shape} and targets of shape {ys.shape}, expected "
            f"{('n', runs, d)} and {('n', runs)}"
        )
    return UpdateOutcome(*workspace(stack).epoch(xs, ys))


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
