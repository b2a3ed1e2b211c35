"""kernel.c against the Python-float kernel it replaced (`reference_prior`),
and its build.

The likelihood step and the EP refresh must give the bits of the frozen
`_likelihood_triple`, `_gamma_moments` and `_refresh_run` (through
`refresh_by_floats`): log-normalizers, skip flags, Gamma shapes and rates,
weights, sites and changes. Where those raised, the kernel raises the same
exception type and leaves every buffer as it was. Of the four raise sites,
two cannot be reached from any input: `math.log`'s argument is a collapsed
variance, checked positive before the log in the likelihood step and at
least the cavity variance (positive) in the refresh; and in the refresh a
squared cavity mean that overflows makes the refined variance infinite or
NaN (or the step divides by zero first), so the site is skipped before it is
squared. The likelihood step skips the example whose square overflows.
"""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbp
import pbp.kernel as kernel
import reference_prior as ref
from conftest import incorporate_one_run, likelihood_step, one_step, refresh_one_run, toy_cubic_dataset
from pbp.data import normalize
from pbp.posterior import GammaDist, NumericError, PbpConfig, PosteriorStack
from pbp.training import train_runs
from pbp.updates import ep_refresh_prior, incorporate_all_prior_factors
from test_batched_engine import fuzz_step_case
from test_prior_kernel import (
    LIKELIHOOD_CASES,
    _bits,
    assert_refused,
    assert_same,
    one_layer,
    same_report,
    trained,
    uniform,
)

# ------------------------------------------------------------- fuzz tests


def fuzz_likelihood_cases(n: int, seed: int):
    """n seeded (y, mz, vz, (shape, rate)) cases: ordinary draws, and on about
    a twentieth each, a target, output mean, output variance, shape or rate
    from the edges (overflowing and non-finite residuals, zero, negative and
    non-finite variances, shapes at and below 1 and huge, extreme rates). No
    rate is 0 and no shape exactly 1: those raise (see the parity tests)."""
    rng = np.random.default_rng(seed)
    y, mz = rng.normal(0.0, 3.0, (2, n))
    vz = rng.uniform(0.0, 2.0, n)
    shape = 1.0 + rng.exponential(5.0, n)
    rate = rng.uniform(0.01, 40.0, n)
    edges = [
        (y, [1e150, -1.3e154, 1.4e154, 1e160, -1e200, math.inf, -math.inf, math.nan]),
        (mz, [1e160, -1e160, math.inf, math.nan]),
        (vz, [0.0, -0.0, -0.1, 5e-324, 1e300, math.inf, math.nan]),
        (shape, [0.5, 1e-3, 1.0 + 2.0**-52, 1.0 + 1e-10, 1e20, math.inf]),
        (rate, [5e-324, 1e-300, 1e300, 1.7e308]),
    ]
    for values, edge in edges:
        pick = rng.random(n) < 0.05
        values[pick] = rng.choice(edge, pick.sum())
    shape[shape == 1.0] = 2.0
    return list(zip(y.tolist(), mz.tolist(), vz.tolist(), zip(shape.tolist(), rate.tolist())))


def test_likelihood_step_matches_the_float_kernel_on_fuzzed_cases():
    cases = list(LIKELIHOOD_CASES) + fuzz_likelihood_cases(100_000, 13)
    step = likelihood_step(cases)
    log_z, gamma_next = step.log_z.T.tolist(), step.gamma_next.T.tolist()
    kinds = set()
    for r, (y, mz, vz, (a, b)) in enumerate(cases):
        triple = ref._likelihood_triple(y, mz, vz, GammaDist(a, b))
        assert step.skipped[r] == (triple is None), r
        refined = None if triple is None else ref._gamma_moments(a, b, *triple)
        if triple is not None:
            assert _bits(log_z[r]) == _bits(triple), r
        assert _bits(gamma_next[r]) == _bits(refined or (a, b)), r
        kinds.add("skipped" if triple is None else "rejected" if refined is None else "refined")
    assert kinds == {"skipped", "rejected", "refined"}


def stack_of(nets, sites):
    return PosteriorStack.of(nets), np.stack(sites, axis=1)


def trained_stack(features, hidden, seed):
    """Three runs of a trained features-hidden-1 stack and its sites."""
    datasets = []
    for r in range(3):
        ds = toy_cubic_dataset(40, seed + r)
        rng = np.random.default_rng(seed + r)
        mixed = rng.normal(size=(40, features)) + ds.features
        datasets.append(normalize(type(ds)(mixed, ds.targets))[0])
    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=3)
    out = train_runs(datasets, cfg, [np.random.default_rng(seed + 10 + r) for r in range(3)])
    return stack_of([net for net, _, _ in out], [sites for _, sites, _ in out])


def fuzz_sites(stack, sites, rng):
    """Move a few sites of every run to the refresh's branches: cavities
    negative, flat and nearly flat, Gamma cavities that do not support the
    collapse, inflated Gamma sites, tiny and huge variances."""
    runs, weights = stack.means.shape
    m, v = stack.means, stack.variances
    p_site, eta_site, a_site, b_site = sites
    for r in range(runs):
        k = rng.choice(weights, size=8 * 6, replace=False).reshape(6, 8)
        p_site[r, k[0]] = 1.0 / v[r, k[0]] + rng.uniform(0.1, 5.0, 8)
        p_site[r, k[1]] = 1.0 / v[r, k[1]]
        p_site[r, k[2]] = np.nextafter(1.0 / v[r, k[2]], 0.0)
        a_site[r, k[3]] = stack.lam[0, r] - rng.uniform(0.0, 1.0, 8)
        b_site[r, k[4]] = rng.choice([-1e20, stack.lam[1, r], 1e-3], 8)
        v[r, k[5]] = rng.choice([1e-170, 1e-12, 1e150], 8)
        m[r, k[5]] = rng.normal(0.0, 1e3, 8)
        eta_site[r, k[5]] = 0.0


@pytest.mark.parametrize("features, hidden, seed", [(6, (10,), 5), (13, (50,), 6)])
def test_refresh_matches_the_float_kernel_on_fuzzed_trained_stacks(features, hidden, seed):
    stack, sites = trained_stack(features, hidden, seed)
    rng = np.random.default_rng(seed)
    for sweep in range(4):
        if sweep % 2:
            fuzz_sites(stack, sites, rng)
        want_stack = PosteriorStack(
            *(a.copy() for a in (stack.means, stack.variances, stack.gamma, stack.lam)),
            stack.layer_sizes,
        )
        want_sites = sites.copy()
        want = ref.refresh_by_floats(want_stack, want_sites)
        got = ep_refresh_prior(stack, sites)
        assert same_report(got, want), sweep
        for name in ("means", "variances", "lam"):
            assert _bits(getattr(stack, name)) == _bits(getattr(want_stack, name)), (sweep, name)
        assert _bits(sites) == _bits(want_sites), sweep
    assert 0 < want.sites_skipped < want.sites_visited


# ------------------------------------------- the build and its pinned flags


def test_pinned_flags_keep_the_squared_cavity_mean_a_libm_power(monkeypatch):
    # test_prior_kernel's test_squared_cavity_mean_is_a_python_power, through
    # the kernel as built and through a build without -fno-builtin, in which
    # gcc folds pow(m, 2.0) into m * m and the refined Gamma moves.
    m = 0.7248364021613508

    def refreshed():
        return one_layer([(m, 1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)])

    assert_same(refresh_one_run, ref.ep_refresh_prior, *refreshed())
    folded = tuple(flag for flag in kernel.FLAGS if flag != "-fno-builtin")
    monkeypatch.setattr(kernel, "LIB", kernel.load(kernel.build(folded)))
    with pytest.raises(AssertionError):
        assert_same(refresh_one_run, ref.ep_refresh_prior, *refreshed())


def has_fma() -> bool:
    cpuinfo = Path("/proc/cpuinfo")
    return cpuinfo.exists() and "fma" in cpuinfo.read_text().split()


def stepped(cases) -> list[bytes]:
    """The bits of each case's weights, Gammas and undo counts after one
    likelihood step on a stack of copies of its nets."""
    out = []
    for nets, xs, ys in cases:
        stack = PosteriorStack.of([copy.deepcopy(net) for net in nets])
        outcome = one_step(stack, xs, ys)
        arrays = (stack.means, stack.variances, stack.gamma, outcome.undo_count)
        out.append(b"".join(np.asarray(a).tobytes() for a in arrays))
    return out


@pytest.mark.skipif(not has_fma(), reason="the CPU has no fused multiply-add")
def test_pinned_flags_keep_products_unfused(monkeypatch):
    # A build that contracts a * b + c into fused multiply-adds moves the
    # bits of a refresh and of likelihood steps (the fuzzed cases of
    # test_batched_engine), which the build as pinned keeps (see above and
    # there).
    stack, sites = trained_stack(6, (10,), 5)
    fused_stack, fused_sites = stack_of([stack.run(r) for r in range(3)], list(sites.swapaxes(0, 1)))
    ep_refresh_prior(stack, sites)
    rng = np.random.default_rng(1401)
    cases = [fuzz_step_case(rng) for _ in range(20)]
    pinned = stepped(cases)
    fused = tuple(f.replace("-ffp-contract=off", "-ffp-contract=fast") for f in kernel.FLAGS)
    monkeypatch.setattr(kernel, "LIB", kernel.load(kernel.build((*fused, "-mfma"))))
    ep_refresh_prior(fused_stack, fused_sites)
    assert _bits(fused_stack.means) + _bits(fused_sites) != _bits(stack.means) + _bits(sites)
    assert any(a != b for a, b in zip(pinned, stepped(cases)))


def python(args, tmp_path, path_env):
    """Run the interpreter on args with PATH path_env, an empty cache under
    tmp_path unless one is there, and pbp importable; its completed process."""
    env = dict(os.environ)
    env.update(
        PATH=path_env,
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        TMPDIR=str(tmp_path / "tmp"),
        PYTHONPATH=str(Path(pbp.__file__).parent.parent),
    )
    (tmp_path / "tmp").mkdir(exist_ok=True)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )


def test_without_a_compiler_only_a_cached_build_loads(tmp_path):
    message = "CompilerError: pbp builds its kernel with the C compiler 'gcc' on first import"
    for args in (["-c", "import pbp"], ["-m", "pbp.cli", "train", "--data", "x.csv", "--out", "m.json"]):
        cold = python(args, tmp_path, "")
        assert cold.returncode != 0
        # One line, naming the compiler, and no traceback.
        assert cold.stderr.startswith(message)
        assert len(cold.stderr.strip().splitlines()) == 1

    warm = python(["-c", "import pbp"], tmp_path, os.environ.get("PATH", ""))
    assert warm.returncode == 0, warm.stderr
    [build] = (tmp_path / "cache" / "pbp").glob("kernel-*.so")
    offline = python(["-c", "import pbp.kernel as k; print(k.LIB._name)"], tmp_path, "")
    assert offline.returncode == 0, offline.stderr
    assert offline.stdout.strip() == str(build)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(lambda sites: sites[:, :, :-1], id="short"),
        pytest.param(lambda sites: np.asfortranarray(sites), id="not-c-contiguous"),
        pytest.param(lambda sites: sites.astype(np.float32), id="float32"),
    ],
)
def test_refresh_refuses_sites_it_cannot_address(bad):
    stack, sites = trained_stack(6, (10,), 5)
    before = snapshot(stack, sites)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        ep_refresh_prior(stack, bad(sites))
    assert snapshot(stack, sites) == before


# -------------------------------------------------------- exception parity


def snapshot(stack, sites=None):
    arrays = [stack.means, stack.variances, stack.gamma, stack.lam]
    return [_bits(a) for a in arrays + ([] if sites is None else [sites])]


def refused_by_both(stack, sites, error):
    """The kernel's refresh and the float kernel's both raise error, and
    leave the stack and sites as they were."""
    before = snapshot(stack, sites)
    for refresh in (ep_refresh_prior, ref.refresh_by_floats):
        with pytest.raises(error):
            refresh(stack, sites)
        assert snapshot(stack, sites) == before


def test_refresh_dividing_by_a_gamma_shape_of_one_raises_zero_division():
    # Run 1's Gamma cavity (1, 6) does not support the collapse, so its own
    # Gamma fits, and b / (a - 1) divides by 0; run 0, refreshed first, is
    # put back.
    stack, sites = trained_stack(6, (10,), 5)
    stack.lam[:, 1] = (1.0, 6.0)
    sites[2:, 1] = 0.0
    refused_by_both(stack, sites, ZeroDivisionError)


@pytest.mark.parametrize(
    "variance",
    [pytest.param(2.0, id="zero-total"), pytest.param(3e-170, id="total-squared-underflows")],
)
def test_refresh_dividing_by_a_zero_total_variance_raises_zero_division(variance):
    # A prior shape below 1 gives the prior variance b / (a - 1) = -2b, which
    # cancels the cavity variance (zero-total) or leaves a total whose square
    # underflows to 0.
    rate = 1.0 if variance == 2.0 else 1e-170
    net, sites = one_layer([(0.3, 1.0, 0.0, 0.0, 0.0, 0.0), (0.1, variance, 0.0, 0.0, 0.0, 0.0)])
    net.lam = GammaDist(0.5, rate)
    stack = PosteriorStack.of([net])
    refused_by_both(stack, sites.flat[:, None].copy(), ZeroDivisionError)


def test_refresh_at_a_flat_site_with_zero_prior_variance_raises_numeric_error():
    net, sites = one_layer([(0.3, 1.0, 0.0, 0.0, 0.0, 0.0), (0.3, 1.2, 1.0 / 1.2, 0.0, 0.0, 0.0)])
    net.lam = GammaDist(10.0, 5e-324)
    stack = PosteriorStack.of([net])
    refused_by_both(stack, sites.flat[:, None].copy(), NumericError)


def step_stack(gammas):
    net, _ = trained((4,))
    stack = PosteriorStack.of([net] * len(gammas))
    stack.gamma[...] = np.array(gammas, dtype=float).T
    return stack


@pytest.mark.parametrize(
    "gammas",
    [
        # The float kernel's backward pass divided by shape - 1 for every run
        # once one run was not skipped.
        pytest.param([(6.0, 6.0), (1.0, 6.0)], id="noise-shape-one"),
        # Its Gamma match divided by the rate of a run not skipped.
        pytest.param([(6.0, 6.0), (6.0, 0.0)], id="noise-rate-zero"),
    ],
)
def test_likelihood_step_dividing_by_zero_raises_before_any_write(gammas):
    stack = step_stack(gammas)
    x = np.full((len(gammas), 1), 0.4)
    y = np.full(len(gammas), 0.3)
    before = snapshot(stack)
    with pytest.raises(ZeroDivisionError):
        one_step(stack, x, y)
    assert snapshot(stack) == before
    if gammas[1][1] == 0.0:
        triple = ref._likelihood_triple(0.3, 0.1, 0.5, GammaDist(*gammas[1]))
        with pytest.raises(ZeroDivisionError):
            ref._gamma_moments(*gammas[1], *triple)


def test_likelihood_step_with_only_unusable_runs_skips_them():
    # A Gamma shape of 1 skips the example; with no run left there is no
    # backward pass, and nothing divides by shape - 1.
    stack = step_stack([(1.0, 6.0)])
    before = snapshot(stack)
    outcome = one_step(stack, np.full((1, 1), 0.4), np.full(1, 0.3))
    assert outcome.skipped.tolist() == [True]
    assert snapshot(stack) == before


def test_first_incorporation_with_a_gamma_shape_of_one_raises_zero_division():
    net, sites = uniform([2, 3, 1], (1.0, 6.0))
    assert_refused(incorporate_one_run, ZeroDivisionError, net, sites)
    with pytest.raises(ZeroDivisionError):
        ref.incorporate_all_prior_factors(copy.deepcopy(net), copy.deepcopy(sites))


def test_first_incorporation_with_a_zero_prior_rate_raises_numeric_error():
    # The prior variance b / (a - 1) is 0 in run 1, and the flat limit of the
    # sweep refuses it; run 0, incorporated first, is put back, and so are
    # the means the sweep set to 0.
    net, _ = uniform([2, 3, 1], (6.0, 6.0))
    stack = PosteriorStack.of([net, net])
    stack.lam[1, 1] = 0.0
    stack.means[0] = -0.7
    before = snapshot(stack)
    with pytest.raises(NumericError, match="prior variance underflows to 0 at a flat prior site"):
        incorporate_all_prior_factors(stack)
    assert snapshot(stack) == before
