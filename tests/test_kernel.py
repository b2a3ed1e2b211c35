"""kernel.c against the Python-float kernel it replaced (`reference_prior`),
its build, its fixed numbers and the ctypes mirrors of its structs.

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
import ctypes
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import pbp
import pbp.forward as forward
import pbp.kernel as kernel
import reference_prior as ref
import reference_update
from reference_update import MomentVector
import test_forward
from conftest import (
    incorporate_one_run, likelihood_step, one_step, random_net, refresh_one_run, relu_moments,
    toy_cubic_dataset,
)
from pbp.data import Dataset, normalize
from pbp.posterior import GammaDist, NumericError, PbpConfig, PosteriorStack, layer_views
from pbp.kernel import DETERMINISTIC_VARIANCE, SERIES_THRESHOLD
from pbp.training import train_runs
from pbp.updates import ep_refresh_prior, incorporate_all_prior_factors
from test_batched_engine import assert_step_matches_reference, fuzz_step_case
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
    rate is 0: that raises (see the parity tests)."""
    rng = np.random.default_rng(seed)
    y, mz = rng.normal(0.0, 3.0, (2, n))
    vz = rng.uniform(0.0, 2.0, n)
    shape = 1.0 + rng.exponential(5.0, n)
    rate = rng.uniform(0.01, 40.0, n)
    edges = [
        (y, [1e150, -1.3e154, 1.4e154, 1e160, -1e200, math.inf, -math.inf, math.nan]),
        (mz, [1e160, -1e160, math.inf, math.nan]),
        (vz, [0.0, -0.0, -0.1, 5e-324, 1e300, math.inf, math.nan]),
        (shape, [0.5, 1e-3, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-10, 1e20, math.inf]),
        (rate, [5e-324, 1e-300, 1e300, 1.7e308]),
    ]
    for values, edge in edges:
        pick = rng.random(n) < 0.05
        values[pick] = rng.choice(edge, pick.sum())
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
    rngs = [np.random.default_rng(seed + 10 + r) for r in range(3)]
    stack, sites, _ = train_runs(Dataset.of(datasets), cfg, rngs)
    return stack_of([stack.run(r) for r in range(3)], list(sites.swapaxes(0, 1)))


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
    """The bits of each case's weights, Gammas and counts (skipped, undone,
    updated) after one likelihood step on a stack of copies of its nets."""
    out = []
    for nets, xs, ys in cases:
        stack = PosteriorStack.of([copy.deepcopy(net) for net in nets])
        outcome = one_step(stack, xs, ys)
        counts = (outcome.skipped, outcome.undo_count, outcome.weight_updates)
        arrays = (stack.means, stack.variances, stack.gamma, *counts)
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


def kernel_bits(rows_pass) -> list[bytes]:
    """The bits of what kernel.c computes through the build kernel.LIB holds:
    50 fuzzed likelihood steps; a stack's training and an EP refresh of its
    fuzzed sites; and the output moments of rows_pass, a (nets, rows) pair."""
    rng = np.random.default_rng(2002)
    out = stepped([fuzz_step_case(rng) for _ in range(50)])
    stack, sites = trained_stack(6, (10,), 5)
    fuzz_sites(stack, sites, rng)
    report = ep_refresh_prior(stack, sites)
    out += [_bits(a) for a in (stack.means, stack.variances, stack.lam, sites)]
    out.append(repr(report).encode())
    nets, X = rows_pass
    out += [a.tobytes() for a in forward.forward_output_moments(PosteriorStack.of(nets), X)]
    return out


def test_host_tuned_build_gives_the_bits_of_the_baseline_build(monkeypatch):
    # The kernel as built for this CPU against a build for the baseline
    # target of the compiler: vector instructions round as the scalar ones,
    # and products stay unfused.
    assert "-march=native" in kernel.FLAGS
    monkeypatch.setattr(forward, "BLOCK_ROWS", 64)
    rng = np.random.default_rng(2003)
    # Hidden unit 0 takes the deterministic and far-tail branches on both
    # sides of every item boundary (see test_forward), unit 1 is
    # deterministic with a mean of +-0 and unit 2 has alpha +-0.
    nets, X = test_forward.TestOneRectifierCallPerItem.nets_and_rows(2, 3 * 64 + 7, 50, rng)
    for net in nets:
        hidden = net.layers[0]
        hidden.means[1], hidden.variances[1], hidden.means[2] = 0.0, 0.0, -0.0
    tuned = kernel_bits((nets, X))
    baseline = tuple(flag for flag in kernel.FLAGS if flag != "-march=native")
    monkeypatch.setattr(kernel, "LIB", kernel.load(kernel.build(baseline)))
    assert kernel_bits((nets, X)) == tuned


def test_a_build_for_other_cpu_features_is_neither_loaded_nor_globbed(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    features = kernel.host_features()
    monkeypatch.setattr(kernel, "host_features", lambda: "other " + features)
    elsewhere = kernel.build()
    monkeypatch.setattr(kernel, "host_features", lambda: features)
    # With a compiler, this CPU gets a build of its own ...
    here = kernel.build()
    assert here != elsewhere and here.parent == elsewhere.parent
    assert here.exists() and elsewhere.exists()
    # ... and without one it loads that build, or none.
    monkeypatch.setattr(kernel, "COMPILER", "no-such-compiler")
    assert kernel.build() == here
    here.unlink()
    with pytest.raises(kernel.CompilerError, match="nor a cached build"):
        kernel.build()


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


# The struct of kernel.c that each ctypes mirror of kernel.py stands for.
# _UFuncHead mirrors the head of numpy's PyUFuncObject, not a struct of
# kernel.c.
C_STRUCTS = {
    "_NoiseArgs": "noise_args", "_RefreshArgs": "refresh_args", "_ReluArgs": "relu_args",
    "_Externals": "externals", "_LayerArgs": "step_layer", "_StepArgs": "step_args",
    "_EpochArgs": "epoch_args", "_RowsArgs": "rows_args", "_ReadArgs": "read_args",
}


# kernel.c's statuses, each by the message of the error kernel._ERRORS
# raises for it.
C_STATUSES = {
    "ZERO_DIVISION": "float division by zero",
    "OVERFLOW": "a squared value overflows",
    "ZERO_WEIGHT_VARIANCE": "zero weight variance: its prior-site cavity is undefined",
    "ZERO_PRIOR_VARIANCE": "prior variance underflows to 0 at a flat prior site",
    "NEGATIVE_VARIANCE": "negative pre-activation variance (upstream bug)",
}


def layout_asserts(mirrors: dict[str, str]) -> str:
    """C that includes kernel.c and asserts, at compile time, that each
    ctypes mirror of kernel.py has its C struct's size and each of its
    fields that struct's offset and size, and that each number kernel.py
    mirrors is kernel.c's: the rows of a rectifier's buffer, the statuses,
    READ_FULL and the split and width of the Ryu tables."""
    lines = ["#include <stddef.h>", f'#include "{kernel.SOURCE}"']
    for name, struct in mirrors.items():
        mirror = getattr(kernel, name)
        lines.append(f'_Static_assert(sizeof(struct {struct}) == {ctypes.sizeof(mirror)}, "{name}");')
        for field, kind in mirror._fields_:
            where = f"{name}.{field}"
            lines += [
                f"_Static_assert(offsetof(struct {struct}, {field}) == "
                f'{getattr(mirror, field).offset}, "{where}");',
                f"_Static_assert(sizeof(((struct {struct} *)0)->{field}) == "
                f'{ctypes.sizeof(kind)}, "{where}");',
            ]
    # The masks follow the named rows.
    rows = [*kernel._RELU_ROWS, "deterministic", "series"]
    lines.append(f'_Static_assert(RELU_ROWS == {len(rows)}, "_RELU_ROWS");')
    lines += [f'_Static_assert({row.upper()} == {k}, "_RELU_ROWS {row}");' for k, row in enumerate(rows)]
    by_message = {message: name for name, message in C_STATUSES.items()}
    assert sorted(by_message) == sorted(message for _, message in kernel._ERRORS.values())
    lines += [
        f'_Static_assert({by_message[message]} == {status}, "_ERRORS {status}");'
        for status, (_, message) in kernel._ERRORS.items()
    ]
    lines.append(f'_Static_assert(READ_FULL == {kernel.READ_FULL}, "READ_FULL");')
    # The tables open with 5 ** 0 scaled to POW5_BITS bits, 2 ** (bits - 1),
    # and the inverses with its inverse, 2 ** bits + 1.
    tables = [int(low) | int(high) << 64 for low, high in kernel.pow5_tables().reshape(-1, 2)]
    bits = tables[0].bit_length()
    count = tables.index((1 << bits) + 1)
    lines += [
        f'_Static_assert(POW5_COUNT == {count}, "pow5_tables: {count} + {len(tables) - count}");',
        f'_Static_assert(POW5_BITS == {bits}, "pow5_tables: {bits} bits");',
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.skipif(shutil.which(kernel.COMPILER) is None, reason="no C compiler")
def test_ctypes_mirrors_match_the_structs_of_kernel_c(tmp_path):
    mirrors = {
        name for name, value in vars(kernel).items()
        if isinstance(value, type) and issubclass(value, ctypes.Structure)
    }
    assert mirrors - {"_UFuncHead"} == set(C_STRUCTS)
    source = tmp_path / "layout.c"
    source.write_text(layout_asserts(C_STRUCTS))
    done = subprocess.run(
        [kernel.COMPILER, "-fsyntax-only", str(source)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_fixed_numbers_are_read_from_kernel_c():
    assert kernel.LOG_2PI.hex() == math.log(2.0 * math.pi).hex()
    assert kernel.DETERMINISTIC_VARIANCE == 1e-30
    assert kernel.SERIES_THRESHOLD == -30.0


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
        # The Gamma match divides by the rate of a run not skipped.
        pytest.param([(6.0, 6.0), (6.0, 0.0)], id="noise-rate-zero"),
    ],
)
def test_likelihood_step_dividing_by_zero_raises_before_any_write(gammas):
    # In a stack, and in a stack of the run alone.
    for part in (gammas, gammas[1:]):
        stack = step_stack(part)
        before = snapshot(stack)
        with pytest.raises(ZeroDivisionError):
            one_step(stack, np.full((len(part), 1), 0.4), np.full(len(part), 0.3))
        assert snapshot(stack) == before
    triple = ref._likelihood_triple(0.3, 0.1, 0.5, GammaDist(*gammas[1]))
    with pytest.raises(ZeroDivisionError):
        ref._gamma_moments(*gammas[1], *triple)


def test_likelihood_step_at_a_noise_shape_of_one_skips_that_run_as_alone():
    # Run 1's noise shape of 1.0 skips the example and run 0 refines, each
    # leaving the bits and counts of a stack of that run alone.
    gammas = [(6.0, 6.0), (1.0, 6.0)]
    stack = step_stack(gammas)
    x, y = np.full((2, 1), 0.4), np.full(2, 0.3)
    outcome = one_step(stack, x, y)
    assert outcome.skipped.tolist() == [0, 1]
    assert outcome.weight_updates[0] > 0
    for r, gamma in enumerate(gammas):
        alone = step_stack([gamma])
        alone_outcome = one_step(alone, x[r:r + 1], y[r:r + 1])
        for name in ("skipped", "undo_count", "weight_updates"):
            assert getattr(outcome, name)[r] == getattr(alone_outcome, name)[0], (r, name)
        got = [stack.means[r], stack.variances[r], stack.gamma[:, r], stack.lam[:, r]]
        assert [_bits(a) for a in got] == snapshot(alone), r


def test_likelihood_step_with_only_unusable_runs_skips_them():
    # A Gamma shape of 1 skips the example; with no run left there is no
    # backward pass.
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


# ------------------------------------------------- the branch-free loops
#
# kernel.c's rectifier and refinement compute both sides of each branch and
# select. At the edges of the branches they must still give the bits of the
# frozen numpy code of reference_update.

T, D = SERIES_THRESHOLD, DETERMINISTIC_VARIANCE
EDGE_MEANS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -1.0, 3.0, T, np.nextafter(T, -np.inf),
    np.nextafter(T, 0.0), 2.0 * T, -40.0, -1e3, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan,
]
EDGE_VARIANCES = [
    0.0, -0.0, 5e-324, 1e-310, np.nextafter(D, 0.0), D, np.nextafter(D, 1.0), 0.25, 1.0, 4.0,
    1e300, np.inf, np.nan,
]


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit equality, except that any NaN matches any NaN: the sign and
    payload of a NaN made from a NaN or from infinities follow the order of
    the operands the compiler picks, in kernel.c as in numpy's loops."""
    nan = np.isnan(want)
    return (np.isnan(got) == nan).all() and got[~nan].tobytes() == want[~nan].tobytes()


def test_rectifier_at_edge_values_matches_the_reference():
    # Every pair of an edge mean and an edge variance: signed zeros,
    # subnormals, the deterministic cutoff and alpha at the series threshold
    # (T with variance 1 and 2T with variance 4) on both sides, far tails,
    # infinities and NaNs, in a pass over rows of units.
    m, v = np.meshgrid(EDGE_MEANS, EDGE_VARIANCES)
    out, rectifier = relu_moments(MomentVector(m, v))
    with np.errstate(all="ignore"):
        want, aux = reference_update.relu_moments(MomentVector(m, v))
    assert same_bits(out.mean, want.mean) and same_bits(out.variance, want.variance)
    for name in ("alpha", "ratio", "vprime", "cdf", "cdf_neg", "pdf", "sqrt_v"):
        assert same_bits(getattr(rectifier, name), getattr(aux, name)), name
    # The far-tail powers as the reference raises them: every unit of the
    # layer, -1.0 off the series.
    alpha_s = np.where(aux.series, aux.alpha, -1.0)
    assert rectifier.alpha_s.tobytes() == alpha_s.tobytes()
    for name, exponent in [("cube", 3), ("inv_square", -2), ("inv_fourth", -4)]:
        with np.errstate(over="ignore"):
            want_power = alpha_s**exponent
        assert getattr(rectifier, name).tobytes() == want_power.tobytes(), name
    assert (rectifier.deterministic == aux.deterministic).all()
    assert (rectifier.series == aux.series).all()
    assert rectifier.n_deterministic == aux.deterministic.sum() > 0
    assert rectifier.n_series == aux.series.sum() > 0
    # The edges the selects must keep: np.maximum(-0.0, 0.0) is +0.0 and
    # np.maximum(nan, 0.0) NaN, in both the deterministic mean and the
    # variance; alpha exactly at the threshold is not in the series.
    det = aux.deterministic
    assert np.isnan(out.mean[det]).any() and np.isnan(out.variance[~det]).any()
    assert not np.signbit(out.mean[det & (m == 0.0)]).any()
    assert not aux.series[(m == T) & (v == 1.0)].any()
    assert aux.series[(m == np.nextafter(T, -np.inf)) & (v == 1.0)].all()


def test_rectifier_refuses_a_negative_variance_before_any_write():
    m, v = np.zeros((2, 5)), np.ones((2, 5))
    v[1, 4] = -5e-324
    out = np.full((2, 2, 5), 7.0)
    with pytest.raises(NumericError, match="negative pre-activation variance"):
        relu_moments(MomentVector(m, v), out)
    assert (out[0] == 7.0).all() and (out[1] == 7.0).all()


# Hidden pre-activations (mean, variance) at the edges of the rectifier's
# branches, which the reverse sweep selects between too.
EDGE_UNITS = [
    (0.0, 1.0), (-0.0, 1.0), (5e-324, 1.0), (-1e-310, 2.0), (3.0, 1.0),
    (1.0, D), (-1.0, D), (1.0, np.nextafter(D, 0.0)), (-1.0, np.nextafter(D, 1.0)),
    (2.0, 0.0), (-3.0, 0.0), (-0.0, 0.0), (5e-324, 0.0), (0.5, 1e-310),
    (T, 1.0), (np.nextafter(T, -np.inf), 1.0), (np.nextafter(T, 0.0), 1.0), (-40.0, 1.0),
    (-1e3, 4.0),
]


def edge_net(rng):
    """A [3, len(EDGE_UNITS), 1] net whose hidden pre-activations at the
    input (1, 0, 0) are EDGE_UNITS: with the bias, a unit's mean reads
    (2 mean + 0 + 0 + 0) / 2 and its variance (4 variance + 0 + 0 + 0) / 4,
    exact (a zero mean may come out with either sign)."""
    net = random_net([3, len(EDGE_UNITS), 1], rng)
    hidden = net.layers[0]
    for unit, (mean, variance) in enumerate(EDGE_UNITS):
        hidden.means[unit, [0, 3]] = 2.0 * mean, 0.0
        hidden.variances[unit, [0, 3]] = 4.0 * variance, 0.0
    return net


def test_step_through_edge_pre_activations_matches_the_reference():
    rng = np.random.default_rng(2004)
    nets = [edge_net(rng) for _ in range(2)]
    xs, ys = np.array([[1.0, 0.0, 0.0]] * 2), np.array([0.3, -1.2])
    with np.errstate(all="ignore"):  # the reference's exp overflows off the series
        stack, outcome = assert_step_matches_reference(nets, xs, ys)
    assert not outcome.skipped.any()
    [rectifier] = stack.workspace.rectifiers
    assert rectifier.n_deterministic == 2 * 6 and rectifier.n_series == 2 * 5
    assert (rectifier.v_safe[0, 0, :] == [v if v >= D else 1.0 for _, v in EDGE_UNITS]).all()


# Weights (mean, variance) and their gradients (dM, dV) whose refinement is
# ordinary, or whose new mean or variance is NaN, +-inf, 0, negative or
# subnormal; only a positive finite variance with a finite mean is kept.
EDGE_REFINEMENTS = [
    (0.5, 0.3, 0.1, -0.2),           # kept
    (-0.0, 1.0, 0.0, 0.0),           # kept: the mean -0.0 + 0.0
    (0.5, 5e-324, 0.0, 0.0),         # kept: a subnormal variance
    (0.5, 1.0, 1.0, 0.0),            # v_new 0
    (0.5, 0.0, 5.0, 5.0),            # v_new 0 from v 0
    (0.5, 1.0, 2.0, 0.0),            # v_new negative
    (0.5, 1.0, 0.0, np.nan),         # v_new NaN, m_new finite
    (0.5, 1e10, 0.0, 1e308),         # v_new +inf, m_new finite
    (0.5, 1e-100, 1e200, 0.0),       # v_new -inf, m_new finite
    (np.nan, 1.0, 0.0, 0.0),         # m_new NaN, v_new finite
    (np.inf, 1.0, 0.0, 0.0),         # m_new +inf, v_new finite
    (-np.inf, 1.0, 0.0, 0.0),        # m_new -inf, v_new finite
    (1.79e308, 1e154, 1e152, 0.5 * 1e152 * 1e152),  # m_new overflows, v_new = v
    (0.5, 1.0, np.nan, 0.0),         # both NaN
]


def test_refinement_at_edge_values_matches_the_reference():
    # Two runs of a [3, 8, 1] stack, every weight one of EDGE_REFINEMENTS,
    # refined through the step's own buffers; run 1 skips its example and
    # keeps its weights.
    rng = np.random.default_rng(2005)
    stack = PosteriorStack.of([random_net([3, 8, 1], rng) for _ in range(2)])
    step = forward.workspace(stack)
    step.noise.skipped[:] = (False, True)
    step.noise.gamma_next[...] = 7.0
    cases = np.array(EDGE_REFINEMENTS)[np.arange(stack.means.size) % len(EDGE_REFINEMENTS)]
    buffers = (stack.means, stack.variances, step.d_means, step.d_variances)
    for buffer, values in zip(buffers, cases.T):
        buffer[...] = values.reshape(buffer.shape)
    before = [b.copy() for b in buffers]
    step.refine()
    undo, views = 0, [layer_views(b[:1], stack.layer_sizes) for b in before]
    for l, layer in enumerate(stack.layers):
        with np.errstate(all="ignore"):
            m, v, bad = reference_update.refine(*(view[l] for view in views))
        assert layer.means[0].tobytes() == m[0].tobytes(), l
        assert layer.variances[0].tobytes() == v[0].tobytes(), l
        undo += int(bad[0])
    assert step.undo.tolist() == [undo, 0] and step.updates.tolist() == [stack.means.shape[1], 0]
    assert 0 < undo < stack.means.shape[1]
    assert _bits(stack.means[1]) + _bits(stack.variances[1]) == _bits(before[0][1]) + _bits(before[1][1])
    assert (stack.gamma == 7.0).all()
