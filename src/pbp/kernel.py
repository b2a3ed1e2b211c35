"""The compiled arithmetic of kernel.c: build, cache and bind.

kernel.c holds the two loops whose every step depends on the last, the EP
refresh of a stack's prior sites (which carries each run's prior-precision
Gamma from weight to weight) and the noise-precision Gamma step of a
likelihood update; and the forward pass, each layer's moments and
rectifier (Rectifier) over n input rows per run, which two entry points
share: a rows pass runs one work item through every layer in one call
(RowsPass), and the likelihood step (Step), whose epoch() folds n examples
per run in sequence, runs one row per run through every layer, then the
noise step, the reverse sweep and the refinement of every weight. It also
writes a float matrix between the caller's separators (repr_matrix), each
float as Python's repr gives it, by Ryu's shortest round-trip conversion,
for prediction CSVs and model files, and reads the rows of a numeric CSV
(read_rows), each cell as Python's float() reads it.

Some bits come from outside this package. The matmuls call numpy's bundled
OpenBLAS (BLAS_SYMBOLS) as np.matmul does on stacked inputs (gemv or dot
for one row, gemv for one output unit, gemm otherwise), every rectifier's
log_ndtr scipy's (LOG_NDTR_CAPSULE), and its exp and far-tail powers the
'd->d' loop of np.exp and the 'dd->d' loop of np.power (SIMD code that
rounds differently from libm's exp and pow on some arguments), read from
the ufunc objects. All are resolved once, at import, and checked against
np.matmul, scipy.special.log_ndtr, np.exp and np.power (check_externals); a
missing symbol or loop or a differing bit fails the import with one line,
an ExternalError, and there is no other path. So does a formatted float that
is not its repr, or separators other than those given (check_repr), as on
a Python whose float_repr_style is not 'short', and a cell read with other
bits than float()'s (check_read), as from a libc whose strtod does not
round correctly. Where scipy.special is
not yet imported, its cython_special and log_ndtr load under a stub
package, out of sys.modules again once they are loaded, so that the
package's __init__ (0.2-0.3 s) does not run (_scipy_special).

kernel.c is compiled with gcc and FLAGS, for this CPU (-march=native), on
first import and loaded with ctypes. The build is cached under
$XDG_CACHE_HOME/pbp (by default ~/.cache/pbp, or the temp dir when that
cannot be written), named by a hash of the source, the flags and the CPU's
instruction-set features (host_features, read from /proc/cpuinfo) and one of
`gcc --version`: a changed source, CPU or compiler builds afresh, and a
cached build for this CPU loads where no compiler is found. A build for
another CPU never loads, as it could hold instructions this one lacks
(SIGILL). kernel.c links against nothing but libm; the external functions
reach it as pointers.

Each entry point takes one struct of sizes and buffer addresses, bound once
(per stack for a step, see Step; per thread of a rows pass, see RowsPass),
so a call converts no array; an epoch binds its examples per call. The fixed
numbers of the moment maps (LOG_2PI, DETERMINISTIC_VARIANCE,
SERIES_THRESHOLD) are constants of kernel.c alone, read from the library
once, at import.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

from .posterior import NumericError, layer_views

SOURCE = Path(__file__).with_name("kernel.c")
COMPILER = "gcc"
# No fused multiply-add, and pow, exp and log left to the process's libm:
# the bits of the Python floats and numpy arrays the kernel replaces. -O3
# and -fno-math-errno let gcc vectorize loops (sqrt included), and
# -march=native with every vector instruction this CPU has; a vectorized
# IEEE add, multiply, divide or sqrt rounds as the scalar one, and
# -ffp-contract=off keeps every a * b + c two roundings on any target. The
# build is for this CPU alone, so its cache key holds the CPU's features
# (host_features).
FLAGS = (
    "-O3", "-march=native", "-fno-math-errno", "-ffp-contract=off", "-fno-builtin",
    "-shared", "-fPIC",
)
BUILD_TIMEOUT_S = 120


class CompilerError(ImportError):
    """kernel.c could not be built."""


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _cache_dirs() -> list[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    shared = Path(tempfile.gettempdir()) / f"pbp-{os.getuid()}"
    # A directory in the shared temp dir is used only if this user made it.
    if shared.exists() and shared.stat().st_uid != os.getuid():
        return [Path(base) / "pbp"]
    return [Path(base) / "pbp", shared]


def _compiler_version() -> str | None:
    try:
        done = subprocess.run(
            [COMPILER, "--version"], capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def host_features() -> str:
    """The instruction-set features of the CPU this process runs on, as the
    kernel lists them: the `flags` line (x86) or `Features` line (arm) of
    /proc/cpuinfo, read without a compiler; where there is none, the
    machine's hardware name, which does not tell two CPUs of one
    architecture apart."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return " ".join(sorted(value.split()))
    except OSError:
        pass
    return os.uname().machine


def build(flags: tuple[str, ...] = FLAGS) -> Path:
    """The shared library of kernel.c built with flags for this CPU: cached,
    or compiled into the first cache directory that can be written. Raises
    CompilerError when there is neither. A build is named by the source, the
    flags and the CPU's features, then the compiler's version; one for other
    features is never loaded, even without a compiler, as it could hold
    instructions this CPU lacks."""
    stem = "kernel-" + _digest(SOURCE.read_bytes(), flags, host_features())
    version = _compiler_version()
    if version is None:
        for directory in _cache_dirs():
            for path in sorted(directory.glob(stem + "-*.so")):
                return path
        raise CompilerError(
            f"pbp builds its kernel with the C compiler {COMPILER!r} on first import, "
            f"and no {COMPILER!r} was found on PATH (nor a cached build in "
            f"{_cache_dirs()[0]})"
        )
    name = f"{stem}-{_digest(version)}.so"
    for directory in _cache_dirs():
        if (directory / name).exists():
            return directory / name
    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        except OSError:
            continue
        os.close(fd)
        try:
            done = subprocess.run(
                [COMPILER, *flags, "-o", tmp, str(SOURCE), "-lm"],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
            if done.returncode != 0:
                raise CompilerError(f"{COMPILER} failed to build {SOURCE}:\n{done.stderr}")
            os.replace(tmp, directory / name)
        except subprocess.TimeoutExpired:
            raise CompilerError(
                f"{COMPILER} did not build {SOURCE} within {BUILD_TIMEOUT_S} s"
            ) from None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return directory / name
    raise CompilerError(f"no cache directory for the kernel build can be written: {_cache_dirs()}")


def _layout(ints=(), pointers=()):
    """The _fields_ of a C struct of int64s, then pointers."""
    return [(name, ctypes.c_int64) for name in ints] + [(name, ctypes.c_void_p) for name in pointers]


class _NoiseArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "failed_run"], ["moments", "gamma", "gamma_next", "log_z", "skipped", "targets"]
    )


class _RefreshArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "weights", "failed_run"],
        ["means", "variances", "sites", "lam", "skipped", "change", "backup"],
    )


# The rows of a Rectifier's buffer, in order: log_ndtr maps the two from
# "alpha" to the two from "log_cdf", and exp the four from "log_cdf" to the
# four from "cdf". The last three hold the powers of alpha_s of every unit,
# raised for the units that take the series and those of -1.0 elsewhere:
# ** 3 for relu_post, ** -2 and ** -4 for the step's reverse sweep. Two
# masks follow them (deterministic, series).
_RELU_ROWS = (
    "alpha", "neg_alpha",
    "log_cdf", "log_cdf_neg", "log_pdf", "log_ratio",
    "cdf", "cdf_neg", "pdf", "ratio",
    "sqrt_v", "v_safe", "vprime", "mean_pos", "alpha_s",
    "cube", "inv_square", "inv_fourth",
)


class _ReluArgs(ctypes.Structure):
    _fields_ = _layout(
        ["rows", "units", "out_stride", "n_deterministic", "n_series"],
        ["m", "v", "buf", "out_m", "out_v"],
    )


class _Externals(ctypes.Structure):
    _fields_ = _layout(
        pointers=["dgemv", "ddot", "dgemm", "log_ndtr", "exp", "power", "exp_data", "power_data"]
    )


class _LayerArgs(ctypes.Structure):
    _fields_ = _layout(
        ["rows", "cols", "offset"],
        ["zm", "zv", "scratch", "mean", "variance", "relu", "dma", "dva", "operand", "back",
         "dmz", "dvz"],
    )


class _StepArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "weights", "n_layers"],
        ["layers", "externals", "means", "variances", "means_sq", "d_means", "d_variances",
         "gamma", "noise", "undo", "updates", "phase_ns"],
    )


class _EpochArgs(ctypes.Structure):
    _fields_ = _layout(["n", "failed_run"], ["xs", "ys", "skipped", "undo", "updates"])


class _RowsArgs(ctypes.Structure):
    _fields_ = _layout(["n"], ["x", "out_mean", "out_variance"])


def load(path: Path) -> ctypes.CDLL:
    """The library at path, its entry points declared."""
    lib = ctypes.CDLL(str(path))
    for name, args, restype in [
        ("noise_step", _NoiseArgs, ctypes.c_int64),
        ("ep_refresh", _RefreshArgs, ctypes.c_int),
        ("step_forward", _StepArgs, ctypes.c_int),
        ("step_backward", _StepArgs, None),
        ("step_refine", _StepArgs, None),
    ]:
        entry = getattr(lib, name)
        entry.argtypes = [ctypes.POINTER(args)]
        entry.restype = restype
    externals, integer, address = ctypes.POINTER(_Externals), ctypes.c_int64, ctypes.c_void_p
    lib.step_epoch.argtypes = [ctypes.POINTER(_StepArgs), ctypes.POINTER(_EpochArgs)]
    lib.forward_rows.argtypes = [
        ctypes.POINTER(_StepArgs), ctypes.POINTER(_RowsArgs), *[integer] * 4
    ]
    lib.rectify.argtypes = [externals, ctypes.POINTER(_ReluArgs)]
    lib.step_epoch.restype = lib.forward_rows.restype = lib.rectify.restype = ctypes.c_int
    lib.matvec.argtypes = [externals, *[integer] * 4, *[address] * 3]
    lib.forward_products.argtypes = [externals, *[integer] * 5, *[address] * 3]
    lib.log_ndtr_n.argtypes = lib.exp_n.argtypes = [externals, integer, address, address]
    lib.power_n.argtypes = [externals, integer, address, ctypes.c_double, address]
    for entry in (lib.matvec, lib.forward_products, lib.log_ndtr_n, lib.exp_n, lib.power_n):
        entry.restype = None
    lib.repr_matrix.argtypes = [address, integer, integer, address, *[ctypes.c_char_p, integer] * 2, address]
    lib.repr_matrix.restype = ctypes.c_int64
    lib.read_rows.argtypes = [ctypes.POINTER(_ReadArgs)]
    lib.read_rows.restype = ctypes.c_int
    return lib


def _report_in_one_line(previous=sys.excepthook):
    """Have an uncaught CompilerError printed as its message alone, without a
    traceback, whatever program imported pbp (the `pbp` script included)."""

    def hook(kind, error, traceback):
        if issubclass(kind, CompilerError):
            print(f"{kind.__name__}: {error}", file=sys.stderr)
        else:
            previous(kind, error, traceback)

    sys.excepthook = hook


class ExternalError(CompilerError):
    """numpy's BLAS, exp or power or scipy's log_ndtr cannot be called from
    kernel.c, or does not give the bits of np.matmul, np.exp, np.power or
    scipy.special.log_ndtr there; or kernel.c's formatter does not give
    Python's repr of a float, or its reader float()'s bits."""


# The functions kernel.c calls for the bits of np.matmul (numpy's bundled
# OpenBLAS, whose 64-bit-integer CBLAS carries this prefix and suffix), of
# scipy.special.log_ndtr (its double version in cython_special), and of
# np.exp and np.power (the loops on doubles of the ufuncs of these names in
# numpy's _multiarray_umath).
BLAS_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_", "scipy_cblas_dgemm64_")
LOG_NDTR_CAPSULE = "__pyx_fuse_1log_ndtr"
SPECIAL = "scipy.special"
UFUNCS = {"exp": 1, "power": 2}  # and their numbers of inputs


class _UFuncHead(ctypes.Structure):
    """The head of numpy's PyUFuncObject (numpy/ufuncobject.h), up to the
    type numbers of its loops."""

    _fields_ = (
        [("ob_refcnt", ctypes.c_ssize_t), ("ob_type", ctypes.c_void_p)]
        + [(name, ctypes.c_int) for name in ("nin", "nout", "nargs", "identity")]
        + [("functions", ctypes.POINTER(ctypes.c_void_p)), ("data", ctypes.POINTER(ctypes.c_void_p))]
        + [("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int), ("name", ctypes.c_char_p)]
        + [("types", ctypes.POINTER(ctypes.c_char))]
    )


def _double_loop(name: str) -> tuple[int, int | None]:
    """The inner loop on doubles alone ('d->d', 'dd->d') of the ufunc of
    UFUNCS called name in numpy's _multiarray_umath, and its data;
    ExternalError when it has none."""
    from numpy._core import _multiarray_umath

    ufunc, nin = getattr(_multiarray_umath, name), UFUNCS[name]
    head = _UFuncHead.from_address(id(ufunc)) if isinstance(ufunc, np.ufunc) else None
    if head is not None and (head.nin, head.nout) == (nin, 1):
        doubles = bytes([np.dtype(np.float64).num]) * (nin + 1)
        for k in range(head.ntypes):
            if head.types[k * (nin + 1) : (k + 1) * (nin + 1)] == doubles and head.functions[k]:
                return head.functions[k], head.data[k]
    raise ExternalError(f"numpy's {name} has no {'d' * nin}->d loop, which kernel.c calls")


def _scipy_special():
    """scipy.special's cython_special and the log_ndtr ufunc the check compares
    against. Where scipy.special is not yet imported, both load under a stub
    package, a bare module whose __path__ is scipy's special directory, held
    in sys.modules only while they load: the package's __init__ (0.2-0.3 s of
    array-API backends, array_api_compat and numpy.f2py) does not run, and a
    later import of scipy.special runs it and finds these modules loaded.
    The ufunc then comes from _special_ufuncs, the module that defines
    scipy.special.log_ndtr (the same object in scipy 1.17); a scipy without
    it there imports the whole package for it. A failed load under the stub
    is an ExternalError."""
    if SPECIAL not in sys.modules:
        import scipy

        stub = types.ModuleType(SPECIAL)
        stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
        sys.modules[SPECIAL] = stub
        try:
            from scipy.special import cython_special

            try:
                from scipy.special._special_ufuncs import log_ndtr
            except ImportError:
                log_ndtr = None
        except Exception as exc:
            raise ExternalError(f"scipy.special.cython_special cannot be loaded: {exc}") from None
        finally:
            if sys.modules.get(SPECIAL) is stub:
                del sys.modules[SPECIAL]
        if log_ndtr is not None:
            return cython_special, log_ndtr
    import scipy.special
    from scipy.special import cython_special

    return cython_special, scipy.special.log_ndtr


def resolve_externals() -> tuple[_Externals, np.ufunc]:
    """The function pointers of BLAS_SYMBOLS, looked up in the BLAS that
    numpy's multiarray module loaded, of scipy's log_ndtr, and of the loops
    on doubles of UFUNCS, read from numpy's ufunc objects; and the log_ndtr
    ufunc they are checked against (see _scipy_special). ExternalError when
    one is missing."""
    from numpy._core import _multiarray_umath

    blas = ctypes.CDLL(_multiarray_umath.__file__)
    pointers = []
    for name in BLAS_SYMBOLS:
        try:
            pointers.append(ctypes.cast(getattr(blas, name), ctypes.c_void_p).value)
        except AttributeError:
            raise ExternalError(f"numpy's BLAS has no {name}, which kernel.c calls") from None
    cython_special, log_ndtr = _scipy_special()
    capsule = cython_special.__pyx_capi__.get(LOG_NDTR_CAPSULE)
    if capsule is None:
        raise ExternalError(f"scipy.special.cython_special has no {LOG_NDTR_CAPSULE}")
    api, capsule_t = ctypes.pythonapi, ctypes.py_object
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, capsule_t)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, capsule_t, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    (exp, exp_data), (power, power_data) = (_double_loop(ufunc) for ufunc in UFUNCS)
    externals = _Externals(*pointers, pointer(capsule, name(capsule)), exp, power, exp_data, power_data)
    return externals, log_ndtr


def check_externals(lib: ctypes.CDLL, externals: _Externals, log_ndtr) -> None:
    """ExternalError unless kernel.c's forward_products, matvec, log_ndtr_n,
    exp_n and power_n, through externals, give the bits of np.matmul,
    log_ndtr (scipy.special.log_ndtr, see _scipy_special), np.exp and the
    powers x ** 3, ** -2 and ** -4 on a few seeded cases: each branch of
    forward_products on stacked inputs, whose matrices lie apart as a
    stack's do (one row, one output unit, both, and rows up to the largest
    block of a rows pass), and of matvec's reverse products, each with a row
    of zeros, whose products are signed zeros; log_ndtr at infinities, NaN, signed zeros and the edges of its
    branches; and exp and the powers at infinities, NaN, signed zeros and
    exp's underflow and overflow edges, on slices of several starts and
    lengths and on a gather, each value against its bits in the whole
    array; and that numpy's powers of -1.0 are exactly -1.0, 1.0 and 1.0."""
    rng = np.random.default_rng(18)
    ref = ctypes.byref(externals)
    blas = " and ".join(BLAS_SYMBOLS)
    cases = [(1, 1, 5), (1, 7, 4), (6, 1, 5), (9, 4, 3), (512, 50, 51), (1023, 50, 51),
             (700, 1, 51)]
    # Each case's inputs are the leading rows and columns of one draw, which
    # halves the normal draws, the largest cost of the check in a new process.
    inputs = rng.normal(size=(2, 1023, 51))
    for n, rows, cols in cases:
        flat = rng.normal(size=(2, rows * cols + 3))
        z = inputs[:, :n, :cols].copy()
        z[1, n // 2] = 0.0
        want = z @ flat[:, 3:].reshape(2, rows, cols).swapaxes(-1, -2)
        got = np.empty(want.shape)
        lib.forward_products(
            ref, 2, n, rows, cols, rows * cols + 3, _data(flat) + 3 * 8, _data(z), _data(got)
        )
        if got.tobytes() != want.tobytes():
            raise ExternalError(
                f"numpy's {blas} called from kernel.c do not give the bits of np.matmul on "
                f"{z.shape[1:]} x {(cols, rows)} products"
            )
    for rows, cols in [(1, 6), (6, 3)]:
        m = rng.normal(size=(3, rows, cols))
        x = rng.normal(size=(3, rows))
        x[1] = 0.0
        want = x[:, None, :] @ m
        got = np.empty(want.shape)
        lib.matvec(ref, 3, rows, cols, rows * cols, _data(m), _data(x), _data(got))
        if got.tobytes() != want.tobytes():
            raise ExternalError(
                f"numpy's {blas} called from kernel.c do not give the bits of np.matmul on "
                f"{x.shape[1:]} x {m.shape[1:]} products"
            )
    x = np.array([-np.inf, -1e300, -40.0, -20.0, -5.0, -0.0, 0.0, 5.0, 20.0, 40.0, np.inf, np.nan])
    x = np.concatenate([x, rng.normal(0.0, 10.0, 20)])
    got = np.empty_like(x)
    lib.log_ndtr_n(ref, x.size, _data(x), _data(got))
    if got.tobytes() != log_ndtr(x).tobytes():
        raise ExternalError(
            f"scipy's {LOG_NDTR_CAPSULE} called from kernel.c does not give the bits of "
            "scipy.special.log_ndtr"
        )
    # Around exp's smallest subnormal, smallest normal and largest finite
    # results; then alpha_s as the rectifier's far-tail series sees it, where
    # libm's pow, 80 ns a value, differs from numpy's power on a few values
    # in a thousand. (exp's SIMD loop takes arguments that overflow or
    # underflow one by one, slowly, so few of them do.)
    edges = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, -745.14, -745.1332191019412,
             -745.13, -708.3964185322641, -708.39, 709.782712893384, 709.7827128933841, 710.0]
    x = np.concatenate([edges, rng.normal(0.0, 30.0, 1000)])
    x_pow = np.concatenate([edges, rng.normal(0.0, 300.0, 100), rng.uniform(-1e3, -30.0, 300)])
    # Slices of several starts, lengths that are not multiples of 8 and a
    # gather of every third value: each value must take the bits it takes
    # in the whole array, whatever its neighbours and offset, as kernel.c
    # raises the far-tail units of a layer alone (series_powers) where numpy
    # raised the whole layer.
    parts = [slice(0, None), slice(1, 14), slice(3, 10), slice(5, 6), slice(2, None, 3)]
    with np.errstate(all="ignore"):
        whole = np.exp(x)
        for part, want in ((np.ascontiguousarray(x[k]), whole[k]) for k in parts):
            got = np.empty_like(part)
            lib.exp_n(ref, part.size, _data(part), _data(got))
            if got.tobytes() != want.tobytes():
                raise ExternalError(
                    "numpy's exp loop called from kernel.c does not give the bits of np.exp "
                    f"on {part.size} values"
                )
        for exponent in (3, -2, -4):
            whole = x_pow**exponent
            for part, want in ((np.ascontiguousarray(x_pow[k]), whole[k]) for k in parts):
                got = np.empty_like(part)
                lib.power_n(ref, part.size, _data(part), float(exponent), _data(got))
                if got.tobytes() != want.tobytes():
                    raise ExternalError(
                        "numpy's power loop called from kernel.c does not give the bits of "
                        f"x ** {exponent} on {part.size} values"
                    )
        # The units off the series take the powers of -1.0 as constants.
        for exponent, power in [(3, -1.0), (-2, 1.0), (-4, 1.0)]:
            if (np.full(9, -1.0) ** exponent).tobytes() != np.full(9, power).tobytes():
                raise ExternalError(f"numpy's power does not give (-1.0) ** {exponent} == {power}")


def pow5_tables() -> np.ndarray:
    """The multipliers of kernel.c's Ryu conversion (see repr_double there),
    each 128 bits as a (low, high) pair of uint64 words, from exact integers:
    5 ** i scaled to 125 bits for i < 326, then 2 ** (len(5 ** i) + 124)
    // 5 ** i + 1 for i < 342, len the bit length."""
    powers = [5**i for i in range(342)]
    shifts = [p.bit_length() - 125 for p in powers[:326]]
    scaled = [p >> s if s >= 0 else p << -s for p, s in zip(powers, shifts)]
    inverses = [(1 << (p.bit_length() + 124)) // p + 1 for p in powers]
    low = (1 << 64) - 1
    return np.array([word for v in scaled + inverses for word in (v & low, v >> 64)], dtype=np.uint64)


# The longest repr repr_matrix writes: "-2.2250738585072014e-308".
REPR_BYTES = 24


def _repr_matrix(lib: ctypes.CDLL, pow5: np.ndarray, x: np.ndarray, col_sep: bytes, row_sep: bytes) -> str:
    out = np.empty(x.size * (REPR_BYTES + max(len(col_sep), len(row_sep))), dtype=np.uint8)
    seps = (col_sep, len(col_sep), row_sep, len(row_sep))
    size = lib.repr_matrix(_data(pow5), *x.shape, _data(x), *seps, _data(out))
    return str(out.data[:size], "ascii")


# The separators check_repr joins values with: a prediction CSV's, and a
# model file's within and between the rows of a weight matrix.
REPR_CHECK_SEPARATORS = ((",", "\n"), (",\n      ", "\n     ],\n     [\n      "))


def check_repr(lib: ctypes.CDLL, pow5: np.ndarray) -> None:
    """ExternalError unless kernel.c's repr_matrix writes repr of every float
    of a few dozen: signed zeros, infinities, NaN, the ends of the subnormal
    and normal ranges, the switches to and from the exponent form, integers
    near 2 ** 53, a tie to even (2 ** -25), an interval end exact in decimal
    (3.940649673949184e+37) and a few seeded bit patterns, in two columns,
    four rows, one column and one row, joined by REPR_CHECK_SEPARATORS."""
    values = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.5e-323,
        2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        9999999999999998.0, 1e16, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05, 1e-05,
        0.001, 0.1, 1.0 / 3.0, 1.0, 2.0, 10.0, 123456.0, 1e15, 1e22, 1e23, 2.0**53,
        2.0**53 - 1.0, 2.0**54, 2.0**-1022, 2.0**-1074 * 3, 2.0**1023, 0.3, 5e-06, 1.5, -2.5e-8,
        9007199254740994.0, 1e100, 1e-100, 123456789012345678.0, 2.0**-25,
        3.940649673949184e+37,
    ])
    bits = np.random.default_rng(24).integers(0, 2**64, 24, dtype=np.uint64)
    values = np.concatenate([values, bits.view(np.float64)])
    reprs, i = [repr(value) for value in values.tolist()], np.arange(values.size)
    for index in (np.column_stack([i, i[::-1]]), i.reshape(4, -1), i[:, None], i[None]):
        x, wanted = values[index], [[reprs[j] for j in row] for row in index.tolist()]
        for col_sep, row_sep in REPR_CHECK_SEPARATORS:
            got = _repr_matrix(lib, pow5, x, col_sep.encode(), row_sep.encode())
            want = row_sep.join(col_sep.join(row) for row in wanted)
            if got != want:
                # the first value written otherwise than its repr, else the whole text
                pairs = zip(re.findall(r"[^,\s\[\]]+", got), x.ravel().tolist())
                wrote, value = next(((g, v) for g, v in pairs if g != repr(v)), (got, want))
                raise ExternalError(
                    f"kernel.c's repr_matrix writes {wrote!r} for {value!r} in a {x.shape} matrix "
                    f"joined by {col_sep!r} and {row_sep!r} (float_repr_style {sys.float_repr_style!r})"
                )


class _ReadArgs(ctypes.Structure):
    _fields_ = _layout(["size", "pos", "width", "rows", "capacity"]) + [
        ("text", ctypes.c_char_p), ("out", ctypes.c_void_p)
    ]


READ_FULL = 1  # read_rows' status where its output has no room for the next row


def _read_rows(lib: ctypes.CDLL, text: bytes, start: int) -> np.ndarray | None:
    # Room for a cell per 8 bytes to start with, doubled while it is full,
    # and cut to the rows read: no larger buffer is left behind.
    args = _ReadArgs(len(text), start, text=text)
    out = np.empty(max((len(text) - start) // 8, 1))
    while True:
        args.out, args.capacity = out.ctypes.data, out.size
        status = lib.read_rows(ctypes.byref(args))
        if status != READ_FULL:
            break
        out.resize(2 * out.size, refcheck=False)
    if status < 0:
        return None
    out.resize(args.rows * args.width, refcheck=False)
    return out.reshape(args.rows, args.width)


# Decimal strings whose float() bits check_read compares with read_rows':
# both of its conversions (Clinger's exact products and quotients, and
# strtod beyond them) at their edges.
READ_CHECK_CELLS = (
    "0", "-0", "-0.0e0", "007", ".5e1", "5.e-1", "0.1", "0.3", "+2.5e+15", "4.35679e-10",
    "1e22", "1e23", "1e-22", "1e-23", "9007199254740992", "123456789012345678",
    "12345678901234567890", "1234567890123456789e-40", "8.98846567431158e307",
    # the normal and subnormal ends, and halfway to the smallest subnormal
    "1.7976931348623157e308", "1.7976931348623158e308", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324",
    "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-400",
    # halfway between two doubles, ties to even: just below, at and above
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "9007199254740993", "9007199254740995", "9007199254740994.99", "9007199254740995.0",
    "0.500000000000000166533453693773481063544750213623046875", "3.518437208883201171875e13",
)


def check_read(lib: ctypes.CDLL) -> None:
    """ExternalError unless kernel.c's read_rows reads each cell of
    READ_CHECK_CELLS, one a row, with the bits float() gives it."""
    got = _read_rows(lib, "\n".join(READ_CHECK_CELLS).encode(), 0)
    if got is None or got.shape != (len(READ_CHECK_CELLS), 1):
        raise ExternalError(f"kernel.c's read_rows does not read {len(READ_CHECK_CELLS)} decimal rows")
    for cell, value in zip(READ_CHECK_CELLS, got[:, 0].tolist()):
        if value.hex() != float(cell).hex():
            raise ExternalError(
                f"kernel.c's read_rows reads {cell!r} as {value!r} where float() gives "
                f"{float(cell)!r}"
            )


# kernel.c's statuses, as what the Python floats it replaces raised.
_ERRORS = {
    -1: (ZeroDivisionError, "float division by zero"),
    -2: (OverflowError, "a squared value overflows"),
    -3: (NumericError, "zero weight variance: its prior-site cavity is undefined"),
    -4: (NumericError, "prior variance underflows to 0 at a flat prior site"),
    -5: (NumericError, "negative pre-activation variance (upstream bug)"),
}


def _raise(status: int, run: int | None = None):
    """Raise the error of status; `run` names the run of a stack it arose in,
    when the kernel knows it, as the error's attribute of that name."""
    kind, message = _ERRORS[status]
    error = kind(message)
    error.run = run
    raise error


def _data(array: np.ndarray) -> int:
    """The address of array's first element: through the buffer protocol
    (faster) where array is C-contiguous, writable and not empty."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):  # not C-contiguous, not writable or empty
        return array.ctypes.data


def _address(array: np.ndarray, shape: tuple[int, ...]) -> int:
    """The address of a C-contiguous float array of shape; ValueError for any
    other array."""
    if array.shape != shape or array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ValueError(
            f"expected a C-contiguous float64 array of shape {shape}, "
            f"got {array.dtype} {array.shape}"
        )
    return _data(array)


try:
    LIB = load(build())
    # kernel.c's fixed numbers (see there), read once for the Python code
    # and tests that use them.
    LOG_2PI, DETERMINISTIC_VARIANCE, SERIES_THRESHOLD = (
        ctypes.c_double.in_dll(LIB, name).value
        for name in ("LOG_2PI", "DETERMINISTIC_VARIANCE", "SERIES_THRESHOLD")
    )
    EXTERNALS, LOG_NDTR = resolve_externals()
    check_externals(LIB, EXTERNALS, LOG_NDTR)
    POW5 = pow5_tables()
    check_repr(LIB, POW5)
    check_read(LIB)
except CompilerError:
    _report_in_one_line()
    raise


def repr_matrix(x: np.ndarray, col_sep: str, row_sep: str) -> str:
    """The floats of the (rows, cols) matrix x, each as Python's repr gives
    it, the values of a row joined by col_sep and the rows by row_sep
    (kernel.c's repr_matrix, in one call); both separators ASCII."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"a matrix of shape {x.shape}")
    return _repr_matrix(LIB, POW5, x, col_sep.encode("ascii"), row_sep.encode("ascii"))


def read_rows(text: bytes, start: int = 0) -> np.ndarray | None:
    """The (n, d) float matrix of the CSV rows of text from byte start on, in
    one kernel.c call over the bytes, each cell with the bits float() gives
    it; None where read_rows refuses them (see kernel.c): a byte or cell
    outside its grammar, rows of other widths, a value that is not finite, or
    no row at all."""
    if not 0 <= start <= len(text):
        raise ValueError(f"start {start} outside the {len(text)} bytes of text")
    return _read_rows(LIB, text, start)


class NoiseStep:
    """noise_step bound to a stack's (2, R) noise Gammas (shapes, rates).

    Each call reads the targets y and output moments mz, vz of one example per
    run, and writes each run's skip flag, its log-normalisers of the Gaussian
    collapse at shape + 0, 1, 2 (NaN where skipped), its moment-matched Gamma
    into gamma_next, leaving gamma itself to the caller, and the targets of
    its gradients: y, or mz where the run skips.
    """

    def __init__(self, gamma: np.ndarray):
        runs = gamma.shape[-1]
        self.moments = np.zeros((3, runs))
        self.y, self.mz, self.vz = self.moments
        self.log_z = np.empty((3, runs))
        self.skipped = np.empty(runs, dtype=bool)
        self.targets = np.empty(runs)
        self.gamma_next = np.empty((2, runs))
        self.gamma = gamma  # kept alive while the kernel holds its address
        self._args = _NoiseArgs(
            runs,
            -1,
            self.moments.ctypes.data,
            _address(gamma, (2, runs)),
            self.gamma_next.ctypes.data,
            self.log_z.ctypes.data,
            self.skipped.ctypes.data,
            self.targets.ctypes.data,
        )
        self._ref = ctypes.byref(self._args)
        self._call = LIB.noise_step

    def __call__(self) -> int:
        """The number of runs whose example is skipped."""
        status = self._call(self._ref)
        if status < 0:
            _raise(status, self._args.failed_run)
        return status


class Refresh:
    """ep_refresh bound to a stack's (R, W) means and variances, its (2, R)
    prior Gammas and the (4, R, W) prior sites it refreshes in place.

    Each call writes, per run, the number of sites skipped and the largest
    change of a weight's mean or variance or of the Gamma; a call that raises
    has changed nothing.
    """

    def __init__(self, means: np.ndarray, variances: np.ndarray, lam: np.ndarray, sites: np.ndarray):
        runs, weights = means.shape
        self.sites = sites
        self.skipped = np.empty(runs, dtype=np.int64)
        self.change = np.empty(runs)
        backup = np.empty(6 * runs * weights + 2 * runs)
        self._buffers = (means, variances, lam, sites, backup)
        self._args = _RefreshArgs(
            runs,
            weights,
            -1,
            _address(means, (runs, weights)),
            _address(variances, (runs, weights)),
            _address(sites, (4, runs, weights)),
            _address(lam, (2, runs)),
            self.skipped.ctypes.data,
            self.change.ctypes.data,
            backup.ctypes.data,
        )
        self._ref = ctypes.byref(self._args)
        self._call = LIB.ep_refresh

    def __call__(self) -> None:
        status = self._call(self._ref)
        if status < 0:
            _raise(status, self._args.failed_run)


def bias_extended(rows: tuple[int, ...], units: int) -> np.ndarray:
    """Moments (mean, variance), (2, *rows, units + 1), of rows of units and
    a bias unit of mean 1 and variance 0 after them, the units' variances 0
    and their means left to the caller."""
    z = np.empty((2, *rows, units + 1))
    z[1] = 0.0
    z[0, ..., -1] = 1.0
    return z


class Rectifier:
    """The rectifier (kernel.c's rectify), bound to C-contiguous
    pre-activation moments m, v of one shape, rows of units (the last axis),
    and to a C-contiguous output `out`, (2, *rows, width) with width at least
    units: the first units of each row of out[0] take the means and of
    out[1] the variances.

    Each call checks the variances and writes the moments, log_ndtr, exp
    and the powers of alpha_s included (raised by numpy's power only for the
    units that take the far-tail series). Each row of `buf` (see _RELU_ROWS)
    is an attribute of m's shape, valid until the next call, and
    `deterministic` and `series` (new bool arrays of that shape, from
    kernel.c's masks) flag the units that take those branches, which each
    call counts. `buf`, when given, is a 1-d float buffer of at least the
    size of those rows, which rectifiers whose calls never overlap may
    share. A rows pass rectifies fewer rows than m has where its item is
    smaller (see RowsPass): `shape` gives the (rows, units) of the last
    call, and the rows of buf then lie closer together.
    """

    def __init__(
        self,
        m: np.ndarray,
        v: np.ndarray,
        out: np.ndarray,
        buf: np.ndarray | None = None,
    ):
        shape = self._m_shape = m.shape
        if out.shape[:-1] != (2, *shape[:-1]) or out.shape[-1] < shape[-1]:
            raise ValueError(f"an output of shape {out.shape} for moments of shape {shape}")
        rows = (len(_RELU_ROWS) + 2, m.size)
        buf = np.empty(rows) if buf is None else buf[: math.prod(rows)].reshape(rows)
        self.buf, self._buffers = buf, (m, v, out)
        out_m = _address(out, out.shape)
        self._args = _ReluArgs(
            m.size // shape[-1], shape[-1], out.shape[-1], 0, 0,
            _address(m, shape), _address(v, shape), _address(buf, rows),
            out_m, out_m + 8 * out[0].size,
        )
        self._ref = ctypes.byref(self._args)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _RELU_ROWS:
            raise AttributeError(name)
        return self.buf[_RELU_ROWS.index(name)].reshape(self._m_shape)

    @property
    def shape(self) -> tuple[int, int]:
        return self._args.rows, self._args.units

    @property
    def deterministic(self) -> np.ndarray:
        return self.buf[-2].reshape(self._m_shape) != 0.0

    @property
    def series(self) -> np.ndarray:
        return self.buf[-1].reshape(self._m_shape) != 0.0

    @property
    def n_deterministic(self) -> int:
        return self._args.n_deterministic

    @property
    def n_series(self) -> int:
        return self._args.n_series

    def __call__(self) -> None:
        status = LIB.rectify(EXTERNALS, self._ref)
        if status < 0:
            _raise(status)


class _Forward:
    """The layers of kernel.c's forward pass (forward_layer), layer after
    layer as in layer_sizes, for `shape` rows over all runs: a _LayerArgs
    array whose forward fields are bound, per layer, to its bias-extended
    input moments (`inputs`, (2, *shape, cols)), whose first layer's unit
    slots take the inputs, and to its pre-activation moments: for a hidden
    layer with their Rectifier (`rectifiers`) into the next layer's input,
    and `output`, (2, *shape, 1), for the output layer. The layers share one
    scratch buffer, and, where relu_buf is given, the rectifiers share that
    one (in a pass that keeps no intermediates).
    """

    def __init__(self, layer_sizes, shape, output, relu_buf=None):
        count, self.inputs, self.rectifiers = math.prod(shape), [], []
        self._layers = layers = (_LayerArgs * (len(layer_sizes) - 1))()
        pairs = zip(layer_sizes[:-1], layer_sizes[1:])
        scratch = np.empty(count * max(units + 1 + 4 * rows for units, rows in pairs))
        self._buffers, address = [output, scratch], _data(scratch)
        z, offset = bias_extended(shape, layer_sizes[0]), 0
        for l, rows in enumerate(layer_sizes[1:]):
            cols = layer_sizes[l] + 1
            self.inputs.append(z)
            if l < len(layers) - 1:
                pre, z = np.empty((2, *shape, rows)), bias_extended(shape, rows)
                self.rectifiers.append(Rectifier(*pre, z, relu_buf))
            else:
                pre = output
            self._buffers.append(pre)
            zm, mean = _data(self.inputs[l]), _address(pre, (2, *shape, rows))
            layers[l] = _LayerArgs(
                rows, cols, offset, zm, zm + 8 * count * cols, address,
                mean, mean + 8 * count * rows,
                ctypes.addressof(self.rectifiers[l]._args) if l < len(self.rectifiers) else None,
            )
            offset += rows * cols


class RowsPass(_Forward):
    """The work items of a rows pass (kernel.c's forward_rows) over a stack's
    flat (R, W) means and variances, layer after layer as in layer_sizes:
    rows of the inputs x, (R, n, d), whose output moments go to out_mean
    and out_variance, (R, n), all C-contiguous floats. Its buffers, bound
    once, take items of up to `runs` runs and `rows` rows over all of them.

    Each call runs one item, the rows of the slice `rows` of the runs of the
    slice `runs`, through every layer in one kernel.c call, and leaves each
    hidden layer's branch counts in its Rectifier (`rectifiers`).
    """

    def __init__(self, means, variances, layer_sizes, x, out_mean, out_variance, runs, rows):
        stack_runs, weights = means.shape
        n, d = x.shape[1:]
        relu_buf = np.empty((len(_RELU_ROWS) + 2) * rows * max(layer_sizes[1:-1], default=0))
        super().__init__(layer_sizes, (rows,), np.empty((2, rows, 1)), relu_buf)
        self.shape, self.capacity = (stack_runs, n), (runs, rows)
        means_sq = np.empty((runs, weights))
        self._buffers += [means, variances, means_sq, x, out_mean, out_variance]
        self._args = _StepArgs(
            runs, weights, len(self._layers),
            ctypes.addressof(self._layers), ctypes.addressof(EXTERNALS),
            *(_address(a, (stack_runs, weights)) for a in (means, variances)), _data(means_sq),
        )
        self._rows = _RowsArgs(
            n, _address(x, (stack_runs, n, d)),
            *(_address(a, (stack_runs, n)) for a in (out_mean, out_variance)),
        )
        self._refs = (ctypes.byref(self._args), ctypes.byref(self._rows))
        self._call = LIB.forward_rows

    def __call__(self, runs: slice, rows: slice) -> None:
        group, block = range(self.shape[0])[runs], range(self.shape[1])[rows]
        if len(group) > self.capacity[0] or len(group) * len(block) > self.capacity[1]:
            raise ValueError(f"an item of {len(group)} x {len(block)} rows exceeds {self.capacity}")
        status = self._call(*self._refs, group.start, len(group), block.start, len(block))
        if status < 0:
            _raise(status)


class Step(_Forward):
    """A stack's likelihood step, in kernel.c's step_epoch, with the buffers
    it works in: bound to the stack's flat (R, W) weight means and
    variances, layer after layer as in layer_sizes, and (2, R) noise Gammas
    gamma.

    Per layer, one row per run: the bias-extended input moments (`inputs`),
    whose unit slots `x` in the first layer take the inputs; and for a
    hidden layer the pre-activation moments and the Rectifier bound to them
    (`rectifiers`), whose buffers keep its intermediates. The output layer's
    moments are the output moments mz, vz of the NoiseStep `noise`.

    epoch(xs, ys) folds n examples per run into the stack in sequence. Its
    phases are entry points of their own, which the tests drive one at a
    time: forward() runs the inputs in `x` through every layer (see
    step_forward); backward() writes the gradients of log Z w.r.t. every
    weight mean and variance into `d_means` and `d_variances`, (R, W) with
    per-layer (R, rows, cols) views `d_mean_views` and `d_variance_views`,
    from the targets in noise.targets; refine() refines every weight of the
    runs the noise step kept, writing `undo` and `updates` per run, and
    moves the matched noise Gammas into gamma.
    """

    def __init__(self, means, variances, gamma, layer_sizes):
        runs, weights = means.shape
        self.noise = noise = NoiseStep(gamma)
        super().__init__(layer_sizes, (runs, 1), noise.moments[1:, :, None, None])
        self.x = self.inputs[0][0, ..., :-1]
        self.d_means, self.d_variances, means_sq = (np.empty_like(means) for _ in range(3))
        self.d_mean_views = layer_views(self.d_means, layer_sizes)
        self.d_variance_views = layer_views(self.d_variances, layer_sizes)
        self.undo, self.updates = np.empty((2, runs), dtype=np.int64)
        self.phase_ns = None
        self._buffers += [means, variances, means_sq]
        for l, layer in enumerate(self._layers):
            d_pre = np.empty((2, runs, layer.rows))
            back, d_inputs = np.empty((3, runs, layer.cols)), np.empty((2, runs, layer.cols))
            operand = np.empty((runs, layer.rows, layer.cols)) if l > 0 else None
            self._buffers += [d_pre, back, d_inputs, operand]
            layer.dma, layer.dva = _data(d_pre), _data(d_pre[1])
            layer.operand = None if operand is None else _data(operand)
            layer.back, layer.dmz, layer.dvz = _data(back), _data(d_inputs), _data(d_inputs[1])
        flat = (means, variances, means_sq, self.d_means, self.d_variances)
        self._args = _StepArgs(
            runs, weights, len(self._layers),
            ctypes.addressof(self._layers), ctypes.addressof(EXTERNALS),
            *(_address(a, (runs, weights)) for a in flat),
            _address(gamma, (2, runs)), ctypes.addressof(noise._args),
            _data(self.undo), _data(self.updates), None,
        )
        self._ref = ctypes.byref(self._args)

    def epoch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Fold n examples per run into the stack, in sequence: run r takes
        (xs[t, r], ys[t, r]) in step t, xs (n, R, d) and ys (n, R) C-contiguous
        floats. Each step runs the forward pass, the noise step and, unless
        every run skips the example, the reverse sweep and the refinement.
        Returns (3, R) int64 counts per run, summed over the examples:
        examples skipped, weights undone and weight updates. An error raised
        at step t leaves the steps before it done."""
        n, runs = ys.shape
        counts = np.empty((3, runs), dtype=np.int64)
        args = _EpochArgs(
            n, -1, _address(xs, (n, runs, self.x.shape[-1])), _address(ys, (n, runs)),
            *(_data(row) for row in counts),
        )
        status = LIB.step_epoch(self._ref, ctypes.byref(args))
        if status < 0:
            _raise(status, args.failed_run if args.failed_run >= 0 else None)
        return counts

    def forward(self) -> None:
        status = LIB.step_forward(self._ref)
        if status < 0:
            _raise(status)

    def backward(self) -> None:
        LIB.step_backward(self._ref)

    def refine(self) -> None:
        LIB.step_refine(self._ref)

    def count_phases(self) -> np.ndarray:
        """Have each step add its nanoseconds into a new int64 array, which
        is returned: one total per layer's forward pass, then the backward
        pass, then the refinement."""
        self.phase_ns = np.zeros(self._args.n_layers + 2, dtype=np.int64)
        self._args.phase_ns = _data(self.phase_ns)
        return self.phase_ns
