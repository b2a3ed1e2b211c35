"""The compiled arithmetic of kernel.c: build, cache and bind.

kernel.c holds the two loops whose every step depends on the last, the EP
refresh of a stack's prior sites (which carries each run's prior-precision
Gamma from weight to weight) and the noise-precision Gamma step of a
likelihood update; the likelihood step (Step), whose epoch() folds n
examples per run in sequence, each through every layer's moments and
rectifier, the noise step, the reverse sweep and the refinement of every
weight; and the elementwise arithmetic of a rows pass around its matmuls: a
layer's moments (LinearForward) and its whole rectifier (Rectifier).

Some bits come from outside this package. The step's matmuls call numpy's
bundled OpenBLAS (BLAS_SYMBOLS) as np.matmul does for one row, every
rectifier's log_ndtr scipy's (LOG_NDTR_CAPSULE), and its exp and far-tail
powers the 'd->d' loop of np.exp and the 'dd->d' loop of np.power (SIMD code
that rounds differently from libm's exp and pow on some arguments), read
from the ufunc objects. All are resolved once, at import, and checked
against np.matmul, scipy.special.log_ndtr, np.exp and np.power
(check_externals); a missing symbol or loop or a differing bit fails the
import with one line, an ExternalError, and there is no other path. A rows
pass keeps numpy's matmuls (gemm for its rows).

kernel.c is compiled with gcc and FLAGS on first import and loaded with
ctypes. The build is cached under $XDG_CACHE_HOME/pbp (by default
~/.cache/pbp, or the temp dir when that cannot be written), named by a hash of
the source and the flags and one of `gcc --version`: a changed source or
compiler builds afresh, and a cached build loads where no compiler is found.
kernel.c links against nothing but libm; the external functions reach it as
pointers.

Each entry point takes one struct of buffer addresses, bound once (per stack
for a step, see Step; per layer of each item in a rows pass), so a call
converts no array; an epoch binds its examples per call.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from .gauss import LOG_2PI
from .posterior import NumericError, layer_views

SOURCE = Path(__file__).with_name("kernel.c")
COMPILER = "gcc"
# No fused multiply-add, and pow, exp and log left to the process's libm:
# the bits of the Python floats and numpy arrays the kernel replaces. -O3
# and -fno-math-errno let gcc vectorize loops (sqrt included), which rounds
# every operation as the scalar code does.
FLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
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


def build(flags: tuple[str, ...] = FLAGS) -> Path:
    """The shared library of kernel.c built with flags: cached, or compiled
    into the first cache directory that can be written. Raises CompilerError
    when there is neither."""
    stem = "kernel-" + _digest(SOURCE.read_bytes(), flags)
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


def _layout(ints=(), pointers=(), doubles=()):
    """The _fields_ of a C struct of int64s, then pointers, then doubles."""
    return (
        [(name, ctypes.c_int64) for name in ints]
        + [(name, ctypes.c_void_p) for name in pointers]
        + [(name, ctypes.c_double) for name in doubles]
    )


class _NoiseArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs"], ["moments", "gamma", "gamma_next", "log_z", "skipped", "targets"], ["log_2pi"]
    ) + _layout(["failed_run"])


class _RefreshArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "weights"],
        ["means", "variances", "sites", "lam", "skipped", "change", "backup"],
        ["log_2pi"],
    ) + _layout(["failed_run"])


class _SquareArgs(ctypes.Structure):
    _fields_ = _layout(["n"], ["x", "out"])


class _LinearArgs(ctypes.Structure):
    _fields_ = _layout(["n"], ["p0", "p1", "p2", "p3", "mean", "variance"], ["sqrt_cols", "cols"])


# The rows of a Rectifier's buffer, in order: log_ndtr maps the two from
# "alpha" to the two from "log_cdf", and exp the four from "log_cdf" to the
# four from "cdf". The last three hold powers of alpha_s, written where a
# unit takes the series: ** 3 for relu_post, ** -2 and ** -4 for the step's
# reverse sweep.
_RELU_ROWS = (
    "alpha", "neg_alpha",
    "log_cdf", "log_cdf_neg", "log_pdf", "log_ratio",
    "cdf", "cdf_neg", "pdf", "ratio",
    "sqrt_v", "v_safe", "vprime", "mean_pos", "alpha_s",
    "cube", "inv_square", "inv_fourth",
)


class _ReluArgs(ctypes.Structure):
    _fields_ = (
        _layout(["rows", "units", "out_stride"], ["m", "v", *_RELU_ROWS, "out_m", "out_v",
                                                  "deterministic", "series"])
        + _layout(["n_deterministic", "n_series"],
                  doubles=["deterministic_variance", "series_threshold", "log_2pi"])
    )


class _Externals(ctypes.Structure):
    _fields_ = _layout(
        pointers=["dgemv", "ddot", "log_ndtr", "exp", "power", "exp_data", "power_data"]
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
    _fields_ = _layout(
        ["n", "inputs"], ["xs", "ys", "skipped", "undo", "updates"]
    ) + _layout(["failed_run"])


def load(path: Path) -> ctypes.CDLL:
    """The library at path, its entry points declared."""
    lib = ctypes.CDLL(str(path))
    for name, args, restype in [
        ("noise_step", _NoiseArgs, ctypes.c_int64),
        ("ep_refresh", _RefreshArgs, ctypes.c_int),
        ("square", _SquareArgs, None),
        ("linear_moments", _LinearArgs, None),
        ("step_forward", _StepArgs, ctypes.c_int),
        ("step_backward", _StepArgs, None),
        ("step_refine", _StepArgs, None),
    ]:
        entry = getattr(lib, name)
        entry.argtypes = [ctypes.POINTER(args)]
        entry.restype = restype
    externals, integer, address = ctypes.POINTER(_Externals), ctypes.c_int64, ctypes.c_void_p
    lib.step_epoch.argtypes = [ctypes.POINTER(_StepArgs), ctypes.POINTER(_EpochArgs)]
    lib.rectify.argtypes = [externals, ctypes.POINTER(_ReluArgs)]
    lib.step_epoch.restype = lib.rectify.restype = ctypes.c_int
    lib.matvec.argtypes = [externals, *[integer] * 5, *[address] * 3]
    lib.log_ndtr_n.argtypes = lib.exp_n.argtypes = [externals, integer, address, address]
    lib.power_n.argtypes = [externals, integer, address, ctypes.c_double, address]
    lib.matvec.restype = lib.log_ndtr_n.restype = lib.exp_n.restype = lib.power_n.restype = None
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
    scipy.special.log_ndtr there."""


# The functions kernel.c calls for the bits of np.matmul (numpy's bundled
# OpenBLAS, whose 64-bit-integer CBLAS carries this prefix and suffix), of
# scipy.special.log_ndtr (its double version in cython_special), and of
# np.exp and np.power (the loops on doubles of the ufuncs of these names in
# numpy's _multiarray_umath).
BLAS_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")
LOG_NDTR_CAPSULE = "__pyx_fuse_1log_ndtr"
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


def resolve_externals() -> _Externals:
    """The function pointers of BLAS_SYMBOLS, looked up in the BLAS that
    numpy's multiarray module loaded, of scipy's log_ndtr, and of the loops
    on doubles of UFUNCS, read from numpy's ufunc objects; ExternalError
    when one is missing."""
    from numpy._core import _multiarray_umath
    from scipy.special import cython_special

    blas = ctypes.CDLL(_multiarray_umath.__file__)
    pointers = []
    for name in BLAS_SYMBOLS:
        try:
            pointers.append(ctypes.cast(getattr(blas, name), ctypes.c_void_p).value)
        except AttributeError:
            raise ExternalError(f"numpy's BLAS has no {name}, which kernel.c calls") from None
    capsule = cython_special.__pyx_capi__.get(LOG_NDTR_CAPSULE)
    if capsule is None:
        raise ExternalError(f"scipy.special.cython_special has no {LOG_NDTR_CAPSULE}")
    api, capsule_t = ctypes.pythonapi, ctypes.py_object
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, capsule_t)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, capsule_t, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    (exp, exp_data), (power, power_data) = (_double_loop(ufunc) for ufunc in UFUNCS)
    return _Externals(*pointers, pointer(capsule, name(capsule)), exp, power, exp_data, power_data)


def check_externals(lib: ctypes.CDLL, externals: _Externals) -> None:
    """ExternalError unless kernel.c's matvec, log_ndtr_n, exp_n and power_n,
    through externals, give the bits of np.matmul, scipy.special.log_ndtr,
    np.exp and the powers x ** 3, ** -2 and ** -4 on a few seeded cases:
    each branch of matvec, with rows of zeros, whose products are signed
    zeros; log_ndtr at infinities, NaN, signed zeros and the edges of its
    branches; and exp and the powers at infinities, NaN, signed zeros and
    exp's underflow and overflow edges, on slices of several starts and
    lengths."""
    from scipy.special import log_ndtr

    rng = np.random.default_rng(18)
    ref = ctypes.byref(externals)
    for transposed, rows, cols in [(1, 1, 5), (1, 7, 4), (0, 1, 6), (0, 6, 3)]:
        m = rng.normal(size=(3, rows, cols))
        x = rng.normal(size=(3, cols if transposed else rows))
        x[1] = 0.0
        want = x[:, None, :] @ (m.swapaxes(-1, -2) if transposed else m)
        got = np.empty(want.shape)
        lib.matvec(ref, transposed, 3, rows, cols, rows * cols, _data(m), _data(x), _data(got))
        if got.tobytes() != want.tobytes():
            raise ExternalError(
                f"numpy's {' and '.join(BLAS_SYMBOLS)} called from kernel.c do not give the "
                f"bits of np.matmul on a {x.shape[1:]} x {m.shape[1:]} product"
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
    # Slices of several starts, and lengths that are not multiples of 8.
    slices = [slice(0, None), slice(1, 14), slice(3, 10), slice(5, 6)]
    with np.errstate(all="ignore"):
        for part in (x[k] for k in slices):
            got = np.empty_like(part)
            lib.exp_n(ref, part.size, _data(part), _data(got))
            if got.tobytes() != np.exp(part).tobytes():
                raise ExternalError(
                    "numpy's exp loop called from kernel.c does not give the bits of np.exp "
                    f"on {part.size} values"
                )
        for part in (x_pow[k] for k in slices):
            got = np.empty_like(part)
            for exponent in (3, -2, -4):
                lib.power_n(ref, part.size, _data(part), float(exponent), _data(got))
                if got.tobytes() != (part**exponent).tobytes():
                    raise ExternalError(
                        "numpy's power loop called from kernel.c does not give the bits of "
                        f"x ** {exponent} on {part.size} values"
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
    flags = array.flags
    if flags.c_contiguous and flags.writeable and array.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
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


def _row_stride(array: np.ndarray, units: int) -> int | None:
    """The distance, in elements, between the rows of units (the last axis)
    of a float array whose leading axes flatten into one axis of evenly
    spaced rows; None for any other array. An axis of length 1 takes no
    step, so its stride does not count."""
    shape, strides = array.shape, array.strides
    if array.dtype != np.float64 or shape[-1:] != (units,) or (units > 1 and strides[-1] != 8):
        return None
    row_bytes = expected = None
    for n, step in zip(reversed(shape[:-1]), reversed(strides[:-1])):
        if n == 1:
            continue
        if row_bytes is None:
            row_bytes = step
        elif step != expected:
            return None
        expected = step * n
    if row_bytes is None:
        return units
    return row_bytes // 8 if row_bytes % 8 == 0 else None


try:
    LIB = load(build())
    EXTERNALS = resolve_externals()
    check_externals(LIB, EXTERNALS)
except CompilerError:
    _report_in_one_line()
    raise


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
            self.moments.ctypes.data,
            _address(gamma, (2, runs)),
            self.gamma_next.ctypes.data,
            self.log_z.ctypes.data,
            self.skipped.ctypes.data,
            self.targets.ctypes.data,
            LOG_2PI,
            -1,
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
            _address(means, (runs, weights)),
            _address(variances, (runs, weights)),
            _address(sites, (4, runs, weights)),
            _address(lam, (2, runs)),
            self.skipped.ctypes.data,
            self.change.ctypes.data,
            backup.ctypes.data,
            LOG_2PI,
            -1,
        )
        self._ref = ctypes.byref(self._args)
        self._call = LIB.ep_refresh

    def __call__(self) -> None:
        status = self._call(self._ref)
        if status < 0:
            _raise(status, self._args.failed_run)


class Square:
    """square bound to a C-contiguous array x and out, of its shape: out = x * x."""

    def __init__(self, x: np.ndarray, out: np.ndarray):
        self._buffers = (x, out)
        self._args = _SquareArgs(x.size, _address(x, x.shape), _address(out, x.shape))
        self._ref = ctypes.byref(self._args)

    def __call__(self) -> None:
        LIB.square(self._ref)


def squared(x: np.ndarray) -> np.ndarray:
    """x * x, a new C-contiguous array."""
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty_like(x)
    Square(x, out)()
    return out


class LinearForward:
    """A layer's moments around its four matmuls, bound to its input means zm
    (*rows, cols), C-contiguous, for a layer of `units` output units.

    `zm_sq` (zm * zm, from square()) and the four (*rows, units) `products`
    hold an operand and the results of the matmuls (see
    forward.forward_linear); moments() writes the pair `out` of new
    (*rows, units) arrays from the products.
    """

    def __init__(self, zm: np.ndarray, units: int):
        cols = zm.shape[-1]
        shape = zm.shape[:-1] + (units,)
        self.zm_sq = np.empty_like(zm)
        self.products = [np.empty(shape) for _ in range(4)]
        self.out = (np.empty(shape), np.empty(shape))
        self.square = Square(zm, self.zm_sq)
        self._args = _LinearArgs(
            math.prod(shape),
            *(_data(p) for p in self.products),
            _address(self.out[0], shape),
            _address(self.out[1], shape),
            math.sqrt(cols),
            cols,
        )
        self._ref = ctypes.byref(self._args)

    def moments(self) -> None:
        LIB.linear_moments(self._ref)


def bias_extended(rows: tuple[int, ...], units: int) -> np.ndarray:
    """Moments (mean, variance), (2, *rows, units + 1), of rows of units and
    a bias unit of mean 1 and variance 0 after them, the units' variances 0
    and their means left to the caller."""
    z = np.empty((2, *rows, units + 1))
    z[1] = 0.0
    z[0, ..., -1] = 1.0
    return z


def _rows_of(first: np.ndarray, second: np.ndarray, shape: tuple[int, ...]) -> int:
    """The row stride shared by two arrays of shape whose rows of units (the
    last axis) are evenly spaced; ValueError for any other pair."""
    stride = _row_stride(first, shape[-1])
    if stride is None or _row_stride(second, shape[-1]) != stride or first.shape != shape:
        raise ValueError(f"expected two arrays of shape {shape} with evenly spaced rows of units")
    return stride


class Rectifier:
    """The rectifier (kernel.c's rectify), bound to C-contiguous
    pre-activation moments m, v of one shape, rows of units (the last axis),
    and to output arrays out_m, out_v of that shape whose rows of units are
    evenly spaced (_row_stride).

    Each call checks the variances and writes the moments, log_ndtr, exp
    and, where some unit takes the far-tail series, the powers of alpha_s
    included. Each row of `buf` (see _RELU_ROWS) is an attribute of m's
    shape, valid until the next call, and `deterministic` and `series` flag
    the units that take those branches, which each call counts.
    """

    def __init__(
        self,
        m: np.ndarray,
        v: np.ndarray,
        out_m: np.ndarray,
        out_v: np.ndarray,
        deterministic_variance: float,
        series_threshold: float,
    ):
        shape, n = m.shape, m.size
        self.shape = shape
        self.buf = np.empty((len(_RELU_ROWS), n))
        self._flags = np.zeros((2, n), dtype=np.uint8)
        self.__dict__.update(zip(_RELU_ROWS, self.buf.reshape((len(_RELU_ROWS), *shape))))
        self.deterministic, self.series = self._flags.view(bool).reshape((2, *shape))
        self._buffers = (m, v, out_m, out_v)
        base, flags = _data(self.buf), _data(self._flags)
        self._args = _ReluArgs(
            n // shape[-1], shape[-1], _rows_of(out_m, out_v, shape),
            _address(m, shape), _address(v, shape),
            *(base + k * 8 * n for k in range(len(_RELU_ROWS))),
            _data(out_m), _data(out_v), flags, flags + n,
            0, 0,
            deterministic_variance, series_threshold, LOG_2PI,
        )
        self._ref = ctypes.byref(self._args)

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


class Step:
    """A stack's likelihood step, in kernel.c's step_epoch, with the buffers
    it works in: bound to the stack's flat (R, W) weight means and
    variances, layer after layer as in layer_sizes, and (2, R) noise Gammas
    gamma.

    Per layer, one row per run: the bias-extended input moments, whose unit
    slots `x` take the inputs and the others the previous rectifier's
    output; and for a hidden layer the pre-activation moments and the
    Rectifier bound to them (`rectifiers`), whose buffers keep its
    intermediates. The output layer's moments are the output moments mz, vz
    of the NoiseStep `noise`.

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

    def __init__(self, means, variances, gamma, layer_sizes, deterministic_variance, series_threshold):
        runs, weights = means.shape
        self.noise = noise = NoiseStep(gamma)
        self.d_means, self.d_variances, means_sq = (np.empty_like(means) for _ in range(3))
        self.d_mean_views = layer_views(self.d_means, layer_sizes)
        self.d_variance_views = layer_views(self.d_variances, layer_sizes)
        self.undo, self.updates = np.empty((2, runs), dtype=np.int64)
        self.phase_ns = None
        self.rectifiers = []
        self._layers = layers = (_LayerArgs * (len(layer_sizes) - 1))()
        self._buffers = [means, variances, means_sq]
        z = bias_extended((runs, 1), layer_sizes[0])
        self.x = z[0, :, :, :-1]
        offset = 0
        for l, rows in enumerate(layer_sizes[1:]):
            cols = layer_sizes[l] + 1
            if l < len(layer_sizes) - 2:
                pre, below, z = np.empty((2, runs, 1, rows)), z, bias_extended((runs, 1), rows)
                self.rectifiers.append(
                    Rectifier(*pre, *z[:, :, :, :-1], deterministic_variance, series_threshold)
                )
            else:
                pre, below = noise.moments[1:, :, None, None], z
            scratch, d_pre = np.empty(runs * (cols + 4 * rows)), np.empty((2, runs, rows))
            back, d_inputs = np.empty((3, runs, cols)), np.empty((2, runs, cols))
            operand = np.empty((runs, rows, cols)) if l > 0 else None
            self._buffers += [below, pre, scratch, d_pre, back, d_inputs, operand]
            layers[l] = _LayerArgs(
                rows, cols, offset,
                *(_address(a, (runs, 1, cols)) for a in below), _data(scratch),
                *(_address(a, (runs, 1, rows)) for a in pre),
                ctypes.addressof(self.rectifiers[l]._args) if l < len(self.rectifiers) else None,
                _data(d_pre), _data(d_pre[1]), None if operand is None else _data(operand),
                _data(back), _data(d_inputs), _data(d_inputs[1]),
            )
            offset += rows * cols
        flat = (means, variances, means_sq, self.d_means, self.d_variances)
        self._args = _StepArgs(
            runs, weights, len(layers),
            ctypes.addressof(layers), ctypes.addressof(EXTERNALS),
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
            n, self.x.shape[-1],
            _address(xs, (n, runs, self.x.shape[-1])), _address(ys, (n, runs)),
            *(_data(row) for row in counts), -1,
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
