"""The compiled arithmetic of kernel.c: build, cache and bind.

kernel.c holds the two loops whose every step depends on the last, the EP
refresh of a stack's prior sites (which carries each run's prior-precision
Gamma from weight to weight) and the noise-precision Gamma step of a
likelihood update, and the elementwise arithmetic of a likelihood step and
of the rows passes: the linear layer's moments around its matmuls, the
rectifier around log_ndtr and exp, their reverse sweep and the refinement of
every weight. Three kinds of operation stay with numpy and scipy, whose bits
come from outside this package: the matmuls (BLAS), scipy's log_ndtr, and
numpy's exp and power (SIMD code that rounds differently from libm's exp and
pow on some arguments; power only in the rectifier's far-tail series).

kernel.c is compiled with gcc and FLAGS on first import and loaded with
ctypes. The build is cached under $XDG_CACHE_HOME/pbp (by default
~/.cache/pbp, or the temp dir when that cannot be written), named by a hash of
the source and the flags and one of `gcc --version`: a changed source or
compiler builds afresh, and a cached build loads where no compiler is found.

Each entry point takes one struct of buffer addresses, bound once (per stack
for a step's kernels, see forward.Workspace; per layer of each item in a rows
pass), so a call converts no array.
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
from .posterior import NumericError

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
    )


class _RefreshArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "weights"],
        ["means", "variances", "sites", "lam", "skipped", "change", "backup"],
        ["log_2pi"],
    )


class _SquareArgs(ctypes.Structure):
    _fields_ = _layout(["n"], ["x", "out"])


class _LinearArgs(ctypes.Structure):
    _fields_ = _layout(["n"], ["p0", "p1", "p2", "p3", "mean", "variance"], ["sqrt_cols", "cols"])


# The rows of a Rectifier's buffer, in order: log_ndtr maps the two from
# "alpha" to the two from "log_cdf", and exp the four from "log_cdf" to the
# four from "cdf". The last three hold powers of alpha_s, read where a unit
# takes the series: ** 3 by relu_post and ** -2 and ** -4 by relu_backward,
# whose struct points at those two; relu_args points at the others.
_RELU_ROWS = (
    "alpha", "neg_alpha",
    "log_cdf", "log_cdf_neg", "log_pdf", "log_ratio",
    "cdf", "cdf_neg", "pdf", "ratio",
    "sqrt_v", "v_safe", "vprime", "mean_pos", "alpha_s",
    "cube", "inv_square", "inv_fourth",
)
_RELU_ROW = {name: k for k, name in enumerate(_RELU_ROWS)}
_RELU_ARG_ROWS = _RELU_ROWS[: _RELU_ROW["inv_square"]]


class _ReluArgs(ctypes.Structure):
    _fields_ = (
        _layout(["rows", "units", "out_stride"], ["m", "v", *_RELU_ARG_ROWS, "out_m", "out_v",
                                                  "deterministic", "series"])
        + _layout(["n_deterministic", "n_series"],
                  doubles=["deterministic_variance", "series_threshold", "log_2pi"])
    )


class _ReluGradArgs(ctypes.Structure):
    _fields_ = _layout(["in_stride"], ["dmb", "dvb", "inv_square", "inv_fourth", "dma", "dva"])


class _OutputGradArgs(ctypes.Structure):
    _fields_ = _layout(["runs"], ["gamma", "y", "mean", "variance", "dma", "dva"])


class _LinearGradArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "rows", "cols", "run_stride"],
        ["m", "v", "m_sq", "dm", "dv", "zm", "zv", "dma", "dva", "operand", "products",
         "dmz", "dvz"],
        ["inv_c", "inv_s", "two_inv_c"],
    )


class _RefineArgs(ctypes.Structure):
    _fields_ = _layout(
        ["runs", "weights"],
        ["m", "v", "dm", "dv", "skipped", "undo", "updates", "gamma", "gamma_next"],
    )


def load(path: Path) -> ctypes.CDLL:
    """The library at path, its entry points declared."""
    lib = ctypes.CDLL(str(path))
    for name, args, restype in [
        ("noise_step", _NoiseArgs, ctypes.c_int64),
        ("ep_refresh", _RefreshArgs, ctypes.c_int),
        ("square", _SquareArgs, None),
        ("linear_moments", _LinearArgs, None),
        ("relu_pre", _ReluArgs, ctypes.c_int),
        ("relu_mid", _ReluArgs, None),
        ("relu_post", _ReluArgs, None),
        ("output_gradients", _OutputGradArgs, None),
        ("linear_backward_weights", _LinearGradArgs, None),
        ("linear_backward_inputs", _LinearGradArgs, None),
        ("refine", _RefineArgs, None),
    ]:
        entry = getattr(lib, name)
        entry.argtypes = [ctypes.POINTER(args)]
        entry.restype = restype
    lib.relu_backward.argtypes = [ctypes.POINTER(_ReluArgs), ctypes.POINTER(_ReluGradArgs)]
    lib.relu_backward.restype = None
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


try:
    LIB = load(build())
except CompilerError:
    _report_in_one_line()
    raise

# kernel.c's statuses, as what the Python floats it replaces raised.
_ERRORS = {
    -1: (ZeroDivisionError, "float division by zero"),
    -2: (OverflowError, "a squared value overflows"),
    -3: (NumericError, "zero weight variance: its prior-site cavity is undefined"),
    -4: (NumericError, "prior variance underflows to 0 at a flat prior site"),
    -5: (NumericError, "negative pre-activation variance (upstream bug)"),
}


def _raise(status: int):
    error, message = _ERRORS[status]
    raise error(message)


def _data(array: np.ndarray) -> int:
    """The address of array's first element: through the buffer protocol
    (faster) where array is C-contiguous, writable and not empty."""
    flags = array.flags
    if flags.c_contiguous and flags.writeable and array.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _address(array: np.ndarray, shape: tuple[int, ...], strides: tuple[int, ...] | None = None) -> int:
    """The address of a float array of shape, C-contiguous or with strides
    (in elements); ValueError for any other array."""
    if strides is None:
        laid_out = array.flags.c_contiguous
    else:  # the stride of an axis of length 1 is never taken
        laid_out = all(n == 1 or s == 8 * e for n, s, e in zip(shape, array.strides, strides))
    if array.shape != shape or array.dtype != np.float64 or not laid_out:
        layout = "C-contiguous" if strides is None else f"strides {strides} (in elements),"
        raise ValueError(
            f"expected a {layout} float64 array of shape {shape}, "
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
        )
        self._ref = ctypes.byref(self._args)
        self._call = LIB.noise_step

    def __call__(self) -> int:
        """The number of runs whose example is skipped."""
        status = self._call(self._ref)
        if status < 0:
            _raise(status)
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
        )
        self._ref = ctypes.byref(self._args)
        self._call = LIB.ep_refresh

    def __call__(self) -> None:
        status = self._call(self._ref)
        if status < 0:
            _raise(status)


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
    forward.forward_linear); moments() writes `out` from the products. out
    is a pair of given C-contiguous (*rows, units) arrays, or new ones.
    """

    def __init__(self, zm: np.ndarray, units: int, out: tuple[np.ndarray, np.ndarray] | None = None):
        cols = zm.shape[-1]
        shape = zm.shape[:-1] + (units,)
        self.zm_sq = np.empty_like(zm)
        self.products = [np.empty(shape) for _ in range(4)]
        self.out = out if out is not None else (np.empty(shape), np.empty(shape))
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


def _rows_of(first: np.ndarray, second: np.ndarray, shape: tuple[int, ...]) -> int:
    """The row stride shared by two arrays of shape whose rows of units (the
    last axis) are evenly spaced; ValueError for any other pair."""
    stride = _row_stride(first, shape[-1])
    if stride is None or _row_stride(second, shape[-1]) != stride or first.shape != shape:
        raise ValueError(f"expected two arrays of shape {shape} with evenly spaced rows of units")
    return stride


class Rectifier:
    """The rectifier's arithmetic, bound to C-contiguous pre-activation moments
    m, v of one shape, rows of units (the last axis), and to output arrays
    out_m, out_v of that shape whose rows of units are evenly spaced
    (_row_stride).

    pre() checks the variances and forms alpha and the other arguments of
    log_ndtr and exp; the caller maps `log_ndtr_args` to `log_ndtr_values`,
    and after mid() `exp_args` to `exp_values`; post() writes the moments.
    Each row of `buf` (see _RELU_ROWS) is an attribute of m's shape, valid
    until the next call, and `deterministic` and `series` flag the units that
    take those branches, which pre() counts. Where a unit takes the series
    branch, the caller fills `cube` before post() and `inv_square` and
    `inv_fourth` before backward().
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
        rows = self.buf.reshape((len(_RELU_ROWS), *shape))
        self.__dict__.update(zip(_RELU_ROWS, rows))
        row = _RELU_ROW
        self.log_ndtr_args = rows[row["alpha"] : row["alpha"] + 2]
        self.log_ndtr_values = rows[row["log_cdf"] : row["log_cdf"] + 2]
        self.exp_args = rows[row["log_cdf"] : row["log_cdf"] + 4]
        self.exp_values = rows[row["cdf"] : row["cdf"] + 4]
        self.deterministic, self.series = self._flags.view(bool).reshape((2, *shape))
        self._buffers = (m, v, out_m, out_v)
        base, flags = _data(self.buf), _data(self._flags)
        self._args = _ReluArgs(
            n // shape[-1], shape[-1], _rows_of(out_m, out_v, shape),
            _address(m, shape), _address(v, shape),
            *(base + k * 8 * n for k in range(len(_RELU_ARG_ROWS))),
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

    def pre(self) -> None:
        status = LIB.relu_pre(self._ref)
        if status < 0:
            _raise(status)

    def mid(self) -> None:
        LIB.relu_mid(self._ref)

    def post(self) -> None:
        LIB.relu_post(self._ref)

    def bind_gradients(self, dmb: np.ndarray, dvb: np.ndarray, dma: np.ndarray, dva: np.ndarray) -> None:
        """Bind backward() to the gradients w.r.t. the output moments, dmb and
        dvb (evenly spaced rows of units), and to those w.r.t. the
        pre-activation moments that it writes, dma and dva (C-contiguous),
        all of m's shape."""
        shape = self.shape
        self._gradients = (dmb, dvb, dma, dva)
        self._grad_args = _ReluGradArgs(
            _rows_of(dmb, dvb, shape), _data(dmb), _data(dvb),
            _data(self.inv_square), _data(self.inv_fourth),
            _address(dma, shape), _address(dva, shape),
        )
        self._grad_ref = ctypes.byref(self._grad_args)

    def backward(self) -> None:
        LIB.relu_backward(self._ref, self._grad_ref)


class OutputGradients:
    """output_gradients bound to a stack's (2, R) noise Gammas, the targets y
    and output moments (mean, variance) of one example per run, and the
    (R,) gradients of log Z w.r.t. the output moments it writes."""

    def __init__(self, gamma, y, mean, variance, dma, dva):
        runs = gamma.shape[-1]
        arrays = (gamma, y, mean, variance, dma, dva)
        self._buffers = arrays
        self._args = _OutputGradArgs(
            runs, _address(gamma, (2, runs)), *(_address(a.reshape(-1), (runs,)) for a in arrays[1:])
        )
        self._ref = ctypes.byref(self._args)

    def __call__(self) -> None:
        LIB.output_gradients(self._ref)


class LinearBackward:
    """The reverse sweep through one layer of a stack, bound to its (R, rows,
    cols) views of the flat (R, W) `means`, `variances`, squared means and
    gradient buffers, to its (R, 1, cols) input moments zm, zv and to the
    (R, 1, rows) gradients `dma`, `dva` w.r.t. its output moments.

    weights() writes the weight gradients and, for a layer with inputs, the
    (R, rows, cols) `operand` M*M + V (None for the input layer); the caller
    then fills `products` (3, R, 1, cols) with dma @ M, dva @ V and dva @
    operand, and inputs() writes the gradients w.r.t. the input moments,
    `d_inputs` (2, R, 1, cols).
    """

    def __init__(self, means, variances, means_sq, d_means, d_variances, zm, zv, dma, dva, inputs):
        runs, rows, cols = means.shape
        run_stride = means.strides[0] // 8
        layer = (runs, rows, cols)
        strided = (run_stride, cols, 1)
        self.operand = np.empty(layer) if inputs else None
        self.products = np.empty((3, runs, 1, cols))
        self.d_inputs = np.empty((2, runs, 1, cols))
        self.means, self.variances, self.dma, self.dva = means, variances, dma, dva
        self._buffers = (means_sq, d_means, d_variances, zm, zv)
        self._args = _LinearGradArgs(
            runs, rows, cols, run_stride,
            *(_address(a, layer, strided) for a in (means, variances, means_sq, d_means, d_variances)),
            _address(zm, (runs, 1, cols)),
            _address(zv, (runs, 1, cols)),
            _address(dma, (runs, 1, rows)),
            _address(dva, (runs, 1, rows)),
            None if self.operand is None else _data(self.operand),
            _data(self.products),
            _data(self.d_inputs),
            _data(self.d_inputs[1]),
            1.0 / cols,
            1.0 / math.sqrt(cols),
            2.0 * (1.0 / cols),
        )
        self._ref = ctypes.byref(self._args)

    def weights(self) -> None:
        LIB.linear_backward_weights(self._ref)

    def inputs(self) -> None:
        LIB.linear_backward_inputs(self._ref)


class Refine:
    """refine bound to a stack's (R, W) means, variances and their gradients,
    the (R,) skip flags and (2, R) matched Gammas of a NoiseStep, and the
    stack's (2, R) noise Gammas. Each call writes `undo` (weights rolled
    back) and `updates` (weights refined, 0 for a skipped run) per run."""

    def __init__(self, means, variances, d_means, d_variances, noise: NoiseStep):
        runs, weights = means.shape
        self.undo = np.empty(runs, dtype=np.int64)
        self.updates = np.empty(runs, dtype=np.int64)
        flat = (runs, weights)
        self._buffers = (means, variances, d_means, d_variances, noise)
        self._args = _RefineArgs(
            runs, weights,
            *(_address(a, flat) for a in (means, variances, d_means, d_variances)),
            _data(noise.skipped),
            _data(self.undo),
            _data(self.updates),
            _address(noise.gamma, (2, runs)),
            _data(noise.gamma_next),
        )
        self._ref = ctypes.byref(self._args)

    def __call__(self) -> None:
        LIB.refine(self._ref)
