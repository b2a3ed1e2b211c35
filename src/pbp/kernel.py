"""The compiled Gamma chains of kernel.c: build, cache and bind.

kernel.c holds the two loops whose every step depends on the last: the EP
refresh of a stack's prior sites, which carries each run's prior-precision
Gamma from weight to weight, and the noise-precision Gamma step of a
likelihood update. It is compiled with gcc and FLAGS on first import and
loaded with ctypes. The build is cached under $XDG_CACHE_HOME/pbp (by default
~/.cache/pbp, or the temp dir when that cannot be written), named by a hash of
the source and the flags and one of `gcc --version`: a changed source or
compiler builds afresh, and a cached build loads where no compiler is found.

Each entry point takes one struct of buffer addresses, bound once per stack
(NoiseStep, Refresh), so a call converts no array.
"""

from __future__ import annotations

import ctypes
import hashlib
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
# the bits of the Python floats the kernel replaces.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
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


class _NoiseArgs(ctypes.Structure):
    _fields_ = [
        ("runs", ctypes.c_int64),
        ("moments", ctypes.c_void_p),
        ("gamma", ctypes.c_void_p),
        ("gamma_next", ctypes.c_void_p),
        ("log_z", ctypes.c_void_p),
        ("skipped", ctypes.c_void_p),
        ("log_2pi", ctypes.c_double),
    ]


class _RefreshArgs(ctypes.Structure):
    _fields_ = [
        ("runs", ctypes.c_int64),
        ("weights", ctypes.c_int64),
        ("means", ctypes.c_void_p),
        ("variances", ctypes.c_void_p),
        ("sites", ctypes.c_void_p),
        ("lam", ctypes.c_void_p),
        ("skipped", ctypes.c_void_p),
        ("change", ctypes.c_void_p),
        ("backup", ctypes.c_void_p),
        ("log_2pi", ctypes.c_double),
    ]


def load(path: Path) -> ctypes.CDLL:
    """The library at path, its entry points declared."""
    lib = ctypes.CDLL(str(path))
    lib.noise_step.argtypes = [ctypes.POINTER(_NoiseArgs)]
    lib.noise_step.restype = ctypes.c_int64
    lib.ep_refresh.argtypes = [ctypes.POINTER(_RefreshArgs)]
    lib.ep_refresh.restype = ctypes.c_int
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
}


def _raise(status: int):
    error, message = _ERRORS[status]
    raise error(message)


def _address(array: np.ndarray, shape: tuple[int, ...]) -> int:
    """The address of a C-contiguous float array of shape; ValueError for any
    other array."""
    if array.shape != shape or array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ValueError(
            f"expected a C-contiguous float64 array of shape {shape}, "
            f"got {array.dtype} {array.shape}"
        )
    return array.ctypes.data


class NoiseStep:
    """noise_step bound to a stack's (2, R) noise Gammas (shapes, rates).

    Each call reads the targets y and output moments mz, vz of one example per
    run, and writes each run's skip flag, its log-normalisers of the Gaussian
    collapse at shape + 0, 1, 2 (NaN where skipped) and its moment-matched
    Gamma into gamma_next, leaving gamma itself to the caller.
    """

    def __init__(self, gamma: np.ndarray):
        runs = gamma.shape[-1]
        self.moments = np.zeros((3, runs))
        self.y, self.mz, self.vz = self.moments
        self.log_z = np.empty((3, runs))
        self.skipped = np.empty(runs, dtype=bool)
        self.gamma_next = np.empty((2, runs))
        self.gamma = gamma  # kept alive while the kernel holds its address
        self._args = _NoiseArgs(
            runs,
            self.moments.ctypes.data,
            _address(gamma, (2, runs)),
            self.gamma_next.ctypes.data,
            self.log_z.ctypes.data,
            self.skipped.ctypes.data,
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
