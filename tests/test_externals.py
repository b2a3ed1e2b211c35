"""The import-time check of the functions kernel.c calls for numpy's and
scipy's bits (kernel.resolve_externals and check_externals): a missing
symbol or a differing bit stops `import pbp` with one line, and nothing runs
in their place."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbp

# Code run before pbp is imported, and the line the import fails with: the
# BLAS lookup misses ddot or dgemm, or the log_ndtr capsule holds scipy's ndtr, which
# kernel.c then calls in its place; numpy's ufunc of the name that pbp reads
# its exp or power loop from has no loop on doubles alone (logical_not,
# logical_and), or is one whose loop gives other bits (exp2, and
# float_power, which calls libm's pow: it differs from np.power on a few
# arguments in a thousand).
def _missing(symbol: str) -> str:
    """Code that has every ctypes lookup of symbol fail."""
    return (
        "import ctypes\n"
        "real = ctypes.CDLL.__getattr__\n"
        "def lookup(lib, name):\n"
        f"    if name == {symbol!r}:\n"
        "        raise AttributeError(name)\n"
        "    return real(lib, name)\n"
        "ctypes.CDLL.__getattr__ = lookup\n"
    )


SABOTAGED_EXTERNALS = {
    "ddot-missing": (
        _missing("scipy_cblas_ddot64_"),
        "ExternalError: numpy's BLAS has no scipy_cblas_ddot64_",
    ),
    "dgemm-missing": (
        _missing("scipy_cblas_dgemm64_"),
        "ExternalError: numpy's BLAS has no scipy_cblas_dgemm64_",
    ),
    "log-ndtr-bits-differ": (
        "from scipy.special import cython_special as cs\n"
        "cs.__pyx_capi__['__pyx_fuse_1log_ndtr'] = cs.__pyx_capi__['__pyx_fuse_1ndtr']\n",
        "ExternalError: scipy's __pyx_fuse_1log_ndtr called from kernel.c does not give",
    ),
    "exp-missing": (
        "from numpy._core import _multiarray_umath as umath\n"
        "umath.exp = umath.logical_not\n",
        "ExternalError: numpy's exp has no d->d loop, which kernel.c calls",
    ),
    "exp-bits-differ": (
        "from numpy._core import _multiarray_umath as umath\n"
        "umath.exp = umath.exp2\n",
        "ExternalError: numpy's exp loop called from kernel.c does not give the bits of np.exp",
    ),
    "power-missing": (
        "from numpy._core import _multiarray_umath as umath\n"
        "umath.power = umath.logical_and\n",
        "ExternalError: numpy's power has no dd->d loop, which kernel.c calls",
    ),
    "power-bits-differ": (
        "from numpy._core import _multiarray_umath as umath\n"
        "umath.power = umath.float_power\n",
        "ExternalError: numpy's power loop called from kernel.c does not give the bits of x ** ",
    ),
}


@pytest.mark.parametrize("case", SABOTAGED_EXTERNALS)
def test_externals_missing_or_off_by_a_bit_fail_the_import_in_one_line(tmp_path, case):
    sabotage, message = SABOTAGED_EXTERNALS[case]
    if case == "power-bits-differ":
        x = np.random.default_rng(0).uniform(-1e3, -30.0, 4000)
        if all((x**e).tobytes() == np.float_power(x, float(e)).tobytes() for e in (3, -2, -4)):
            pytest.skip("numpy's power gives the bits of libm's pow here, as float_power does")
    (tmp_path / "toy.csv").write_text("x,y\n" + "".join(f"{i / 10},{i % 3}\n" for i in range(20)))
    train = (
        "import runpy, sys\n"
        "sys.argv = ['pbp', 'train', '--data', 'toy.csv', '--out', 'm.json']\n"
        "runpy.run_module('pbp.cli', run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pbp.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", sabotage + train], env=env, cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode != 0
    # One line, and no traceback.
    assert done.stderr.startswith(message)
    assert len(done.stderr.strip().splitlines()) == 1
    # Nothing trained: no numpy path stands in for the kernel's externals.
    assert done.stdout == ""
    assert not (tmp_path / "m.json").exists()
