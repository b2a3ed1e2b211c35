"""The import-time check of the functions kernel.c calls for numpy's and
scipy's bits (kernel.resolve_externals and check_externals): a missing
symbol or a differing bit stops `import pbp` with one line, and nothing runs
in their place. And the load of scipy's log_ndtr under a stub scipy.special
package where the package is not yet imported: no stub is left behind, and
a later import of scipy.special gives the whole package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbp

# Code run before pbp is imported, and the line the import fails with: the
# BLAS lookup misses ddot or dgemm; the log_ndtr capsule holds scipy's ndtr,
# which kernel.c then calls in its place (with scipy.special imported, the
# regular path), or is missing, or cython_special cannot be imported (both
# on the stub path); numpy's ufunc of the name that pbp reads
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


def _under_a_stub(names: str) -> str:
    """Code that imports names from scipy.special under a stub package, as
    kernel does, and binds them."""
    return (
        "import sys, types, scipy\n"
        "stub = types.ModuleType('scipy.special')\n"
        "stub.__path__ = [scipy.__path__[0] + '/special']\n"
        "sys.modules['scipy.special'] = stub\n"
        f"from scipy.special import {names}\n"
        "del sys.modules['scipy.special']\n"
    )


REFUSE_CYTHON_SPECIAL = (
    "import sys\n"
    "class Refuse:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy.special.cython_special':\n"
    "            raise ImportError('refused')\n"
    "sys.meta_path.insert(0, Refuse())\n"
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
    "log-ndtr-capsule-missing-stub-path": (
        _under_a_stub("cython_special as cs")
        + "del cs.__pyx_capi__['__pyx_fuse_1log_ndtr']\n",
        "ExternalError: scipy.special.cython_special has no __pyx_fuse_1log_ndtr",
    ),
    "cython-special-import-fails-stub-path": (
        REFUSE_CYTHON_SPECIAL,
        "ExternalError: scipy.special.cython_special cannot be loaded: refused",
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


def _run(code: str, cwd) -> subprocess.CompletedProcess:
    """Python running code in a new process, in cwd, with this pbp on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(pbp.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


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
    done = _run(sabotage + train, tmp_path)
    assert done.returncode != 0
    # One line, and no traceback.
    assert done.stderr.startswith(message)
    assert len(done.stderr.strip().splitlines()) == 1
    # Nothing trained: no numpy path stands in for the kernel's externals.
    assert done.stdout == ""
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("case", [c for c in SABOTAGED_EXTERNALS if c.endswith("stub-path")])
def test_a_failed_load_under_the_stub_leaves_no_stub(tmp_path, case):
    sabotage, message = SABOTAGED_EXTERNALS[case]
    done = _run(
        sabotage + "try:\n"
        "    import pbp\n"
        "except ImportError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
        "print('scipy.special' in sys.modules)\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    failure, left = done.stdout.splitlines()
    assert failure.startswith(message)
    assert left == "False"


def test_import_pbp_leaves_no_scipy_special(tmp_path):
    done = _run(
        "import sys, pbp\n"
        "print(sorted(name for name in sys.modules if name in ('scipy', 'scipy.special')))\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['scipy']\n"


# What a process makes of scipy.special and scipy.stats after its imports:
# functions from three of the package's extension modules, its public names,
# and the bits of a scipy.stats call that runs through it.
SPECIAL_USE = (
    "import json, sys\n"
    "import numpy as np\n"
    "import scipy.special, scipy.stats\n"
    "x = np.linspace(-40.0, 40.0, 161)\n"
    "special = scipy.special\n"
    "print(json.dumps({\n"
    "    'log_ndtr': special.log_ndtr(x).tobytes().hex(),\n"
    "    'gammaln': special.gammaln(np.abs(x) + 0.5).tobytes().hex(),\n"
    "    'ellip_harm_2': float(special.ellip_harm_2(5.0, 2.5, 1, 1, 3.0)),\n"
    "    'logcdf': scipy.stats.norm.logcdf(x).tobytes().hex(),\n"
    "    'public': sorted(n for n in dir(special) if not n.startswith('_')),\n"
    "}))\n"
)


@pytest.fixture(scope="module")
def special_use_without_pbp(tmp_path_factory):
    done = _run(SPECIAL_USE, tmp_path_factory.mktemp("fresh"))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("order", ["pbp-first", "scipy-first"])
def test_scipy_special_is_whole_after_pbp_in_either_order(
    tmp_path, order, special_use_without_pbp
):
    # The log_ndtr that kernel.c calls is the one in the cython_special a
    # later import gives.
    capsule = (
        "from scipy.special import cython_special\n"
        "from pbp import kernel\n"
        "import ctypes\n"
        "get = ctypes.pythonapi.PyCapsule_GetPointer\n"
        "get.restype, get.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]\n"
        "capsule = cython_special.__pyx_capi__[kernel.LOG_NDTR_CAPSULE]\n"
        "ctypes.pythonapi.PyCapsule_GetName.restype = ctypes.c_char_p\n"
        "ctypes.pythonapi.PyCapsule_GetName.argtypes = [ctypes.py_object]\n"
        "name = ctypes.pythonapi.PyCapsule_GetName(capsule)\n"
        "assert get(capsule, name) == kernel.EXTERNALS.log_ndtr\n"
        "assert cython_special is sys.modules['scipy.special.cython_special']\n"
        "import scipy.special.cython_special as imported\n"
        "assert imported is cython_special\n"
        "assert kernel.LOG_NDTR is scipy.special.log_ndtr\n"
    )
    imports = "import pbp\n" + SPECIAL_USE if order == "pbp-first" else SPECIAL_USE + "import pbp\n"
    done = _run(imports + capsule, tmp_path)
    assert done.returncode == 0, done.stderr
    want = dict(special_use_without_pbp, public=list(special_use_without_pbp["public"]))
    if order == "pbp-first":
        # The modules loaded under the stub are not bound as attributes of
        # the package a later import makes: scipy.stats' import of
        # cython_special binds it in a fresh process, and finds it loaded
        # here. It is still imported by name, as above.
        want["public"].remove("cython_special")
    assert json.loads(done.stdout) == want


def test_without_log_ndtr_in_special_ufuncs_the_whole_package_is_imported(tmp_path):
    # A scipy whose _special_ufuncs has no log_ndtr: kernel compares against
    # scipy.special.log_ndtr of the whole package.
    done = _run(
        _under_a_stub("cython_special, _special_ufuncs")
        + "del _special_ufuncs.log_ndtr\n"
        "from pbp import kernel\n"
        "special = sys.modules['scipy.special']\n"
        "print(special.__file__ is not None, kernel.LOG_NDTR is special.log_ndtr)\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True True\n"


def test_the_check_compares_against_scipy_special_log_ndtr():
    # Whichever path loaded it, the ufunc the check compares kernel.c's
    # log_ndtr with gives the bits of the public scipy.special.log_ndtr on
    # every argument the check passes it.
    import scipy.special

    from pbp import kernel

    seen = []

    def recording(x):
        seen.append(np.array(x))
        return kernel.LOG_NDTR(x)

    kernel.check_externals(kernel.LIB, kernel.EXTERNALS, recording)
    assert seen
    if kernel.LOG_NDTR is not scipy.special.log_ndtr:
        for x in seen:
            assert kernel.LOG_NDTR(x).tobytes() == scipy.special.log_ndtr(x).tobytes()
