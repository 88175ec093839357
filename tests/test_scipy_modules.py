"""jrmt._scipy: scipy's compiled modules, loaded from their files."""

import json

import pytest

from tests.fresh import run_python

_HANDLES = """
import json, sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.special
import numpy as np
from jrmt import SeededStream, airy_kernel, bessel_kernel, sample_spectrum
from jrmt._scipy import load
airy_kernel(0.5, 1.0)
bessel_kernel(1, 0.5, 1.0)
for route in ("wishart", "tridiagonal"):
    sample_spectrum(SeededStream(0), 20, 5, 8, route)
import scipy.linalg, scipy.linalg.lapack, scipy.special
special, lapack = load("scipy.special"), load("scipy.linalg.lapack")
print(json.dumps({
    "modules": [special.__name__, lapack.__name__],
    "airy": special.airy is scipy.special.airy,
    "jv": special.jv is scipy.special.jv,
    "zhegvd": lapack.zhegvd is scipy.linalg.lapack.zhegvd
    is scipy.linalg.get_lapack_funcs("hegvd", dtype=np.complex128),
    "dstebz": lapack.dstebz is scipy.linalg.lapack.dstebz
    is scipy.linalg.get_lapack_funcs("stebz", dtype=np.float64),
    "dstevd": lapack.dstevd is scipy.linalg.lapack.dstevd
    is scipy.linalg.get_lapack_funcs("stevd", dtype=np.float64),
}))
"""

_BITS = """
import hashlib, json, sys
from jrmt import _scipy
if sys.argv[1] == "miss":
    _scipy._COMPILED = {public: name + "_absent" for public, name in _scipy._COMPILED.items()}
from jrmt import SeededStream, sample_largest, sample_spectrum, tracy_widom_cdf
wishart = sample_spectrum(SeededStream(3), 40, 10, 12, "wishart")
print(json.dumps({
    "tw": tracy_widom_cdf(-1.8).hex(),
    "wishart": hashlib.sha256(wishart.tobytes()).hexdigest(),
    "top": sample_largest(SeededStream(4), 40, 10, 12).hex(),
    "modules": [_scipy.load("scipy.special").__name__, _scipy.load("scipy.linalg.lapack").__name__],
}))
"""


def run(script: str, *args: str, threads=None) -> dict:
    return json.loads(run_python("-c", script, *args, threads=threads).stdout)


@pytest.mark.parametrize("order", ["jrmt-first", "scipy-first"])
def test_compiled_handles_are_scipys_public_functions(order):
    # fresh processes: whichever side loads the compiled modules first, the
    # other finds them in sys.modules, so jrmt calls the very functions that
    # scipy.special and scipy.linalg hand out
    out = run(_HANDLES, order)
    assert out.pop("modules") == ["scipy.special._special_ufuncs", "scipy.linalg._flapack"]
    assert out == {name: True for name in ("airy", "jv", "zhegvd", "dstebz", "dstevd")}


def test_missing_compiled_file_falls_back_to_the_public_module():
    # a scipy without these private files gets the public modules, which
    # export the same functions, so every value keeps its bits
    hit, miss = run(_BITS, "hit"), run(_BITS, "miss")
    assert hit.pop("modules") == ["scipy.special._special_ufuncs", "scipy.linalg._flapack"]
    assert miss.pop("modules") == ["scipy.special", "scipy.linalg.lapack"]
    assert miss == hit


_RENAMED = """
import contextlib, io, json, sys
import scipy.linalg.lapack
from jrmt import _scipy, matalg
from jrmt.cli import main
# a scipy whose compiled LAPACK module goes by a name that _COMPILED does not know
sys.modules["scipy.linalg._flapack_renamed"] = sys.modules.pop("scipy.linalg._flapack")
_scipy._COMPILED = {public: name + "_absent" for public, name in _scipy._COMPILED.items()}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
with matalg.one_blas_thread():
    held = [get() for get, _ in matalg._openblas_controls()]
print(json.dumps({"code": code, "stdout": out.getvalue(), "held": held}))
"""


def test_a_renamed_compiled_module_falls_back_to_the_public_module():
    # the BLAS hold finds scipy's OpenBLAS through the extension module that
    # scipy.linalg.lapack imported, whatever its name, and holds it and
    # numpy's at one thread; the draw keeps the bytes of a normal run
    argv = ["sample", "--n", "40", "--q", "10", "--qtilde", "12", "--route", "wishart"]
    normal = run_python("-m", "jrmt", *argv).stdout
    out = run(_RENAMED, *argv, threads=2)
    assert out == {"code": 0, "stdout": normal, "held": [1, 1]}
