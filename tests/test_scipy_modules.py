"""jrmt._scipy: scipy's compiled modules, loaded from their files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

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


def run(script: str, arg: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, arg], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


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
