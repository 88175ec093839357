import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jrmt import matalg
from jrmt.errors import ValidationError
from jrmt.matalg import eig_hermitian, one_blas_thread, principal_cosines
from jrmt.randgen import SeededStream, _ginibre

ROOT = Path(__file__).resolve().parent.parent


def _random_hermitian(seed, n):
    a = _ginibre(SeededStream(seed).generator(), n, n, 1.0)
    return 0.5 * (a + a.conj().T)


def test_eig_identity():
    vals, _ = eig_hermitian(np.eye(3))
    assert np.allclose(vals, 1.0)


def test_eig_sorted_descending():
    vals, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])


def test_eig_reconstruction_residual():
    m = _random_hermitian(5, 6)
    vals, vecs = eig_hermitian(m)
    resid = np.abs(m @ vecs - vecs * vals).max()
    assert resid < 1e-9 * np.abs(m).max()
    assert np.abs(vecs @ vecs.conj().T - np.eye(6)).max() < 1e-10


def test_eig_trace_identity():
    m = _random_hermitian(8, 7)
    vals, _ = eig_hermitian(m)
    assert np.trace(m).real == pytest.approx(vals.sum(), abs=1e-9 * 7 * np.abs(m).max())


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_principal_cosines_identical_spans():
    b = np.eye(5)[:, :2]
    assert np.allclose(principal_cosines(b, b), 1.0)


def test_principal_cosines_orthogonal_spans():
    e1 = np.eye(2)[:, :1]
    e2 = np.eye(2)[:, 1:]
    assert principal_cosines(e1, e2)[0] == pytest.approx(0.0, abs=1e-14)


def test_principal_cosines_hand_value():
    e1 = np.eye(2)[:, :1]
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert principal_cosines(e1, diag)[0] == pytest.approx(0.7071067812, rel=1e-9)


def test_principal_cosines_rejects_skew_basis():
    bad = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        principal_cosines(bad, np.eye(3)[:, :2])


def test_cosines_match_compressed_projector_spectrum():
    # squared cosines are the nonzero eigenvalues of the compression
    # pi1 pi2 pi1 restricted to range(pi1)
    from jrmt.randgen import random_isometry

    n, q1, q2 = 7, 3, 4
    b1 = random_isometry(SeededStream(29, 0), n, q1)
    b2 = random_isometry(SeededStream(29, 1), n, q2)
    cos = principal_cosines(b1, b2)
    comp = b1.conj().T @ (b2 @ b2.conj().T) @ b1
    evs, _ = eig_hermitian(comp)
    assert np.abs(np.sort(cos**2) - np.sort(evs[:q1])).max() < 1e-8


# ---------------------------------------------------------------------------
# one_blas_thread


@pytest.fixture
def two_blas_threads():
    """Every found OpenBLAS set to two threads, so a restore is visible;
    the original counts come back after the test."""
    controls = matalg._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, original):
        set_(count)


def test_one_blas_thread_sets_one_thread_and_restores(two_blas_threads):
    before = [get() for get, _ in two_blas_threads]
    with one_blas_thread():
        assert [get() for get, _ in two_blas_threads] == [1] * len(two_blas_threads)
    assert [get() for get, _ in two_blas_threads] == before


def test_one_blas_thread_restores_after_exception(two_blas_threads):
    before = [get() for get, _ in two_blas_threads]
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            assert [get() for get, _ in two_blas_threads] == [1] * len(two_blas_threads)
            1 / 0
    assert [get() for get, _ in two_blas_threads] == before


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch, two_blas_threads):
    before = [get() for get, _ in two_blas_threads]
    monkeypatch.setattr(matalg, "_openblas_controls", lambda: [])
    with one_blas_thread():
        assert [get() for get, _ in two_blas_threads] == before
        x = np.eye(3) @ np.eye(3)
    assert (x == np.eye(3)).all()
    assert [get() for get, _ in two_blas_threads] == before


# reads the thread count of every OpenBLAS in /proc/self/maps without
# matalg's cached list, so a library mapped after that list was built counts
_THREADS_INSIDE_THE_BLOCK = """
import ctypes, json
from jrmt import SeededStream, one_blas_thread, sample_spectrum
from jrmt.matalg import _THREAD_SYMBOLS

def thread_counts():
    with open("/proc/self/maps", encoding="utf-8") as f:
        fields = [line.split(maxsplit=5) for line in f]
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        get = next((getattr(lib, g) for g, _ in _THREAD_SYMBOLS if hasattr(lib, g)), None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            counts[path] = get()
    return counts

with one_blas_thread():
    sample_spectrum(SeededStream(0), 40, 10, 12, "wishart")
    print(json.dumps(thread_counts()))
"""


def test_one_blas_thread_entered_before_any_lapack_call_holds_every_openblas():
    # a fresh process, so the block is entered before the first LAPACK draw
    # maps scipy's OpenBLAS
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_INSIDE_THE_BLOCK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(proc.stdout)
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    assert counts == {path: 1 for path in counts}
