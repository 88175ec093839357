"""Dense Hermitian helpers: eigendecomposition, principal angles, BLAS threads."""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError

__all__ = ["eig_hermitian", "one_blas_thread", "principal_cosines"]

# asymmetry of a Hermitian input, and deviation of an orthonormal basis,
# allowed as floating-point construction noise
_HERM_TOL = 1e-12
_ORTHO_TOL = 1e-10

# (get, set) thread-count symbols, first match wins: numpy's 64-bit-integer
# scipy-openblas, scipy's 32-bit one, then a plain system OpenBLAS
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into the process.

    Reads the mapped library paths from /proc/self/maps; empty where there is
    no /proc or no OpenBLAS.  Importing ``jrmt`` loads neither scipy.linalg
    nor its OpenBLAS, so this loads scipy.linalg first: otherwise a draw that
    reaches LAPACK after the first call would map scipy's library unseen, at
    its default thread count.
    """
    import scipy.linalg  # maps scipy's OpenBLAS before the scan below

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            fields = [line.split(maxsplit=5) for line in f]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread.

    Restores each library's previous thread count on exit, also when the
    body raises; does nothing where no OpenBLAS is found.  The bits of a
    dense draw depend on the BLAS thread count, so every function that runs
    BLAS (the samplers, ``eig_hermitian``, ``principal_cosines``) runs it
    inside this block; one thread is also faster at jrmt's sizes.
    Holds nest: an inner one finds one thread and restores one.
    """
    controls = _openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (sorted descending) and matching eigenvector columns.

    Asymmetry below ``_HERM_TOL`` is folded away by averaging with the
    conjugate transpose; anything larger raises.  Descending order puts the
    largest eigenvalue first, the convention used throughout for spectra.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    asym = np.abs(m - m.conj().T).max()
    if asym >= _HERM_TOL:
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    with one_blas_thread():
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def principal_cosines(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between two column spans.

    Inputs must have orthonormal columns (checked to ``_ORTHO_TOL``).  The
    cosines are the singular values of B1* B2, returned sorted descending;
    all lie in [0, 1] up to rounding.
    """
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    for name, b in (("B1", b1), ("B2", b2)):
        gram = b.conj().T @ b
        err = np.abs(gram - np.eye(b.shape[1])).max()
        if err >= _ORTHO_TOL:
            raise ValidationError(f"{name} columns not orthonormal: deviation {err:.3e}")
    with one_blas_thread():
        sv = np.linalg.svd(b1.conj().T @ b2, compute_uv=False)
    if sv.size and sv[0] > 1.0 + 1e-12:
        raise ValidationError(f"cosine {sv[0]} above 1 beyond tolerance")
    return sv
