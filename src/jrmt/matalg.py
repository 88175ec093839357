"""Dense Hermitian helpers: eigendecomposition, principal angles, the BLAS thread hold."""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

from ._scipy import compiled
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
def _controls_of(module) -> tuple:
    """(get, set) thread-count functions of the OpenBLAS that ``module`` links.

    A handle on the extension module's file also resolves symbols in the
    libraries it links; empty where no ``_THREAD_SYMBOLS`` pair resolves.
    """
    lib = ctypes.CDLL(module.__file__)
    for get, set_ in _THREAD_SYMBOLS:
        if hasattr(lib, get) and hasattr(lib, set_):
            getter, setter = getattr(lib, get), getattr(lib, set_)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return ((getter, setter),)
    return ()


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) of the OpenBLAS behind numpy's and scipy's LAPACK modules.

    All of jrmt's BLAS runs in those two.  Importing jrmt loads no scipy
    module, so this loads scipy's first, through ``load``'s fallback if need be.
    """
    return _controls_of(np.linalg._umath_linalg) + _controls_of(compiled("scipy.linalg.lapack"))


@contextmanager
def _held(controls):
    """Run the body with each (get, set) pair in ``controls`` at one thread."""
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def one_blas_thread():
    """Run the body with the OpenBLAS behind numpy's and scipy's LAPACK on one thread.

    Restores each previous thread count on exit, also when the body raises;
    does nothing where no thread-count symbol is found.  The bits of a dense
    draw depend on the BLAS thread count, so every function that runs BLAS
    (the samplers, ``eig_hermitian``, ``principal_cosines``) runs it held,
    and ``fredholm`` holds numpy's library alone around each determinant.
    Holds nest: an inner one finds one thread and restores one.
    """
    return _held(_openblas_controls())


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

    Inputs must be n x k bases, k >= 1 and n shared, with orthonormal columns
    (checked to ``_ORTHO_TOL``).  The cosines are the singular values of
    B1* B2, returned sorted descending and clipped at 1, past which a basis
    within that tolerance can round them.
    """
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    if b1.ndim != 2 or b2.ndim != 2 or b1.shape[0] != b2.shape[0] or min(b1.shape[1], b2.shape[1]) < 1:
        raise ValidationError(f"expected two n x k bases with k >= 1, got shapes {b1.shape} and {b2.shape}")
    with one_blas_thread():
        for name, b in (("B1", b1), ("B2", b2)):
            gram = b.conj().T @ b
            err = np.abs(gram - np.eye(b.shape[1])).max()
            if not err < _ORTHO_TOL:
                raise ValidationError(f"{name} columns not orthonormal: deviation {err:.3e}")
        sv = np.linalg.svd(b1.conj().T @ b2, compute_uv=False)
    return np.minimum(sv, 1.0)
