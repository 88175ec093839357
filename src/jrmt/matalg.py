"""Dense Hermitian helpers: eigendecomposition and principal angles."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["check_hermitian", "eig_hermitian", "principal_cosines"]

_HERM_TOL = 1e-12


def check_hermitian(m: np.ndarray, tol: float = _HERM_TOL) -> np.ndarray:
    """Validate and symmetrize a Hermitian matrix.

    Asymmetry below ``tol`` (floating-point construction noise) is folded
    away by averaging with the conjugate transpose; anything larger raises.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    asym = np.abs(m - m.conj().T).max()
    if asym >= tol:
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    return 0.5 * (m + m.conj().T)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (sorted descending) and matching eigenvector columns.

    Descending order puts the largest eigenvalue first, the convention used
    throughout for spectra.
    """
    m = check_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def principal_cosines(b1: np.ndarray, b2: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Cosines of the principal angles between two column spans.

    Inputs must have orthonormal columns (checked to ``tol``).  The cosines
    are the singular values of B1* B2, returned sorted descending; all lie in
    [0, 1] up to rounding.
    """
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    for name, b in (("B1", b1), ("B2", b2)):
        gram = b.conj().T @ b
        err = np.abs(gram - np.eye(b.shape[1])).max()
        if err >= tol:
            raise ValidationError(f"{name} columns not orthonormal: deviation {err:.3e}")
    sv = np.linalg.svd(b1.conj().T @ b2, compute_uv=False)
    if sv.size and sv[0] > 1.0 + 1e-12:
        raise ValidationError(f"cosine {sv[0]} above 1 beyond tolerance")
    return sv
