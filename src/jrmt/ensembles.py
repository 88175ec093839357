"""Two constructions of the Jacobi unitary ensemble, plus rank normalization.

Route one compresses a uniformly rotated rank-q_tilde projector onto a fixed
rank-q coordinate projector; route two is the Wishart ratio
(X + X')^{-1/2} X (X + X')^{-1/2}.  Both produce q x q Hermitian matrices
with spectrum in [0, 1] and, for q <= q_tilde and q + q_tilde <= n, the same
law: the Jacobi ensemble with density det(1-M)^{n-q-q_tilde} det(M)^{q_tilde-q}.

Orientation of the Wishart pair: the middle factor X carries q_tilde columns
and X' carries n - q_tilde.  The scalar case pins this down: for q = 1 the
compressed projector entry is a Beta(q_tilde, n - q_tilde) variable, which is
X/(X+X') with X of shape parameter q_tilde.  The distributional tests verify
the identification against the projector route directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterError
from .randgen import SeededStream, _ginibre, _haar

__all__ = [
    "ProjectorPair",
    "ReductionPlan",
    "wishart",
    "projector_product",
    "reduce_ranks",
    "sample_spectrum",
    "sample_largest",
]


@dataclass(frozen=True)
class ProjectorPair:
    """Ambient dimension n, fixed rank q, rotated rank q_tilde."""

    n: int
    q: int
    q_tilde: int

    def __post_init__(self):
        if not (1 <= self.q <= self.n and 1 <= self.q_tilde <= self.n):
            raise ParameterError(f"need 1 <= q, q_tilde <= n, got {self}")


def wishart(stream: SeededStream, n: int, q: int, scale: float) -> np.ndarray:
    """W W* for an n x q complex Gaussian W with entry variance ``scale``.

    Hermitian positive semidefinite of rank min(n, q) almost surely;
    E[trace] = n q scale.
    """
    if n < 1 or q < 1:
        raise ParameterError(f"dimensions must be >= 1, got n={n}, q={q}")
    if not scale > 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    w = _ginibre(stream.generator(), n, q, scale)
    x = w @ w.conj().T
    return 0.5 * (x + x.conj().T)


def _wishart_pair(gen, n: int, q: int, q_tilde: int) -> tuple[np.ndarray, np.ndarray]:
    # middle factor first: q_tilde columns, then the complementary n - q_tilde
    w1 = _ginibre(gen, q, q_tilde, 1.0 / q)
    w2 = _ginibre(gen, q, n - q_tilde, 1.0 / q)
    x = w1 @ w1.conj().T
    xp = w2 @ w2.conj().T
    return 0.5 * (x + x.conj().T), 0.5 * (xp + xp.conj().T)


def _check_canonical(n: int, q: int, q_tilde: int) -> None:
    if not (1 <= q <= q_tilde and q + q_tilde <= n):
        raise ParameterError(
            f"need q <= q_tilde and q + q_tilde <= n, got n={n}, q={q}, q_tilde={q_tilde}"
        )


def projector_product(stream: SeededStream, pair: ProjectorPair) -> np.ndarray:
    """Projector-route sample: compression of pi pt pi onto range(pi).

    With the fixed projector chosen as diag(1_q, 0), the compression is the
    top-left q x q block of the rotated projector, so only the first q_tilde
    columns of the Haar unitary are ever formed.
    """
    n, q, qt = pair.n, pair.q, pair.q_tilde
    u = _haar(stream.generator(), n, cols=qt)
    block_rows = u[:q, :]
    m = block_rows @ block_rows.conj().T
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class ReductionPlan:
    """Canonical parameters and eigenvalue map for arbitrary (n, q, q_tilde).

    ``canonical`` satisfies q <= q_tilde and q + q_tilde <= n (the density
    regime) and its fixed rank equals ``kept_count``; it is None in the
    fully degenerate case kept_count == 0 (every block eigenvalue is then a
    deterministic 0 or 1).  ``eigen_map`` says how canonical eigenvalues map
    back to the original compressed block ('identity', 'reflect' for
    x -> 1-x, or 'reflect-then-identity' when two reflections compose to
    the identity).  The remaining block eigenvalues are ``ones`` exact 1s
    (subspace overlap forced by dimension count) and ``zeros`` exact 0s.
    """

    canonical: ProjectorPair | None
    eigen_map: str
    kept_count: int
    ones: int
    zeros: int

    def apply(self, canonical_values: np.ndarray) -> np.ndarray:
        """Map canonical-ensemble eigenvalues to the original block spectrum."""
        vals = np.asarray(canonical_values, dtype=float)
        if vals.shape[-1] != self.kept_count:
            raise ParameterError(
                f"expected {self.kept_count} canonical eigenvalues, got {vals.shape[-1]}"
            )
        if self.eigen_map == "reflect":
            vals = 1.0 - vals
        pad_ones = np.ones(vals.shape[:-1] + (self.ones,))
        pad_zeros = np.zeros(vals.shape[:-1] + (self.zeros,))
        return np.sort(np.concatenate([vals, pad_ones, pad_zeros], axis=-1), axis=-1)


def reduce_ranks(n: int, q: int, q_tilde: int) -> ReductionPlan:
    """Normalize an arbitrary rank pair to the density regime.

    Case analysis: a rank swap conjugates the product and keeps eigenvalues;
    replacing the rotated projector by its complement (rank n - q_tilde)
    reflects the block spectrum about 1/2.    When both ranks are oversized
    the two reflections cancel, leaving the identity map onto the canonical
    pair (n-q, n-q_tilde).
    """
    if not (1 <= q <= n and 1 <= q_tilde <= n):
        raise ParameterError(f"need 1 <= q, q_tilde <= n, got n={n}, q={q}, q_tilde={q_tilde}")
    kept = min(q, q_tilde, n - q, n - q_tilde)
    ones = max(0, q + q_tilde - n)
    zeros = q - kept - ones
    if q + q_tilde <= n:
        canon = (q, q_tilde) if q <= q_tilde else (q_tilde, q)
        emap = "identity"
    elif q <= q_tilde:
        canon = (n - q_tilde, q)
        emap = "reflect"
    else:
        canon = (n - q, n - q_tilde)
        emap = "reflect-then-identity"
    cq, cqt = canon
    if cq < 1:
        # rotated projector (or a complement) is the whole space: nothing random
        return ReductionPlan(None, emap, 0, ones, zeros)
    return ReductionPlan(ProjectorPair(n, cq, cqt), emap, kept, ones, zeros)


def sample_spectrum(
    stream: SeededStream, n: int, q: int, q_tilde: int, route: str = "projector"
) -> np.ndarray:
    """Sorted (ascending) eigenvalues of one draw in the canonical regime.

    For the Wishart route the spectrum is computed from the definite pencil
    (X, X + X'), which has exactly the eigenvalues of the ratio matrix
    without forming the inverse square root.
    """
    _check_canonical(n, q, q_tilde)
    if route == "projector":
        m = projector_product(stream, ProjectorPair(n, q, q_tilde))
        return np.linalg.eigvalsh(m)
    if route == "wishart":
        x, xp = _wishart_pair(stream.generator(), n, q, q_tilde)
        return scipy.linalg.eigh(x, x + xp, eigvals_only=True, check_finite=False)
    raise ParameterError(f"unknown route {route!r}")


def sample_largest(stream: SeededStream, n: int, q: int, q_tilde: int) -> float:
    """Largest eigenvalue of one Wishart-route draw (cheapest available path)."""
    _check_canonical(n, q, q_tilde)
    x, xp = _wishart_pair(stream.generator(), n, q, q_tilde)
    val = scipy.linalg.eigh(
        x,
        x + xp,
        eigvals_only=True,
        check_finite=False,
        subset_by_index=[q - 1, q - 1],
        driver="gvx",
    )
    return float(val[0])
