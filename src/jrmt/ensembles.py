"""Three constructions of the Jacobi unitary ensemble, plus rank normalization.

Route one compresses a uniformly rotated rank-q_tilde projector onto a fixed
rank-q coordinate projector; route two is the Wishart ratio
(X + X')^{-1/2} X (X + X')^{-1/2}; route three is the Edelman-Sutton
beta-Jacobi matrix model at beta = 2 ("The beta-Jacobi matrix model, the CS
decomposition, and generalized singular value problems", FoCM 2008), whose
spectrum is that of a q x q symmetric tridiagonal matrix built from 2q - 1
independent Beta variables.  All three produce q eigenvalues in [0, 1] and,
for q <= q_tilde and q + q_tilde <= n, the same law: the Jacobi ensemble with
density det(M)^alpha det(1-M)^gamma, where alpha = q_tilde - q and
gamma = n - q - q_tilde.  (The kernel's weight (1-x)^a (1+x)^b on the
symmetric interval has these exponents swapped: a = gamma, b = alpha.)

Orientation of the Wishart pair: the middle factor X carries q_tilde columns
and X' carries n - q_tilde.  The scalar case pins this down: for q = 1 the
compressed projector entry is a Beta(q_tilde, n - q_tilde) variable, which is
X/(X+X') with X of shape parameter q_tilde, and which is also the
tridiagonal model's single entry c_1^2 ~ Beta(alpha + 1, gamma + 1).  The
distributional tests verify all three routes against each other.
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


def _beta_jacobi(gen, n: int, q: int, q_tilde: int, **select) -> np.ndarray:
    # Edelman-Sutton model at beta = 2: c_k^2 ~ Beta(alpha + k, gamma + k) for
    # k = q..1 and c'_k^2 ~ Beta(k, alpha + gamma + 1 + k) for k = q-1..1 set
    # the upper-bidiagonal B; the spectrum is that of the tridiagonal B^T B
    alpha, gamma = q_tilde - q, n - q - q_tilde
    k = np.arange(q, 0, -1)
    c2 = gen.beta(alpha + k, gamma + k)
    cp2 = gen.beta(k[1:], alpha + gamma + 1 + k[1:])
    c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
    cp, sp = np.sqrt(cp2), np.sqrt(1.0 - cp2)
    d = c * np.concatenate(([1.0], sp))  # (c_q, c_{q-1} s'_{q-1}, ..., c_1 s'_1)
    e = -s[:-1] * cp  # (-s_q c'_{q-1}, ..., -s_2 c'_1)
    diag = d * d
    diag[1:] += e * e
    return scipy.linalg.eigvalsh_tridiagonal(diag, d[:-1] * e, check_finite=False, **select)


def sample_spectrum(
    stream: SeededStream, n: int, q: int, q_tilde: int, route: str = "projector"
) -> np.ndarray:
    """Sorted (ascending) eigenvalues of one draw in the canonical regime.

    ``route`` is "projector", "wishart" or "tridiagonal".  For the Wishart
    route the spectrum is computed from the definite pencil (X, X + X'),
    which has exactly the eigenvalues of the ratio matrix without forming the
    inverse square root.  The tridiagonal route costs O(q) random variables
    and one q x q symmetric tridiagonal eigenproblem.
    """
    _check_canonical(n, q, q_tilde)
    if route == "projector":
        m = projector_product(stream, ProjectorPair(n, q, q_tilde))
        return np.linalg.eigvalsh(m)
    if route == "wishart":
        x, xp = _wishart_pair(stream.generator(), n, q, q_tilde)
        return scipy.linalg.eigh(x, x + xp, eigvals_only=True, check_finite=False)
    if route == "tridiagonal":
        return _beta_jacobi(stream.generator(), n, q, q_tilde)
    raise ParameterError(f"unknown route {route!r}")


def sample_largest(stream: SeededStream, n: int, q: int, q_tilde: int) -> float:
    """Largest eigenvalue of one tridiagonal-route draw.

    Agrees with ``sample_spectrum(stream, n, q, q_tilde, "tridiagonal")[-1]``
    for the same stream up to rounding, but bisects for the top eigenvalue
    alone: O(q) work per draw, where a dense route costs O(n q^2).
    """
    _check_canonical(n, q, q_tilde)
    top = _beta_jacobi(stream.generator(), n, q, q_tilde, select="i", select_range=(q - 1, q - 1))
    return float(top[0])
