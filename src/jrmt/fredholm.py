"""Gap probabilities det(I - K) on an interval by Nystrom discretization.

The integral operator is discretized at Gauss-Legendre nodes with the
symmetric square-root weighting W^{1/2} K W^{1/2}, which keeps the
discretized operator symmetric, and the determinant comes from a pivoted
dense LU factorization.  The alternating Fredholm series expansion is kept
out of production (it converges too slowly); the test suite uses a short
truncation of it as an independent oracle on low-rank toy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cdkernel import KernelSpec, kernel
from .errors import DomainError, NumericError, ParameterError
from .limits import airy_kernel

__all__ = ["GapQuery", "gauss_legendre", "gap_probability", "largest_eval_cdf", "tracy_widom_cdf"]


@dataclass
class GapQuery:
    """A det(I - K) evaluation request on [lo, hi] with m quadrature nodes."""

    kernel: Callable
    interval: tuple[float, float]
    quad_points: int = 64

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ParameterError(f"need lo < hi, got {self.interval}")
        if self.quad_points < 8:
            raise ParameterError(f"need at least 8 quadrature points, got {self.quad_points}")


def gauss_legendre(m: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    t, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def _kernel_matrix(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate fn on the node grid, vectorized when the callable allows it."""
    try:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        k = np.asarray(fn(xx, yy), dtype=float)
        if k.shape == xx.shape:
            return k
    except Exception:
        pass
    m = len(x)
    k = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            k[i, j] = k[j, i] = fn(x[i], x[j])
    return k


def gap_probability(query: GapQuery) -> float:
    """det(I - W^{1/2} K W^{1/2}) on the query interval.

    For a projection kernel this is the probability that the associated
    point process puts no point in the interval, so values land in [0, 1];
    a determinant below -1e-8 means the kernel fed in was inconsistent and
    raises rather than being clipped.
    """
    lo, hi = query.interval
    x, w = gauss_legendre(query.quad_points, lo, hi)
    k = _kernel_matrix(query.kernel, x)
    if not np.isfinite(k).all():
        raise NumericError("kernel produced non-finite values on the quadrature grid")
    sw = np.sqrt(w)
    a = np.eye(len(x)) - k * np.outer(sw, sw)
    det = float(np.linalg.det(a))
    if det < -1e-8:
        raise NumericError(f"determinant {det:.3e} below 0 beyond tolerance")
    return det


def largest_eval_cdf(params: KernelSpec, x: float, m: int = 64) -> float:
    """P(largest point <= x) = det(I - K_n) on [x, 1] for the finite-n kernel.

    The weight vanishes at the right endpoint, and Gauss-Legendre nodes are
    interior, so the closed endpoint is harmless.
    """
    if not -1.0 < x < 1.0:
        raise DomainError(f"x={x} outside (-1, 1)")
    fn = lambda s, t: kernel(params, s, t)
    return gap_probability(GapQuery(fn, (x, 1.0), quad_points=m))


def tracy_widom_cdf(t: float, m: int = 64, tail: float = 12.0) -> float:
    """Distribution of the rescaled largest point: det(I - Airy) on [t, t + tail].

    Accuracy is guaranteed on t in [-8, 6] with the default truncation
    (the kernel decays superexponentially past the upper cut); outside that
    window values are still computed, best effort.
    """
    return gap_probability(GapQuery(airy_kernel, (t, t + tail), quad_points=m))
