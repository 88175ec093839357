"""Gap probabilities det(I - K) on an interval by Nystrom discretization.

The integral operator is discretized at Gauss-Legendre nodes with the
symmetric square-root weighting W^{1/2} K W^{1/2}, which keeps the
discretized operator symmetric, and the determinant comes from a pivoted
dense LU factorization on one BLAS thread.  Each call maps the rule on
[-1, 1], built once per node count and shared read-only
(:func:`gauss_legendre_unit`), to its interval.  Kernels are callables that
broadcast over numpy arrays, so the m x m matrix comes from one call on a
column and a row of the m nodes, never their meshgrid, and
I - W^{1/2} K W^{1/2} is formed in one m x m array beside the kernel's.
The alternating Fredholm series expansion is kept out of production (it
converges too slowly); the test suite uses a short truncation of it as an
independent oracle on low-rank toy kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cdkernel import KernelSpec, kernel
from .errors import DomainError, NumericError, ParameterError
from .limits import airy_kernel
from .matalg import _controls_of, _held

__all__ = ["GapQuery", "gauss_legendre_unit", "gauss_legendre", "gap_probability", "largest_eval_cdf",
           "tracy_widom_cdf"]

QUAD_POINTS = 64  # default node count of every determinant, and of the CLI's --quad
TW_TAIL = 12.0  # default length of the Tracy-Widom interval [t, t + tail], and of --tail


@dataclass
class GapQuery:
    """A det(I - K) evaluation request on [lo, hi] with m quadrature nodes.

    ``kernel(x, y)`` must broadcast over numpy arrays: the Nystrom matrix is
    one call with x the m nodes as a column (m, 1) and y the same nodes as a
    row (1, m); a result of any shape other than (m, m) raises
    ``ParameterError``.  The interval must be finite.
    """

    kernel: Callable
    interval: tuple[float, float]
    quad_points: int = QUAD_POINTS

    def __post_init__(self):
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError(f"need a finite interval, got {self.interval}")
        if not lo < hi:
            raise ParameterError(f"need lo < hi, got {self.interval}")
        if self.quad_points < 8:
            raise ParameterError(f"need at least 8 quadrature points, got {self.quad_points}")


@functools.lru_cache(maxsize=32)
def gauss_legendre_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the Gauss rule of Jacobi (0, 0).

    The rule depends on m alone, and building it (``leggauss``) costs far
    more than a small Nystrom determinant, so each m is built once and kept;
    the cache is bounded, since a sweep over sizes must not grow memory
    without limit.  Every caller shares the arrays, so they are read-only.
    """
    t, w = np.polynomial.legendre.leggauss(m)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gauss_legendre(m: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi], as new arrays."""
    t, w = gauss_legendre_unit(m)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def gap_probability(query: GapQuery) -> float:
    """det(I - W^{1/2} K W^{1/2}) on the query interval.

    For a projection kernel this is the probability that the associated
    point process puts no point in the interval, so values land in [0, 1]:
    a determinant within 1e-8 of that interval is clipped into it, and one
    further out raises.  Below 0 means the kernel fed in was inconsistent;
    above 1 means the quadrature is too coarse for the kernel on the
    interval: the discretized operator then has eigenvalues far above 1,
    which a projection kernel cannot have.  numpy's OpenBLAS runs the
    determinant on one thread, so its bits do not depend on the thread count.
    """
    lo, hi = query.interval
    m = query.quad_points
    x, w = gauss_legendre(m, lo, hi)
    k = np.asarray(query.kernel(x[:, None], x[None, :]), dtype=float)
    if k.shape != (m, m):
        raise ParameterError(f"kernel gave shape {k.shape} for {m} nodes; it must broadcast to {m} x {m}")
    if not np.isfinite(k).all():
        raise NumericError("kernel produced non-finite values on the quadrature grid")
    # I - W^{1/2} K W^{1/2} in one m x m array, with the bits of
    # np.eye(m) - k * np.outer(sw, sw): 0 - a gives +0 where -a gives -0
    sw = np.sqrt(w)
    a = np.outer(sw, sw)
    a *= k
    np.subtract(0.0, a, out=a)
    a.flat[:: m + 1] += 1.0
    with _held(_controls_of(np.linalg._umath_linalg)):
        det = float(np.linalg.det(a))
    if det < -1e-8:
        raise NumericError(f"determinant {det:.3e} below 0 beyond tolerance")
    if det > 1.0 + 1e-8:
        raise NumericError(
            f"determinant {det:.3e} above 1 beyond tolerance: {m} quadrature "
            "points do not resolve the kernel on this interval; raise the point count (--quad)"
        )
    return min(1.0, max(0.0, det))


def largest_eval_cdf(params: KernelSpec, x: float, m: int = QUAD_POINTS) -> float:
    """P(largest point <= x) = det(I - K_n) on [x, 1] for the finite-n kernel.

    The weight vanishes at the right endpoint, and Gauss-Legendre nodes are
    interior, so the closed endpoint is harmless.
    """
    if not -1.0 < x < 1.0:
        raise DomainError(f"x={x} outside (-1, 1)")
    fn = lambda s, t: kernel(params, s, t)
    return gap_probability(GapQuery(fn, (x, 1.0), quad_points=m))


def tracy_widom_cdf(t: float, m: int = QUAD_POINTS, tail: float = TW_TAIL) -> float:
    """Distribution of the rescaled largest point: det(I - Airy) on [t, t + tail].

    Accuracy is guaranteed on t in [-8, 6] with the default truncation
    (the kernel decays superexponentially past the upper cut); outside that
    window values are still computed, best effort.
    """
    return gap_probability(GapQuery(airy_kernel, (t, t + tail), quad_points=m))
