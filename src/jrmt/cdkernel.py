"""Finite-n Christoffel-Darboux kernel of the Jacobi weight and its rescalings.

The kernel is the rank-n projection kernel in L^2(dx) on [-1, 1] built from
the orthonormalized Jacobi polynomials.  Each factor of a kernel value (the
normalization constants, the weight halves, the polynomial values) alone
overflows or underflows doubles once a, b grow like n, while the assembled
value stays moderate.  So the polynomials come from one array recurrence,
:func:`~jrmt.orthopoly.jacobi_rows`, as mantissas times exact powers of two,
the other factors as logs, and the two meet in ``np.ldexp``.  Its last two
rows give the Christoffel-Darboux quotient off the diagonal; all its rows
give the exact Gram sum on the diagonal, where the quotient cancels, as a
third node value.  Distinct pairs within ``DIAG_TOL`` take the same Gram
sum from rows recomputed at their two ends.  Every function here accepts
scalars or numpy arrays.

The local limits (sine kernel in the bulk, Airy at the soft edge, Bessel at
the hard edge) are defined once, by :func:`local_scaling`, which maps a
regime name to its centre, scale and limit kernel; :func:`rescaled` is the
kernel measured at that centre and scale.  The CLI and the convergence
reports both go through these two functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from .errors import DomainError, NumericError, ParameterError, RegimeError
from .limits import (
    _integrable_kernel,
    airy_kernel,
    bessel_kernel,
    edge_profile,
    limit_density,
    sine_kernel,
)
from .orthopoly import chi_prime, chi_zeros, jacobi_rows, log_gamma_n

__all__ = [
    "KernelSpec",
    "kernel",
    "one_point_density",
    "finite_profile",
    "soft_edge",
    "hard_edge_scale",
    "local_scaling",
    "rescaled",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class KernelSpec:
    """Ensemble parameters (n, a, b)."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a < 0 or self.b < 0:
            raise ParameterError(f"need finite a, b >= 0, got a={self.a}, b={self.b}")


def _check_open_interval(*xs) -> None:
    for x in xs:
        x = np.asarray(x, dtype=float)
        bad = ~((-1.0 < x) & (x < 1.0))
        if bad.any():
            raise DomainError(f"argument {x[bad][0]} outside (-1, 1)")


def _log_weight_half(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    # log of (1-x)^{a/2} (1+x)^{b/2}
    return 0.5 * (spec.a * np.log1p(-x) + spec.b * np.log1p(x))


def _split(log_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, c) with exp(log_c) = c * 2**k, k the nearest integer to log_c / ln 2."""
    k = np.rint(log_c / _LN2)
    return k.astype(int), np.exp(log_c - k * _LN2)


def _scaled(m: np.ndarray, log_c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """m * exp(log_c) * 2**e; the integer part of log_c / ln 2 joins the exponent."""
    k, c = _split(log_c)
    return np.ldexp(m * c, e + k)


def _log_norms(n: int, a: float, b: float) -> np.ndarray:
    """log h_k = log of the squared weighted L^2 norm of P_k, for k < n.

    h_k = 2^{a+b+1} / (2k+a+b+1) * Gamma(k+a+1) Gamma(k+b+1) /
    (Gamma(k+a+b+1) k!), from one vectorized log-Gamma call; a, b >= 0
    keep every argument at 1 or above.
    """
    k = np.arange(float(n))
    lg = scipy.special.gammaln(np.concatenate([k + a + 1.0, k + b + 1.0, k + a + b + 1.0, k + 1.0]))
    lg = lg.reshape(4, n)
    return (a + b + 1.0) * _LN2 - np.log(2.0 * k + a + b + 1.0) + lg[0] + lg[1] - lg[2] - lg[3]


def _halving_sum(t: np.ndarray) -> np.ndarray:
    """Sum over the first axis by repeated halving.

    The order of the additions depends on the length of that axis alone,
    never on the other axes, so a pair's sum has the same bits whichever
    pairs are summed with it.
    """
    while t.shape[0] > 1:
        h = t.shape[0] // 2
        s = t[:h] + t[h : 2 * h]
        if t.shape[0] % 2:
            s[-1] += t[-1]
        t = s
    return t[0]


def kernel(spec: KernelSpec, x, y):
    """K_n^{a,b}(x, y) for x, y in (-1, 1), on scalars or arrays that broadcast.

    One recurrence (:func:`~jrmt.orthopoly.jacobi_rows`) per block of
    distinct abscissae serves the quotient and the diagonal.  Away from the
    diagonal the value is the Christoffel-Darboux ratio (f(x) g(y) - g(x)
    f(y)) / (x - y) with f, g = sqrt(gamma_n w) (P_n, P_{n-1}).  Within
    ``DIAG_TOL`` the ratio cancels catastrophically, so the exact sum
    sqrt(w(x) w(y)) sum_{k<n} P_k(x) P_k(y) / h_k is used instead: on the
    diagonal from the block's own rows, formed at every abscissa, and at a
    distinct close pair from rows recomputed at its two ends.  Each term is
    scaled on its own, and the terms are added in an order fixed by n.
    """
    _check_open_interval(x, y)
    n, a, b = spec.n, spec.a, spec.b
    log_gam = log_gamma_n(n, a, b)
    # 1/h_k, k < n, split
    kh, ch = (v[:, None] for v in _split(-_log_norms(n, a, b)))

    def rows(z):
        m, e = jacobi_rows(n, a, b, z)
        return m, e, _log_weight_half(spec, z)

    def gram(rows_x, rows_y):
        # the powers of two of sqrt(w(x) w(y)) and of 1/h_k join the
        # exponents of the polynomial values term by term, and the rest of
        # the weight factor, common to a pair, comes last
        (mx, ex, wx), (my, ey, wy) = rows_x, rows_y
        kw, cw = _split(wx + wy)
        return cw * _halving_sum(np.ldexp(mx[:n] * my[:n] * ch, ex[:n] + ey[:n] + kh + kw))

    def nodes(z):
        own = m, e, lw = rows(z)
        log_c = 0.5 * log_gam + lw
        return _scaled(m[n], log_c, e[n]), _scaled(m[n - 1], log_c, e[n - 1]), gram(own, own)

    def near(lo, hi):
        # one recurrence on both ends
        m, e, lw = rows(np.concatenate([lo, hi]))
        return gram(*[(m[:, c], e[:, c], lw[c]) for c in (slice(lo.size), slice(lo.size, None))])

    return _integrable_kernel(x, y, nodes, near)


def one_point_density(spec: KernelSpec, x):
    """Expected normalized eigenvalue density n^{-1} K_n(x, x)."""
    return kernel(spec, x, x) / spec.n


def finite_profile(spec: KernelSpec):
    """Finite-n spectral profile using the exact ratios a/n, b/n."""
    return edge_profile(spec.a / spec.n, spec.b / spec.n)


def soft_edge(spec: KernelSpec) -> tuple[float, float]:
    """Soft-edge location and scale (s_n, h_n).

    s_n is the upper zero of chi and h_n = (-chi'(s_n))^{1/3}.  chi's zeros
    come in closed form from :func:`chi_zeros`; the sign of the analytic
    derivative there guards the arithmetic.  With a <= 1 the upper zero
    lies at or past 1 and the upper edge is a hard edge.
    """
    n, a, b = spec.n, spec.a, spec.b
    s = chi_zeros(n, a, b)[1]
    if not -1.0 < s < 1.0:
        raise RegimeError(f"soft edge needs the turning point inside (-1,1); a={a}, b={b} too small")
    slope = chi_prime(n, a, b, s)
    if slope >= 0.0:
        raise NumericError(f"chi not decreasing at its largest zero (chi'={slope:.3e})")
    return s, (-slope) ** (1.0 / 3.0)


def hard_edge_scale(spec: KernelSpec) -> float:
    """Hard-edge scale c_n = 2 n^2 (1 + a/n) at the endpoint -1."""
    return 2.0 * spec.n * spec.n * (1.0 + spec.a / spec.n)


def local_scaling(
    spec: KernelSpec, regime: str, x: float | None = None
) -> tuple[float, float, Callable]:
    """Centre c, scale h and limit kernel L of a local regime.

    K_n(c + u/h, c + v/h) / h tends to L(u, v):
    - 'bulk': c = x, by default the midpoint of the finite-n band and always
      strictly inside it; h = n f_n(c), the local mean spacing; L the sine
      kernel.
    - 'soft': (c, h) = ``soft_edge(spec)``; L the Airy kernel.  Needs a/n
      bounded away from zero so the upper edge is of square-root type.
    - 'hard': c = -1, h = ``hard_edge_scale(spec)``; L the order-b Bessel
      kernel, so b must be a constant nonnegative integer.
    Only the bulk takes x; an edge fixes its own centre.
    """
    if regime == "bulk":
        prof = finite_profile(spec)
        if x is None:
            x = 0.5 * (prof.r + prof.s)
        if not prof.r < x < prof.s:
            raise DomainError(f"x={x} outside the open band ({prof.r:.6f}, {prof.s:.6f})")
        fx = limit_density(prof, x)
        if not fx > 0.0:
            raise DomainError(f"density vanishes at x={x}")
        return x, spec.n * fx, sine_kernel
    if regime not in ("soft", "hard"):
        raise ParameterError(f"unknown regime {regime!r}")
    if x is not None:
        raise ParameterError(f"x sets the bulk centre only; the {regime} edge fixes its own")
    if regime == "soft":
        return (*soft_edge(spec), airy_kernel)
    if spec.b != int(spec.b):
        raise ParameterError(f"hard edge needs integer b, got {spec.b}")
    return -1.0, hard_edge_scale(spec), functools.partial(bessel_kernel, int(spec.b))


def rescaled(spec: KernelSpec, regime: str, u, v, x: float | None = None):
    """Rescaled kernel K_n(c + u/h, c + v/h) / h at the ``local_scaling`` of a regime."""
    c, h, _ = local_scaling(spec, regime, x)
    return kernel(spec, c + np.asarray(u) / h, c + np.asarray(v) / h) / h
