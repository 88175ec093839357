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
sum from rows recomputed at their two ends.  The table takes 16 (n + 1)
bytes per abscissa, so it holds at most ``NODE_BLOCK`` abscissae, or close
pairs, at a time.  Every function here accepts scalars or numpy arrays.

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

from .errors import DomainError, NumericError, ParameterError, RegimeError
from .limits import (
    _integrable_kernel,
    airy_kernel,
    bessel_kernel,
    edge_profile,
    limit_density,
    sine_kernel,
)
from .orthopoly import chi_zeros, jacobi_rows, log_gamma_n

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
# most abscissae, or close pairs, whose rows one recurrence records: the
# rows of P_0..P_400 at 10^4 abscissae in one table peaked at 290 MB, and
# blocks of 256 keep them near 5 MB
NODE_BLOCK = 256


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


def _log_weight_half(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    # log of (1-x)^{a/2} (1+x)^{b/2}
    return 0.5 * (spec.a * np.log1p(-x) + spec.b * np.log1p(x))


def _split(log_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, c) with exp(log_c) = c * 2**k, k the nearest integer to log_c / ln 2."""
    k = np.rint(log_c / _LN2)
    # a Gram term adds two such k, and the polynomial exponents, in int64;
    # a non-finite log_c fails too
    if not (np.abs(k) < 2.0**62).all():
        raise NumericError("a log-scale of the finite-n kernel leaves the range of its exponents")
    return k.astype(int), np.exp(log_c - k * _LN2)


def _log_norms(n: int, a: float, b: float) -> np.ndarray:
    """log h_k = log of the squared weighted L^2 norm of P_k, for k < n.

    h_k = 2^{a+b+1} / (2k+a+b+1) * Gamma(k+a+1) Gamma(k+b+1) /
    (Gamma(k+a+b+1) k!), from one vectorized log-Gamma call; a, b >= 0
    keep every argument at 1 or above.
    """
    import scipy.special

    k = np.arange(float(n))
    lg = scipy.special.gammaln(np.concatenate([k + a + 1.0, k + b + 1.0, k + a + b + 1.0, k + 1.0]))
    lg = lg.reshape(4, n)
    return (a + b + 1.0) * _LN2 - np.log(2.0 * k + a + b + 1.0) + lg[0] + lg[1] - lg[2] - lg[3]


def _by_blocks(fn: Callable, *zs: np.ndarray) -> np.ndarray:
    """fn on slices of at most ``NODE_BLOCK`` entries of the 1-d arrays zs, joined on the last axis."""
    starts = range(0, max(zs[0].size, 1), NODE_BLOCK)
    return np.concatenate([fn(*(z[s : s + NODE_BLOCK] for z in zs)) for s in starts], axis=-1)


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

    One recurrence (:func:`~jrmt.orthopoly.jacobi_rows`) per block of at
    most ``NODE_BLOCK`` distinct abscissae serves the quotient and the
    diagonal.  Away from the diagonal the value is the Christoffel-Darboux
    ratio (f(x) g(y) - g(x) f(y)) / (x - y) with f, g = sqrt(gamma_n w)
    (P_n, P_{n-1}).  Within ``DIAG_TOL`` the ratio cancels catastrophically,
    so the exact sum sqrt(w(x) w(y)) sum_{k<n} P_k(x) P_k(y) / h_k is used
    instead: on the diagonal from the block's own rows, formed at every
    abscissa, and at a distinct close pair from rows recomputed at its two
    ends, in blocks of at most ``NODE_BLOCK`` pairs.  Each term is scaled on
    its own, and the terms are added in an order fixed by n.
    """
    for z in (x, y):
        z = np.asarray(z, dtype=float)
        bad = ~((-1.0 < z) & (z < 1.0))
        if bad.any():
            raise DomainError(f"argument {z[bad][0]} outside (-1, 1)")
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
        # the power of two of sqrt(gamma_n w) joins the exponents of P_n and P_{n-1}
        k, c = _split(0.5 * log_gam + lw)
        return np.ldexp(m[n] * c, e[n] + k), np.ldexp(m[n - 1] * c, e[n - 1] + k), gram(own, own)

    def near(s, t):
        # one recurrence on both ends
        m, e, lw = rows(np.concatenate([s, t]))
        return gram(*[(m[:, c], e[:, c], lw[c]) for c in (slice(s.size), slice(s.size, None))])

    return _integrable_kernel(x, y, functools.partial(_by_blocks, nodes), functools.partial(_by_blocks, near))


def one_point_density(spec: KernelSpec, x):
    """Expected normalized eigenvalue density n^{-1} K_n(x, x)."""
    return kernel(spec, x, x) / spec.n


def finite_profile(spec: KernelSpec):
    """Finite-n spectral profile using the exact ratios a/n, b/n."""
    return edge_profile(spec.a / spec.n, spec.b / spec.n)


def soft_edge(spec: KernelSpec) -> tuple[float, float]:
    """Soft-edge location and scale (s_n, h_n).

    s_n is the upper zero of chi and h_n = (-chi'(s_n))^{1/3}.  chi' is
    N' / (4(1-x^2)^2) at a zero of chi's numerator N, and N'(s_n) is
    -sqrt(disc), so :func:`chi_zeros` gives both in closed form:
    h_n = (sqrt(disc) / (4((1-s_n)(1+s_n))^2))^{1/3}, good to about
    2e-15 / (1 - |s_n|) relative, and s_n to a few ulps.  With a <= 1 the
    upper zero lies at or past 1 and the upper edge is a hard edge.  It
    always lies above -1, so an s_n at -1 has rounded there: a ``NumericError``.
    """
    n, a, b = spec.n, spec.a, spec.b
    _, s, root = chi_zeros(n, a, b)
    if not s < 1.0:
        raise RegimeError(f"soft edge needs the turning point inside (-1,1); a={a}, b={b} too small")
    if not s > -1.0:
        raise NumericError(f"the soft edge rounds to -1 for n={n}, a={a}, b={b}")
    return s, (root / (4.0 * ((1.0 - s) * (1.0 + s)) ** 2)) ** (1.0 / 3.0)


def hard_edge_scale(spec: KernelSpec) -> float:
    """Hard-edge scale c_n = 2 n^2 (1 + a/n) at the endpoint -1.

    A scale that overflows doubles (a near the float limit) is a ``NumericError``.
    """
    c = 2.0 * spec.n * spec.n * (1.0 + spec.a / spec.n)
    if not math.isfinite(c):
        raise NumericError(f"the hard-edge scale overflows for n={spec.n}, a={spec.a}")
    return c


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
    """Rescaled kernel K_n(c + u/h, c + v/h) / h at the ``local_scaling`` of a regime.

    An offset whose abscissa leaves (-1, 1) is a ``DomainError`` that names
    the offset and its window (h (-1 - c), h (1 - c)).  An offset inside its
    window can still leave: c + u/h rounds to -1 or 1 once |u| is far below
    h |1 -+ c|, and the message then says so.
    """
    c, h, _ = local_scaling(spec, regime, x)
    lo, hi = h * (-1.0 - c), h * (1.0 - c)
    zs = []
    for name, w in (("u", u), ("v", v)):
        w = np.asarray(w, dtype=float)
        z = c + w / h
        bad = ~((-1.0 < z) & (z < 1.0))
        if bad.any():
            wb, zb = w[bad][0], z[bad][0]
            window = f"the {regime} window ({lo:.6g}, {hi:.6g})"
            if lo < wb < hi:
                raise DomainError(
                    f"{name}={wb} is inside {window}, but its abscissa "
                    f"{c:.17g} + {name}/{h:.6g} rounds to {zb:.17g}, outside (-1, 1)"
                )
            raise DomainError(f"{name}={wb} outside {window} that maps into (-1, 1)")
        zs.append(z)
    return kernel(spec, *zs) / h
