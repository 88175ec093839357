"""Finite-n Christoffel-Darboux kernel of the Jacobi weight and its rescalings.

The kernel is the rank-n projection kernel in L^2(dx) on [-1, 1] built from
the orthonormalized Jacobi polynomials.  All internal products (the
normalization constant, the weight halves, the polynomial values) are
assembled in log scale and exponentiated only at the end: each factor alone
overflows or underflows doubles once a, b grow like n, while the assembled
kernel value stays moderate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NumericError, ParameterError, RegimeError
from .limits import DIAG_TOL, edge_profile, limit_density
from .orthopoly import (
    ScaledValue,
    chi_prime,
    chi_zeros,
    gamma_n,
    jacobi_pair,
    log_sq_norm,
    weight,
)

__all__ = [
    "KernelSpec",
    "kernel",
    "one_point_density",
    "finite_profile",
    "soft_edge",
    "hard_edge_scale",
    "rescaled_bulk",
    "rescaled_soft",
    "rescaled_hard",
]


@dataclass(frozen=True)
class KernelSpec:
    """Ensemble parameters (n, a, b)."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.a < 0 or self.b < 0:
            raise ParameterError(f"need a, b >= 0, got a={self.a}, b={self.b}")


def _check_open_interval(*xs: float) -> None:
    for x in xs:
        if not -1.0 < x < 1.0:
            raise DomainError(f"argument {x} outside (-1, 1)")


def _weight_half(a: float, b: float, x: float) -> ScaledValue:
    return weight(a / 2.0, b / 2.0, x)


def _wronskian_terms(spec: KernelSpec, x: float) -> tuple[ScaledValue, ScaledValue]:
    """(D0, D1) with D0 = P_{n-1} P_n' - P_n P_{n-1}' and D1 its primed analogue.

    Derivatives come from the parameter-shift ladder: P_n' is a multiple of
    the degree n-1 polynomial at (a+1, b+1) and P_n'' of degree n-2 at
    (a+2, b+2).
    """
    n, a, b = spec.n, spec.a, spec.b
    pnm1, pn = jacobi_pair(n, a, b, x)
    q_nm2, q_nm1 = jacobi_pair(n - 1, a + 1.0, b + 1.0, x)
    dpn = 0.5 * (n + a + b + 1.0) * q_nm1
    dpnm1 = 0.5 * (n + a + b) * q_nm2
    d0 = pnm1 * dpn - pn * dpnm1
    if n >= 2:
        r_nm3, r_nm2 = jacobi_pair(n - 2, a + 2.0, b + 2.0, x)
        ddpn = 0.25 * (n + a + b + 1.0) * (n + a + b + 2.0) * r_nm2
        ddpnm1 = 0.25 * (n + a + b) * (n + a + b + 1.0) * r_nm3
        d1 = pnm1 * ddpn - pn * ddpnm1
    else:
        d1 = ScaledValue.from_float(0.0)
    return d0, d1


def kernel(spec: KernelSpec, x: float, y: float) -> float:
    """K_n^{a,b}(x, y) for x, y in (-1, 1).

    Away from the diagonal this is the Christoffel-Darboux ratio
    gamma_n sqrt(w(x) w(y)) (P_n(x) P_{n-1}(y) - P_{n-1}(x) P_n(y)) / (x-y);
    within ``DIAG_TOL`` (relative to max(1, |x|, |y|)) the ratio is
    0/0 with catastrophic cancellation, so the confluent Wronskian form
    extended by a first-order Taylor term in (y - x) is used instead.
    """
    _check_open_interval(x, y)
    if x > y:
        x, y = y, x  # kernel is symmetric; canonical order makes that exact
    n, a, b = spec.n, spec.a, spec.b
    gam = gamma_n(n, a, b)
    whx = _weight_half(a, b, x)
    why = _weight_half(a, b, y)
    cut = DIAG_TOL * max(1.0, abs(x), abs(y))
    if abs(x - y) >= cut:
        pm_x, pn_x = jacobi_pair(n, a, b, x)
        pm_y, pn_y = jacobi_pair(n, a, b, y)
        num = pn_x * pm_y - pm_x * pn_y
        return (gam * whx * why * num).value() / (x - y)
    d0, d1 = _wronskian_terms(spec, x)
    series = d0 + (0.5 * (y - x)) * d1
    return (gam * whx * why * series).value()


def one_point_density(spec: KernelSpec, x: float) -> float:
    """Expected normalized eigenvalue density n^{-1} K_n(x, x).

    Uses the parameter-shift product form
    gamma_n w(x) [ (n+a+b)/2 (P_{n-1} Q_{n-1} - P_n Q_{n-2}) + P_{n-1} Q_{n-1}/2 ]
    with Q the (a+1, b+1) family; for n = 1 it falls back to the
    sum-of-squares definition (a single orthonormal polynomial).
    """
    _check_open_interval(x)
    n, a, b = spec.n, spec.a, spec.b
    w_full = weight(a, b, x)
    if n == 1:
        # K_1(x,x) = w(x) / ||1||^2 with the norm under the bare weight
        log_norm = log_sq_norm(0, a, b)
        return (w_full * ScaledValue.from_log(-log_norm)).value()
    pnm1, pn = jacobi_pair(n, a, b, x)
    q_nm2, q_nm1 = jacobi_pair(n - 1, a + 1.0, b + 1.0, x)
    core = (0.5 * (n + a + b)) * (pnm1 * q_nm1 - pn * q_nm2) + 0.5 * (pnm1 * q_nm1)
    val = (gamma_n(n, a, b) * w_full * core).value()
    return val / n


def finite_profile(spec: KernelSpec):
    """Finite-n spectral profile using the exact ratios a/n, b/n."""
    return edge_profile(spec.a / spec.n, spec.b / spec.n)


def soft_edge(spec: KernelSpec) -> tuple[float, float]:
    """Soft-edge location and scale (s_n, h_n).

    s_n is the largest zero of chi in (-1, 1) and h_n = (-chi'(s_n))^{1/3}.
    chi's zeros come in closed form from :func:`chi_zeros`; the sign of the
    analytic derivative there guards the arithmetic.
    """
    n, a, b = spec.n, spec.a, spec.b
    inside = [r for r in chi_zeros(n, a, b) if -1.0 < r < 1.0]
    if not inside:
        raise RegimeError(
            f"soft edge needs the turning point inside (-1,1); a={a}, b={b} too small"
        )
    s = max(inside)
    slope = chi_prime(n, a, b, s)
    if slope >= 0.0:
        raise NumericError(f"chi not decreasing at its largest zero (chi'={slope:.3e})")
    return s, (-slope) ** (1.0 / 3.0)


def hard_edge_scale(spec: KernelSpec) -> float:
    """Hard-edge scale c_n = 2 n^2 (1 + a/n) at the endpoint -1."""
    return 2.0 * spec.n * spec.n * (1.0 + spec.a / spec.n)


def rescaled_bulk(spec: KernelSpec, x: float, u: float, v: float) -> float:
    """Bulk-rescaled kernel K_n(x + u/(n f_n), x + v/(n f_n)) / (n f_n).

    Converges to the sine kernel sin(pi(u-v))/(pi(u-v)) for x strictly
    inside the finite-n support band.
    """
    prof = finite_profile(spec)
    if not prof.r < x < prof.s:
        raise DomainError(f"x={x} outside the open band ({prof.r:.6f}, {prof.s:.6f})")
    fx = limit_density(prof, x)
    if not fx > 0.0:
        raise DomainError(f"density vanishes at x={x}")
    scale = spec.n * fx
    xu = x + u / scale
    xv = x + v / scale
    _check_open_interval(xu, xv)
    return kernel(spec, xu, xv) / scale


def rescaled_soft(spec: KernelSpec, u: float, v: float) -> float:
    """Soft-edge-rescaled kernel K_n(s_n + u/h_n, s_n + v/h_n) / h_n.

    Converges to the Airy kernel; needs a/n bounded away from zero so the
    upper edge is of square-root type.
    """
    s, h = soft_edge(spec)
    xu = s + u / h
    xv = s + v / h
    _check_open_interval(xu, xv)
    return kernel(spec, xu, xv) / h


def rescaled_hard(spec: KernelSpec, u: float, v: float) -> float:
    """Hard-edge-rescaled kernel at -1 with scale c_n = 2 n^2 (1 + a/n).

    Converges to the order-b Bessel kernel; the order must be a constant
    nonnegative integer, which is checked here.
    """
    if spec.b != int(spec.b):
        raise ParameterError(f"hard edge needs integer b, got {spec.b}")
    if u <= 0 or v <= 0:
        raise DomainError("hard-edge coordinates must be positive")
    c = hard_edge_scale(spec)
    xu = -1.0 + u / c
    xv = -1.0 + v / c
    _check_open_interval(xu, xv)
    return kernel(spec, xu, xv) / c

