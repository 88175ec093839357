"""Limiting objects: spectral densities, edge profiles, sine/Airy/Bessel kernels.

Airy and Bessel values come from ``scipy.special`` and accept scalars or
numpy arrays.  The Airy, Bessel and finite-n kernels all have the integrable
form (f(x) g(y) - g(x) f(y)) / (x - y); :func:`_integrable_kernel` evaluates
any of them on broadcast arrays from the node values f, g, with one
near-diagonal switch at ``DIAG_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.special

from .errors import DomainError, ParameterError, RegimeError

__all__ = [
    "LimitProfile",
    "FreeDensity",
    "edge_profile",
    "limit_density",
    "free_product_density",
    "wishart_ratio_density",
    "airy",
    "airy_prime",
    "airy_kernel",
    "bessel_j",
    "bessel_j_prime",
    "bessel_kernel",
    "sine_kernel",
    "banach_angle",
]

# |x - y| below which integrable kernels switch from the difference quotient
# to their confluent near-diagonal rule
DIAG_TOL = 1e-6


def _integrable_kernel(x, y, nodes: Callable, near: Callable):
    """(f(x) g(y) - g(x) f(y)) / (x - y) on broadcast x, y.

    ``nodes(z)`` returns the arrays (f(z), g(z)) at a 1-d array z of distinct
    abscissae; it is called once, on every distinct abscissa of the pairs off
    the diagonal.  ``near(x, y)`` gives the kernel on the pairs with
    |x - y| < ``DIAG_TOL``, where the quotient cancels catastrophically.
    Every pair is evaluated in the order x <= y with elementwise arithmetic
    only, so K(x, y) and K(y, x) are bitwise equal, and an entry does not
    depend on the other entries asked for with it.  Scalar in, scalar out.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = x.shape
    lo = np.minimum(x, y).ravel()
    hi = np.maximum(x, y).ravel()
    out = np.empty(lo.shape)
    close = hi - lo < DIAG_TOL
    if close.any():
        out[close] = near(lo[close], hi[close])
    far = ~close
    if far.any():
        lo, hi = lo[far], hi[far]
        z, idx = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        f, g = nodes(z)
        i, j = idx[: lo.size], idx[lo.size :]
        out[far] = (f[i] * g[j] - g[i] * f[j]) / (lo - hi)
    return out.reshape(shape)[()]


# ---------------------------------------------------------------------------
# spectral profiles and densities


@dataclass(frozen=True)
class LimitProfile:
    """Edge data of the limiting spectral density on [-1, 1]."""

    alpha: float
    beta: float
    A: float
    B: float
    D: float
    r: float
    s: float


def edge_profile(alpha: float, beta: float) -> LimitProfile:
    """Support endpoints r <= s of the limit density for parameter ratios (alpha, beta).

    A = alpha/(2+alpha+beta), B = beta/(2+alpha+beta),
    D = sqrt((1+A+B)(1-A-B)(1-A+B)(1+A-B)), r,s = B^2 - A^2 -+ D.
    """
    if alpha < 0 or beta < 0:
        raise ParameterError(f"ratios must be >= 0, got alpha={alpha}, beta={beta}")
    den = 2.0 + alpha + beta
    a_ = alpha / den
    b_ = beta / den
    d = math.sqrt((1 + a_ + b_) * (1 - a_ - b_) * (1 - a_ + b_) * (1 + a_ - b_))
    return LimitProfile(alpha, beta, a_, b_, d, b_ * b_ - a_ * a_ - d, b_ * b_ - a_ * a_ + d)


def limit_density(profile: LimitProfile, x):
    """Limiting one-point density sqrt((x-r)(s-x)) / (pi (1-A-B)(1-x^2)).

    Zero outside [r, s].  Accepts scalars or arrays.
    """
    if profile.A + profile.B >= 1.0:
        raise RegimeError("profile outside the atom-free regime (A + B >= 1)")
    x = np.asarray(x, dtype=float)
    inside = (x >= profile.r) & (x <= profile.s)
    rad = np.where(inside, (x - profile.r) * (profile.s - x), 0.0)
    den = math.pi * (1.0 - profile.A - profile.B) * (1.0 - x * x)
    out = np.where(inside, np.sqrt(rad) / den, 0.0)
    return out.item() if out.ndim == 0 else out


@dataclass
class FreeDensity:
    """Continuous density on a compact support plus point masses."""

    support: tuple[float, float]
    density: Callable[[np.ndarray], np.ndarray]
    atoms: list[tuple[float, float]] = field(default_factory=list)

    def continuous_mass(self, quad_points: int = 256) -> float:
        """Integral of the continuous part.

        Uses the substitution x = m + d*sin(theta) that absorbs the
        square-root vanishing at both endpoints, so plain Gauss-Legendre in
        theta converges spectrally.
        """
        lo, hi = self.support
        if hi <= lo:
            return 0.0
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t, w = np.polynomial.legendre.leggauss(quad_points)
        theta = 0.5 * math.pi * t
        x = mid + half * np.sin(theta)
        vals = self.density(x) * half * np.cos(theta) * 0.5 * math.pi
        return float(vals @ w)

    def total_mass(self, quad_points: int = 256) -> float:
        return self.continuous_mass(quad_points) + sum(m for _, m in self.atoms)


def free_product_density(alpha: float, beta: float) -> FreeDensity:
    """Spectral law of the product of two free projectors with trace ratios alpha, beta.

    [1 - min(alpha,beta)] delta_0 + max(alpha+beta-1, 0) delta_1 plus the
    continuous part sqrt((r+ - x)(x - r-)) / (2 pi x (1-x)) on [r-, r+],
    r+- = alpha + beta - 2 alpha beta +- sqrt(4 alpha beta (1-alpha)(1-beta)).
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ParameterError(f"trace ratios must lie in [0,1], got {alpha}, {beta}")
    root = math.sqrt(4.0 * alpha * beta * (1.0 - alpha) * (1.0 - beta))
    base = alpha + beta - 2.0 * alpha * beta
    r_minus, r_plus = base - root, base + root

    def dens(x):
        x = np.asarray(x, dtype=float)
        inside = (x > r_minus) & (x < r_plus) & (x > 0.0) & (x < 1.0)
        rad = np.where(inside, (r_plus - x) * (x - r_minus), 0.0)
        den = np.where(inside, 2.0 * math.pi * x * (1.0 - x), 1.0)
        return np.where(inside, np.sqrt(rad) / den, 0.0)

    atoms = []
    mass0 = 1.0 - min(alpha, beta)
    mass1 = max(alpha + beta - 1.0, 0.0)
    if mass0 > 0:
        atoms.append((0.0, mass0))
    if mass1 > 0:
        atoms.append((1.0, mass1))
    return FreeDensity(support=(r_minus, r_plus), density=dens, atoms=atoms)


def wishart_ratio_density(alpha: float, beta: float) -> tuple[FreeDensity, float]:
    """Limit law of the ratio construction for column ratios alpha, beta >= 1.

    Returns the measure exactly as displayed in its source (continuous part
    g on [lambda-, lambda+] plus atoms max(0, alpha-1) delta_0 and
    max(0, beta-1) delta_1) together with the measured total mass.  The
    atoms as displayed need not complement the continuous part to mass one;
    the second return value reports the discrepancy instead of hiding it
    behind a silent renormalization.
    """
    if alpha < 1.0 or beta < 1.0:
        raise ParameterError(f"column ratios must be >= 1, got {alpha}, {beta}")
    tot = alpha + beta
    lam_minus = (
        math.sqrt(alpha / tot * (1.0 - 1.0 / tot)) - math.sqrt(1.0 / tot * (1.0 - alpha / tot))
    ) ** 2
    lam_plus = (
        math.sqrt(alpha / tot * (1.0 - 1.0 / tot)) + math.sqrt(1.0 / tot * (1.0 - alpha / tot))
    ) ** 2

    def dens(x):
        x = np.asarray(x, dtype=float)
        inside = (x > lam_minus) & (x < lam_plus) & (x > 0.0) & (x < 1.0)
        rad = np.where(inside, (x - lam_minus) * (lam_plus - x), 0.0)
        den = np.where(inside, 2.0 * math.pi * x * (1.0 - x), 1.0)
        return np.where(inside, np.sqrt(rad) / den, 0.0)

    atoms = []
    if alpha > 1.0:
        atoms.append((0.0, alpha - 1.0))
    if beta > 1.0:
        atoms.append((1.0, beta - 1.0))
    measure = FreeDensity(support=(lam_minus, lam_plus), density=dens, atoms=atoms)
    return measure, measure.total_mass()


# ---------------------------------------------------------------------------
# Airy functions


def airy(x):
    """Airy function Ai."""
    return scipy.special.airy(x)[0]


def airy_prime(x):
    """Derivative Ai'."""
    return scipy.special.airy(x)[1]


def _airy_near(u, v):
    # midpoint confluent form; its error at |u - v| < DIAG_TOL is O((u-v)^2)
    m = 0.5 * (u + v)
    ai, aip, _, _ = scipy.special.airy(m)
    return aip * aip - m * ai * ai


def airy_kernel(u, v):
    """(Ai(u) Ai'(v) - Ai(v) Ai'(u)) / (u - v), confluent on the diagonal.

    Near the diagonal the midpoint confluent form Ai'(m)^2 - m Ai(m)^2 is
    used.  Accepts scalars or arrays that broadcast.
    """
    return _integrable_kernel(u, v, lambda z: scipy.special.airy(z)[:2], _airy_near)


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, nonnegative integer order


def _check_order(b) -> int:
    if b < 0 or b != int(b):
        raise ParameterError(f"order must be a nonnegative integer, got {b}")
    return int(b)


def bessel_j(b: int, z):
    """Bessel function J_b for integer b >= 0 and z >= 0."""
    b = _check_order(b)
    z = np.asarray(z, dtype=float)
    if (z < 0).any():
        raise DomainError("negative argument")
    return scipy.special.jv(b, z)


def bessel_j_prime(b: int, z):
    """J_b'(z) = -J_{b+1}(z) + b J_b(z) / z for z > 0."""
    z = np.asarray(z, dtype=float)
    if (np.atleast_1d(z) <= 0).any():
        raise DomainError("derivative recurrence needs z > 0")
    if b == 0:
        return -bessel_j(1, z)
    return -bessel_j(b + 1, z) + b * bessel_j(b, z) / z


def bessel_kernel(b: int, u, v):
    """Hard-edge kernel F_b(u, v) for u, v > 0.

    F_b(u,v) = (J_b(su) sv J_b'(sv) - J_b(sv) su J_b'(su)) / (2(u-v)) with
    su = sqrt(u), sv = sqrt(v); expanding J' through the order recurrence
    gives the integrable form with node values f(u) = su J_{b+1}(su) / 2 and
    g(u) = J_b(su) used off the diagonal.  The confluent diagonal is
    (J_b'(s)^2 + (1 - b^2/m) J_b(s)^2) / 4 at the midpoint m, s = sqrt(m).
    Accepts scalars or arrays that broadcast.
    """
    b = _check_order(b)
    if (np.asarray(u) <= 0).any() or (np.asarray(v) <= 0).any():
        raise DomainError("hard-edge kernel needs u, v > 0")

    def nodes(z):
        s = np.sqrt(z)
        return 0.5 * s * bessel_j(b + 1, s), bessel_j(b, s)

    def near(u, v):
        m = 0.5 * (u + v)
        s = np.sqrt(m)
        jb = bessel_j(b, s)
        jp = bessel_j_prime(b, s)
        return (jp * jp + (1.0 - b * b / m) * jb * jb) / 4.0

    return _integrable_kernel(u, v, nodes, near)


def sine_kernel(u, v):
    """sin(pi(u-v)) / (pi(u-v)), with value 1 on the diagonal."""
    return np.sinc(np.asarray(u, dtype=float) - np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# subspace geometry


def banach_angle(alpha: float, beta: float) -> float:
    """Asymptotic minimal angle between independent random subspaces.

    For subspaces of dimension ratios alpha, beta (alpha + beta < 1) of a
    large space, pairs of unit vectors from the two spans a.s. make an angle
    of at least theta with cos^2(theta) = s, where s is the top edge of the
    limiting spectrum of the compressed product of the two projectors.

    Mapping used: the compression onto the smaller subspace (ratios sorted
    so al <= be) is a Jacobi ensemble of size m = al*n with parameter ratios
    a/m = (1 - al - be)/al and b/m = (be - al)/al, supported on [0, 1]; its
    top edge is (s_sym + 1)/2 under the affine change from the symmetric
    [-1, 1] convention.  Equivalently s is the upper support edge of the
    free product law, which the tests cross-check.
    """
    if alpha <= 0 or beta <= 0:
        raise ParameterError("dimension ratios must be positive")
    if alpha + beta >= 1.0:
        raise RegimeError(f"needs alpha + beta < 1, got {alpha + beta}")
    lo, hi = min(alpha, beta), max(alpha, beta)
    prof = edge_profile((1.0 - lo - hi) / lo, (hi - lo) / lo)
    cos2 = 0.5 * (prof.s + 1.0)
    return math.acos(math.sqrt(cos2))
