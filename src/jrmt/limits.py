"""Limiting objects: spectral densities, edge profiles, sine/Airy/Bessel kernels.

Airy and Bessel values come from ``scipy.special`` and accept scalars or
numpy arrays.  The Airy, Bessel and finite-n kernels all have the integrable
form (f(x) g(y) - g(x) f(y)) / (x - y); :func:`_integrable_kernel` evaluates
any of them on broadcast arrays from three node values: f, g and the
diagonal K(z, z).  Below ``DIAG_TOL`` the quotient gives way to the
diagonal, and at a distinct close pair to a near rule, by default the
diagonal at the midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.special

from .errors import DomainError, ParameterError, RegimeError
from .orthopoly import gauss_legendre_unit

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
# to their near-diagonal rule
DIAG_TOL = 1e-6
# most sorted abscissae, or close pairs, whose values one ``nodes`` or
# ``near`` call holds at once
NODE_BLOCK = 256
# Gauss-Legendre points of FreeDensity.continuous_mass
_MASS_QUAD = 256


def _integrable_kernel(x, y, nodes: Callable, near: Callable | None = None):
    """(f(x) g(y) - g(x) f(y)) / (x - y) on broadcast x, y.

    ``nodes(z)`` returns three arrays of node values at a 1-d array z of
    distinct sorted abscissae: f(z), g(z) and the diagonal K(z, z).  Every
    distinct value of the unbroadcast x and y is evaluated once: a column
    and a row of m nodes give 2m values, not the 2m^2 of their meshgrid, and
    the quotient is formed from f and g by broadcasting.  ``nodes`` is
    called on slices of at most ``NODE_BLOCK`` abscissae, so large node
    values take bounded memory.  On a distinct pair with |x - y| <
    ``DIAG_TOL`` the quotient cancels catastrophically, and ``near(lo, hi)``
    gives the kernel there from the two ends, lo < hi, of at most
    ``NODE_BLOCK`` such pairs; by default it is the diagonal at the
    midpoint, ``nodes(0.5 * (lo + hi))[2]``.  Every operation is elementwise
    and the quotient is exactly antisymmetric in its numerator and its
    denominator, so K(x, y) and K(y, x) are bitwise equal and an entry does
    not depend on the other entries asked for with it.  Scalar in, scalar
    out.
    """
    if near is None:

        def near(lo, hi):
            return nodes(0.5 * (lo + hi))[2]

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z, idx = np.unique(np.concatenate([x.ravel(), y.ravel()]), return_inverse=True)
    i, j = idx[: x.size].reshape(x.shape), idx[x.size :].reshape(y.shape)
    d = x - y
    close = np.abs(d) < DIAG_TOL
    # z is sorted, so the lower point of a pair has the lower index
    lo, hi = np.minimum(i, j)[close], np.maximum(i, j)[close]
    f, g, kzz = np.empty(z.size), np.empty(z.size), np.empty(z.size)
    for s in range(0, z.size, NODE_BLOCK):
        t = s + NODE_BLOCK
        f[s:t], g[s:t], kzz[s:t] = nodes(z[s:t])
    # the diagonal, then each block of distinct pairs overwritten by ``near``
    close_vals = kzz[lo]
    pairs = np.flatnonzero(lo != hi)
    for s in range(0, pairs.size, NODE_BLOCK):
        p = pairs[s : s + NODE_BLOCK]
        close_vals[p] = near(z[lo[p]], z[hi[p]])
    out = np.empty(d.shape)
    np.divide(f[i] * g[j] - g[i] * f[j], d, out=out, where=~close)
    out[close] = close_vals
    return out[()]


# ---------------------------------------------------------------------------
# spectral profiles and densities


@dataclass(frozen=True)
class LimitProfile:
    """Edge data of the limiting spectral density on [-1, 1]."""

    A: float
    B: float
    r: float
    s: float


def edge_profile(alpha: float, beta: float) -> LimitProfile:
    """Support endpoints r <= s of the limit density for parameter ratios (alpha, beta).

    A = alpha/(2+alpha+beta), B = beta/(2+alpha+beta),
    D = sqrt((1+A+B)(1-A-B)(1-A+B)(1+A-B)), r,s = B^2 - A^2 -+ D.
    """
    if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):  # NaN fails every comparison
        raise ParameterError(f"ratios must be finite and >= 0, got alpha={alpha}, beta={beta}")
    den = 2.0 + alpha + beta
    a_ = alpha / den
    b_ = beta / den
    d = math.sqrt((1 + a_ + b_) * (1 - a_ - b_) * (1 - a_ + b_) * (1 + a_ - b_))
    return LimitProfile(a_, b_, b_ * b_ - a_ * a_ - d, b_ * b_ - a_ * a_ + d)


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

    def continuous_mass(self) -> float:
        """Integral of the continuous part.

        Uses the substitution x = m + d*sin(theta) that absorbs the
        square-root vanishing at both endpoints, so plain Gauss-Legendre in
        theta, on ``_MASS_QUAD`` points, converges spectrally.
        """
        lo, hi = self.support
        if hi <= lo:
            return 0.0
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t, w = gauss_legendre_unit(_MASS_QUAD)
        theta = 0.5 * math.pi * t
        x = mid + half * np.sin(theta)
        vals = self.density(x) * half * np.cos(theta) * 0.5 * math.pi
        return float(vals @ w)

    def total_mass(self) -> float:
        return self.continuous_mass() + sum(m for _, m in self.atoms)


def _arc_law(lo: float, hi: float, atoms: list[tuple[float, float]]) -> FreeDensity:
    """Atoms plus the continuous part sqrt((hi - x)(x - lo)) / (2 pi x (1 - x)) on (lo, hi) in (0, 1)."""

    def dens(x):
        x = np.asarray(x, dtype=float)
        inside = (x > lo) & (x < hi) & (x > 0.0) & (x < 1.0)
        rad = np.where(inside, (hi - x) * (x - lo), 0.0)
        den = np.where(inside, 2.0 * math.pi * x * (1.0 - x), 1.0)
        return np.where(inside, np.sqrt(rad) / den, 0.0)

    return FreeDensity(support=(lo, hi), density=dens, atoms=atoms)


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

    atoms = []
    mass0 = 1.0 - min(alpha, beta)
    mass1 = max(alpha + beta - 1.0, 0.0)
    if mass0 > 0:
        atoms.append((0.0, mass0))
    if mass1 > 0:
        atoms.append((1.0, mass1))
    return _arc_law(r_minus, r_plus, atoms)


def wishart_ratio_density(alpha: float, beta: float) -> tuple[FreeDensity, float]:
    """Limit law of the ratio construction for column ratios alpha, beta >= 1.

    Returns the measure exactly as displayed in its source (continuous part
    g on [lambda-, lambda+] plus atoms max(0, alpha-1) delta_0 and
    max(0, beta-1) delta_1) together with the measured total mass.  The
    atoms as displayed need not complement the continuous part to mass one;
    the second return value reports the discrepancy instead of hiding it
    behind a silent renormalization.
    """
    if not (1.0 <= alpha < math.inf and 1.0 <= beta < math.inf):
        raise ParameterError(f"column ratios must be finite and >= 1, got {alpha}, {beta}")
    tot = alpha + beta
    p = math.sqrt(alpha / tot * (1.0 - 1.0 / tot))
    q = math.sqrt(1.0 / tot * (1.0 - alpha / tot))
    lam_minus, lam_plus = (p - q) ** 2, (p + q) ** 2

    atoms = []
    if alpha > 1.0:
        atoms.append((0.0, alpha - 1.0))
    if beta > 1.0:
        atoms.append((1.0, beta - 1.0))
    measure = _arc_law(lam_minus, lam_plus, atoms)
    return measure, measure.total_mass()


# ---------------------------------------------------------------------------
# Airy functions


def airy(x):
    """Airy function Ai."""
    return scipy.special.airy(x)[0]


def airy_prime(x):
    """Derivative Ai'."""
    return scipy.special.airy(x)[1]


def _airy_nodes(z):
    ai, aip = scipy.special.airy(z)[:2]
    return ai, aip, aip * aip - z * ai * ai


def airy_kernel(u, v):
    """(Ai(u) Ai'(v) - Ai(v) Ai'(u)) / (u - v), confluent on the diagonal.

    On the diagonal the confluent form Ai'(u)^2 - u Ai(u)^2 is used, and
    within ``DIAG_TOL`` of it the same form at the midpoint.  Accepts scalars
    or arrays that broadcast.
    """
    return _integrable_kernel(u, v, _airy_nodes)


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
    jb, jb1 = bessel_j(b, z), bessel_j(b + 1, z)
    return -jb1 if b == 0 else -jb1 + b * jb / z


def bessel_kernel(b: int, u, v):
    """Hard-edge kernel F_b(u, v) for u, v > 0.

    F_b(u,v) = (J_b(su) sv J_b'(sv) - J_b(sv) su J_b'(su)) / (2(u-v)) with
    su = sqrt(u), sv = sqrt(v); expanding J' through the order recurrence
    gives the integrable form with node values f(u) = su J_{b+1}(su) / 2 and
    g(u) = J_b(su) used off the diagonal.  The diagonal is Tracy-Widom's
    (J_b^2 - J_{b-1} J_{b+1}) / 4 at su with J_{b-1} = (2b/su) J_b - J_{b+1},
    that is (J_b^2 + J_{b+1}^2 - (2b/su) J_b J_{b+1}) / 4: it needs only the
    node values and stays finite and accurate as u -> 0.  It is formed at
    every node and taken within ``DIAG_TOL`` of the diagonal at the midpoint.
    Accepts scalars or arrays that broadcast.
    """
    b = _check_order(b)
    if (np.asarray(u) <= 0).any() or (np.asarray(v) <= 0).any():
        raise DomainError("hard-edge kernel needs u, v > 0")

    def nodes(z):
        s = np.sqrt(z)
        jb, jb1 = scipy.special.jv(b, s), scipy.special.jv(b + 1, s)
        return 0.5 * s * jb1, jb, (jb * jb + jb1 * jb1 - 2.0 * b / s * jb * jb1) / 4.0

    return _integrable_kernel(u, v, nodes)


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
