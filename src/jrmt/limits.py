"""Limiting objects: spectral densities, edge profiles, sine/Airy/Bessel kernels.

The limit density and the free-projector law share one formula,
sqrt((x-r)(s-x)) / (pi c (x-lo)(hi-x)) on an open (r, s) inside the law's
own interval (lo, hi): (-1, 1) with c = 1-A-B, and (0, 1) with c = 2.  The
free law's continuous mass is exact: one minus its atoms.

The Airy, Bessel and finite-n kernels all have the integrable form
(f(x) g(y) - g(x) f(y)) / (x - y); :func:`_integrable_kernel` evaluates any
of them on broadcast arrays from three node values: f, g and the diagonal
K(z, z), asked for once for all distinct abscissae.  Below ``DIAG_TOL`` the
quotient gives way to the diagonal, and at a distinct close pair to a near
rule, symmetric in its two ends, by default the diagonal at the midpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._scipy import load
from .errors import DomainError, ParameterError, RegimeError

__all__ = [
    "LimitProfile",
    "FreeDensity",
    "edge_profile",
    "limit_density",
    "free_product_density",
    "airy_kernel",
    "bessel_kernel",
    "sine_kernel",
    "banach_angle",
]

# |x - y| below which integrable kernels switch from the difference quotient
# to their near-diagonal rule
DIAG_TOL = 1e-6


def _grid(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The vector z when x and y are z as a column and a row, either way round,
    with z finite and increasing in steps of at least ``DIAG_TOL``; else None.

    Then the distinct abscissae are z itself, in order, and the only pairs
    closer than ``DIAG_TOL`` are the m diagonal entries of the m x m call:
    the steps bound every other |z_i - z_j| from below, rounding included.
    """
    if x.ndim != 2 or x.shape != y.shape[::-1] or 1 not in x.shape:
        return None
    z = x.ravel()
    if z.tobytes() != y.tobytes() or not (np.diff(z) >= DIAG_TOL).all() or not np.isfinite(z).all():
        return None
    return z


def _integrable_kernel(x, y, nodes: Callable, near: Callable | None = None):
    """(f(x) g(y) - g(x) f(y)) / (x - y) on broadcast x, y.

    ``nodes(z)`` returns three arrays of node values at a 1-d array z of
    distinct sorted abscissae: f(z), g(z) and the diagonal K(z, z).  It is
    called once, on every distinct value of the unbroadcast x and y: a
    column and a row of m nodes give 2m values, not the 2m^2 of their
    meshgrid, and the quotient is formed from f and g by broadcasting.  On a
    distinct pair with |x - y| < ``DIAG_TOL`` the quotient cancels
    catastrophically, and ``near(s, t)``, called once on the two ends of all
    such pairs, each pair's ends in the order they come, gives the kernel
    there; a near rule is symmetric in its ends, and by default it is the
    diagonal at the midpoint, ``nodes(0.5 * (s + t))[2]``.  Every operation
    is elementwise and the quotient is exactly antisymmetric in its
    numerator and its denominator, so K(x, y) and K(y, x) are bitwise equal
    and an entry does not depend on the other entries asked for with it.

    A Nystrom matrix, a column and a row of the same grid of nodes spaced at
    least ``DIAG_TOL`` apart (see :func:`_grid`), takes O(m) index work: its
    distinct abscissae are the grid and its close entries the diagonal.
    Any other call sorts its abscissae and gathers its close entries.  Both
    give the same node values and the same bits.  Scalar in, scalar out.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    z = _grid(x, y)
    if z is not None:
        f, g, kzz = nodes(z)
        out = _quotient(f.reshape(x.shape), g.reshape(x.shape), f.reshape(y.shape), g.reshape(y.shape), d)
        np.fill_diagonal(out, kzz)
        return out
    z, idx = np.unique(np.concatenate([x.ravel(), y.ravel()]), return_inverse=True)
    i, j = idx[: x.size].reshape(x.shape), idx[x.size :].reshape(y.shape)
    close = np.abs(d) < DIAG_TOL
    f, g, kzz = nodes(z)
    ci, cj = (np.broadcast_to(k, d.shape)[close] for k in (i, j))
    # the diagonal, then the distinct pairs overwritten by ``near``
    close_vals = kzz[ci]
    pairs = np.flatnonzero(ci != cj)
    if pairs.size:
        s, t = z[ci[pairs]], z[cj[pairs]]
        close_vals[pairs] = near(s, t) if near else nodes(0.5 * (s + t))[2]
    out = _quotient(f[i], g[i], f[j], g[j], d)
    out[close] = close_vals
    return out[()]


def _quotient(fx, gx, fy, gy, d) -> np.ndarray:
    """(fx gy - gx fy) / d as a new array of d's shape, close entries included.

    Those entries divide by a difference below ``DIAG_TOL``, zero on the
    diagonal, and are meant to be overwritten; their 0/0 and x/0 raise no
    warning.
    """
    out = np.multiply(fx, gy, out=np.empty(d.shape))
    out -= gx * fy
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(out, d, out=out)


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
    D = sqrt((1+A+B)(1-A-B)(1-A+B)(1+A-B)), r,s = B^2 - A^2 -+ D.  1-A-B is
    clamped at 0: it rounds below 0 once one ratio is ~3e17 times the other.
    """
    if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):  # NaN fails every comparison
        raise ParameterError(f"ratios must be finite and >= 0, got alpha={alpha}, beta={beta}")
    den = 2.0 + alpha + beta
    a_ = alpha / den
    b_ = beta / den
    d = math.sqrt((1 + a_ + b_) * max(1 - a_ - b_, 0.0) * (1 - a_ + b_) * (1 + a_ - b_))
    return LimitProfile(a_, b_, b_ * b_ - a_ * a_ - d, b_ * b_ - a_ * a_ + d)


def _radical_density(x, r: float, s: float, lo: float, hi: float, c: float) -> np.ndarray:
    """sqrt((x-r)(s-x)) / (pi c (x-lo)(hi-x)) inside the open interval (r, s), 0 elsewhere.

    Points outside (lo, hi) are outside too; they divide by 1, never 0/0.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > max(r, lo)) & (x < min(s, hi))
    rad = np.where(inside, (x - r) * (s - x), 0.0)
    den = np.where(inside, math.pi * c * (x - lo) * (hi - x), 1.0)
    return np.where(inside, np.sqrt(rad) / den, 0.0)


def limit_density(profile: LimitProfile, x):
    """Limiting one-point density sqrt((x-r)(s-x)) / (pi (1-A-B)(x+1)(1-x)).

    Zero outside the open interval (r, s), its ends included.  Accepts
    scalars or arrays.
    """
    if profile.A + profile.B >= 1.0:
        raise RegimeError("profile outside the atom-free regime (A + B >= 1)")
    out = _radical_density(x, profile.r, profile.s, -1.0, 1.0, 1.0 - profile.A - profile.B)
    return out.item() if out.ndim == 0 else out


@dataclass
class FreeDensity:
    """Continuous density on the open support (r-, r+) plus point masses, total 1."""

    support: tuple[float, float]
    density: Callable[[np.ndarray], np.ndarray]
    atoms: list[tuple[float, float]] = field(default_factory=list)

    def continuous_mass(self) -> float:
        """Integral of the continuous part: one minus the atoms."""
        return 1.0 - sum(m for _, m in self.atoms)


def _free_edges(alpha: float, beta: float) -> tuple[float, float]:
    """Support ends r-, r+ = alpha + beta - 2 alpha beta -+ sqrt(4 alpha beta (1-alpha)(1-beta)).

    Every term keeps its relative accuracy as min(alpha, beta) -> 0, where
    :func:`edge_profile` at the matching Jacobi ratios would lose it.  r-
    comes from r- r+ = (alpha - beta)^2, not from the subtraction, which
    cancels as alpha -> beta (nearly square blocks).
    """
    root = math.sqrt(4.0 * alpha * beta * (1.0 - alpha) * (1.0 - beta))
    r_plus = alpha + beta - 2.0 * alpha * beta + root
    return ((alpha - beta) ** 2 / r_plus if r_plus > 0.0 else 0.0), r_plus


def free_product_density(alpha: float, beta: float) -> FreeDensity:
    """Spectral law of the product of two free projectors with trace ratios alpha, beta.

    [1 - min(alpha,beta)] delta_0 + max(alpha+beta-1, 0) delta_1 plus the
    continuous part sqrt((r+ - x)(x - r-)) / (2 pi x (1-x)) on the open
    interval (r-, r+) of :func:`_free_edges`: the limit density's formula
    on (0, 1) with c = 2.

    The same law governs every construction of the compressed product.  The
    q x q block of the ratio construction with column ratios a, b >= 1
    (N = (a+b) q, q_tilde = a q) takes q of the N eigenvalues of the N x N
    product and leaves N - q zeros, mu_N = (q/N) mu_block + (1 - q/N) delta_0.
    As q -> infinity the block therefore has no atoms, and its density is
    (a+b) times the continuous part of this law at (1/(a+b), a/(a+b)).
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ParameterError(f"trace ratios must lie in [0,1], got {alpha}, {beta}")
    r_minus, r_plus = _free_edges(alpha, beta)
    atoms = [(0.0, 1.0 - min(alpha, beta)), (1.0, max(alpha + beta - 1.0, 0.0))]
    density = functools.partial(_radical_density, r=r_minus, s=r_plus, lo=0.0, hi=1.0, c=2.0)
    return FreeDensity(support=(r_minus, r_plus), density=density, atoms=[a for a in atoms if a[1] > 0])


# ---------------------------------------------------------------------------
# Airy kernel


def _airy_nodes(z):
    ai, aip = load("scipy.special").airy(z)[:2]
    return ai, aip, aip * aip - z * ai * ai


def airy_kernel(u, v):
    """(Ai(u) Ai'(v) - Ai(v) Ai'(u)) / (u - v), confluent on the diagonal.

    On the diagonal the confluent form Ai'(u)^2 - u Ai(u)^2 is used, and
    within ``DIAG_TOL`` of it the same form at the midpoint.  Accepts scalars
    or arrays that broadcast.
    """
    return _integrable_kernel(u, v, _airy_nodes)


# ---------------------------------------------------------------------------
# Bessel kernel, nonnegative integer order


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
    if b < 0 or b != int(b):
        raise ParameterError(f"order must be a nonnegative integer, got {b}")
    b = int(b)
    if (np.asarray(u) <= 0).any() or (np.asarray(v) <= 0).any():
        raise DomainError("hard-edge kernel needs u, v > 0")

    def nodes(z):
        jv = load("scipy.special").jv
        s = np.sqrt(z)
        jb, jb1 = jv(b, s), jv(b + 1, s)
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
    of at least theta with cos^2(theta) = r+, the top edge of the free
    product law of the two projectors (:func:`free_product_density`), taken
    in closed form: theta = acos(sqrt(r+)), good to a few ulps even as
    min(alpha, beta) -> 0.
    """
    if alpha <= 0 or beta <= 0:
        raise ParameterError("dimension ratios must be positive")
    if alpha + beta >= 1.0:
        raise RegimeError(f"needs alpha + beta < 1, got {alpha + beta}")
    return math.acos(math.sqrt(_free_edges(alpha, beta)[1]))
