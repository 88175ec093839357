"""Jacobi polynomials by an overflow-safe array recurrence.

With parameters a, b comparable to the degree n, raw polynomial values
overflow doubles past n of a few hundred while the quantities that matter
downstream (kernel values) stay moderate.  :func:`jacobi_rows` runs the
three-term recurrence once over a numpy array of abscissae and records
every degree 0..n as a mantissa and an integer exponent per node: every
``_RESCALE_EVERY`` steps it divides each node's two running values by the
same exact power of two (``np.frexp``/``np.ldexp``), so the rescaling itself
never rounds.  :func:`jacobi_pair` is the table's last two rows.

Polynomial normalization: P_n(1) equals the binomial coefficient C(n+a, n).

:func:`gauss_legendre_unit` is the Gauss rule of the (0, 0) weight: built
once per size and shared, read-only, by the Fredholm determinants alone.

The weighted polynomial g_n = (1-x)^{(a+1)/2} (1+x)^{(b+1)/2} P_n obeys
g_n'' = -chi g_n, and the soft edge is the upper zero of chi.  Only chi's
numerator lives here (:func:`chi_numerator`); :func:`chi_zeros` takes its
zeros, and the root of its discriminant, in closed form.  The discriminant
is formed in one place and without cancellation, so s_n keeps a few ulps and
the scale h_n about 2e-15 / (1 - |s_n|) (see ``cdkernel.soft_edge``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericError, ParameterError

__all__ = [
    "gauss_legendre_unit",
    "jacobi_rows",
    "jacobi_pair",
    "log_gamma_n",
    "chi_numerator",
    "chi_zeros",
]

_LN2 = math.log(2.0)
# steps of the array recurrence between rescalings: one step grows
# max(|P_{k-1}|, |P_k|) by at most about (a + b)/2 + 3, so four steps stay
# far from overflow
_RESCALE_EVERY = 4


def _validate_params(n: int, a: float, b: float) -> None:
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):  # NaN fails every comparison
        raise ParameterError(f"parameters must be finite and >= 0, got a={a}, b={b}")


def jacobi_rows(n: int, a: float, b: float, x) -> tuple[np.ndarray, np.ndarray]:
    """P_0, ..., P_n at every abscissa of x, recorded by one forward recurrence.

    Returns a mantissa array m and an integer exponent array e, both of
    shape (n + 1,) + x.shape, with P_k = m[k] * 2**e[k].  The recurrence
    coefficients stay below (a + b)/2 + 3, so only the values need
    rescaling.  Every operation is elementwise, so a node's rows do not
    depend on the other nodes in x.  The table takes 16 (n + 1) bytes per
    node, and the step multipliers 8 (n - 1) more while it is built.
    Coefficients that overflow doubles (a + b beyond about 1e102) raise
    ``NumericError``.
    """
    _validate_params(n, a, b)
    x = np.asarray(x, dtype=float)
    m = np.empty((n + 1,) + x.shape)
    e = np.zeros((n + 1,) + x.shape, dtype=int)
    m[0] = 1.0
    if n == 0:
        return m, e
    k = np.arange(2.0, n + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        t = 2.0 * k + a + b
        c1 = 2.0 * k * (k + a + b) * (t - 2.0)
        # P_k = mult P_{k-1} - drag P_{k-2}, with mult = slope x + offset
        slope = (t - 1.0) * t * (t - 2.0) / c1
        offset = (t - 1.0) * (a * a - b * b) / c1
        drag = 2.0 * (k + a - 1.0) * (k + b - 1.0) * t / c1
    if not (math.isfinite(a + b) and np.isfinite([slope, offset, drag]).all()):
        raise NumericError(f"recurrence coefficients overflow for a={a}, b={b}")
    m[1] = (a + b + 2.0) * x / 2.0 + (a - b) / 2.0
    mult = np.multiply.outer(slope, x)
    mult += offset.reshape(offset.shape + (1,) * x.ndim)
    pm, p, ep = m[0], m[1], e[1]
    for j, dr in enumerate(drag.tolist()):
        p, pm = mult[j] * p - dr * pm, p
        if j % _RESCALE_EVERY == 0:
            # p becomes its frexp mantissa, exactly, and pm is divided by the
            # same power of two; the recorded row of pm keeps its own
            # exponent.  A zero p leaves its exponent at 0; otherwise |pm/p|
            # stays far from overflow, since a nonzero difference of doubles
            # is not far below them
            p, step = np.frexp(p)
            pm = np.ldexp(pm, -step)
            ep = ep + step
            e[j + 2 : j + 2 + _RESCALE_EVERY] = ep
        m[j + 2] = p
    return m, e


def jacobi_pair(n: int, a: float, b: float, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_{n-1}, P_n) at every abscissa of x: the last two rows of :func:`jacobi_rows`.

    Returns mantissa arrays pm, p and an integer exponent array e with
    P_{n-1} = pm * 2**e and P_n = p * 2**e; P_{-1} is 0 by convention.
    """
    m, e = jacobi_rows(n, a, b, x)
    if n == 0:
        return np.zeros_like(m[0]), m[0], e[0]
    return np.ldexp(m[n - 1], e[n - 1] - e[n]), m[n].copy(), e[n].copy()


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


def log_gamma_n(n: int, a: float, b: float) -> float:
    """log of the Christoffel-Darboux normalization constant of the degree-n kernel.

    gamma_n = 2^{-a-b}/(2n+a+b) * Gamma(n+1)Gamma(n+a+b+1) /
    (Gamma(n+a)Gamma(n+b)), evaluated through log-Gamma.  Needs n >= 1:
    for n >= 1 and a, b >= 0 no Gamma argument can hit a pole.  A finite a
    or b near the float limit overflows log-Gamma: a ``NumericError``.
    """
    if n < 1:
        raise ParameterError(f"gamma_n needs n >= 1, got {n}")
    _validate_params(n, a, b)
    try:
        return (
            -(a + b) * _LN2
            - math.log(2.0 * n + a + b)
            + math.lgamma(n + 1.0)
            + math.lgamma(n + a + b + 1.0)
            - math.lgamma(n + a)
            - math.lgamma(n + b)
        )
    except OverflowError:
        raise NumericError(f"log-Gamma overflows in gamma_n for n={n}, a={a}, b={b}") from None


def chi_numerator(n: int, a: float, b: float) -> tuple[float, float, float]:
    """Quadratic (c2, c1, c0) with chi(x) = (c2 x^2 + c1 x + c0) / (4(1-x^2)^2).

    chi(x) = (1-a^2)/(4(1-x)^2) + (1-b^2)/(4(1+x)^2) + big/(2(1-x^2)) with
    big = 2n(n+a+b+1) + (a+1)(b+1).  chi's zeros are the roots of this
    quadratic; c2 < 0 for all n >= 1.
    """
    big = 2.0 * n * (n + a + b + 1.0) + (a + 1.0) * (b + 1.0)
    c2 = 2.0 - a * a - b * b - 2.0 * big
    c1 = 2.0 * (b * b - a * a)
    c0 = 2.0 - a * a - b * b + 2.0 * big
    return c2, c1, c0


def chi_zeros(n: int, a: float, b: float) -> tuple[float, float, float]:
    """The two real zeros r < s of chi and the root sqrt(disc) of its discriminant.

    disc = c1^2 - 4 c2 c0 = 16 [d (d + 2ab) + a^2 + b^2 - 1] with
    d = 2n(n+a+b+1) + a + b + 1: every term but the -1 is positive and
    d^2 >= 25, so disc has no cancellation and chi two real zeros for all
    n >= 1 and a, b >= 0.  The roots are q/c2 and c0/q with
    q = -(c1 + sign(c1) sqrt(disc))/2, and the numerator's slope is
    -sqrt(disc) at s and sqrt(disc) at r.  A disc that overflows doubles
    (a or b beyond about 1e150) raises ``NumericError``.
    """
    c2, c1, c0 = chi_numerator(n, a, b)
    d = 2.0 * n * (n + a + b + 1.0) + a + b + 1.0
    disc = 16.0 * (d * (d + 2.0 * a * b) + (a * a + b * b - 1.0))
    if not math.isfinite(disc):
        raise NumericError(f"chi's discriminant overflows for n={n}, a={a}, b={b}")
    root = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(root, c1))
    r1, r2 = q / c2, c0 / q
    return min(r1, r2), max(r1, r2), root
