"""Jacobi polynomials by an overflow-safe array recurrence, and their norms.

With parameters a, b comparable to the degree n, raw polynomial values
overflow doubles past n of a few hundred while the quantities that matter
downstream (kernel values) stay moderate.  :func:`jacobi_rows` runs the
three-term recurrence once over a numpy array of abscissae and streams
every degree 0..n, a chunk at a time, as a mantissa and an integer exponent
per node: every ``_RESCALE_EVERY`` steps it divides each node's two running
values by the same exact power of two (``np.frexp``/``np.ldexp``), so the
rescaling itself never rounds.  :func:`jacobi_pair` is the last two rows.
The norms h_k, and gamma_n from h_{n-1}, come from one compensated sum
without scipy (:func:`log_norms`).

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

__all__ = ["gauss_legendre_unit", "jacobi_rows", "jacobi_pair", "log_norms", "log_gamma_n", "chi_numerator",
           "chi_zeros"]

_LN2 = math.log(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), k = 7..1: Stirling's series for log Gamma(z) in 1/z^13,
# ..., 1/z^3, 1/z; the next term is below 3e-17 at z >= 10
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
# steps of the array recurrence between rescalings: one step grows
# max(|P_{k-1}|, |P_k|) by at most about (a + b)/2 + 3, so four steps stay
# far from overflow
_RESCALE_EVERY = 4
# entries per chunk of :func:`jacobi_rows`, held to 8..64 degrees: long chunks
# cost fewer calls, short ones stay in cache.  On a 2-vCPU VM a fixed 64 degrees
# took 45 ms and 28 MB on a 10^4-point n = 400 density grid (8 took 29 ms and
# 4 MB), and 8, 16 or 32 degrees cost the 64-abscissa Nystrom matrices of the
# `gap_laws` benchmark about 19%, 18% or 9% more CPU than 64
_CHUNK_ENTRIES = 2**16


def _validate_params(n: int, a: float, b: float) -> None:
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):  # NaN fails every comparison
        raise ParameterError(f"parameters must be finite and >= 0, got a={a}, b={b}")


def jacobi_rows(n: int, a: float, b: float, x):
    """P_0, ..., P_n at every abscissa of x, by one forward recurrence, a chunk of degrees at a time.

    Yields (m, e) per chunk of 8 to 64 degrees (the fewer the more
    abscissae): mantissas and int32 exponents of shape (c,) + x.shape with
    P_k = m[i] * 2**e[i] for its degrees k in order.  The last chunk ends at
    P_n, with P_{n-1} beside it once n >= 1.  Each chunk overwrites the
    arrays of the one before, so memory is one chunk whatever n.  Every
    operation is elementwise: a node's rows depend on no other node and on
    no chunk size.  Coefficients that overflow doubles (a + b beyond about
    1e102), or exponents beyond 2^28, raise ``NumericError``.
    """
    _validate_params(n, a, b)
    x = np.asarray(x, dtype=float)
    k = np.arange(1.0, n + 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = 2.0 * k + a + b
        c1 = 2.0 * k * (k + a + b) * (t - 2.0)
        # P_k = mult P_{k-1} - drag P_{k-2}, with mult = slope x + offset
        slope = (t - 1.0) * t * (t - 2.0) / c1
        offset = (t - 1.0) * (a * a - b * b) / c1
        drag = 2.0 * (k + a - 1.0) * (k + b - 1.0) * t / c1
    if n:  # P_1 = ((a + b + 2) x + a - b) / 2; the general form is 0/0 at a = b = 0
        slope[0], offset[0], drag[0] = (a + b + 2.0) / 2.0, (a - b) / 2.0, 0.0
    if not (math.isfinite(a + b) and np.isfinite([slope, offset, drag]).all()):
        raise NumericError(f"recurrence coefficients overflow for a={a}, b={b}")
    drag = drag.tolist()
    chunk = min(max(_CHUNK_ENTRIES // max(x.size, 1), 8), 64)
    buf_m, buf_mult = np.empty((2, min(chunk, n + 1)) + x.shape)
    buf_e = np.empty(buf_m.shape, dtype=np.int32)
    pm, p, ep = np.zeros(x.shape), np.ones(x.shape), np.zeros(x.shape, dtype=np.int32)
    lo = 0
    # chunks end at the degrees n - i chunk, so the first one is the short one
    for hi in range(n % chunk + 1, n + 2, chunk):
        m, e, first = buf_m[: hi - lo], buf_e[: hi - lo], max(lo, 1)
        m[0], e[:_RESCALE_EVERY] = p, ep  # m[0] is P_0 in the first chunk, overwritten in the others
        mult = np.multiply.outer(slope[first - 1 : hi - 1], x, out=buf_mult[: hi - first])
        mult += offset[first - 1 : hi - 1].reshape((-1,) + (1,) * x.ndim)
        for deg, mu, dr in zip(range(first, hi), mult, drag[first - 1 : hi - 1]):
            row = mu * p
            row -= dr * pm
            if deg % _RESCALE_EVERY == 2:
                # the row becomes its frexp mantissa, exactly, and P_{deg-1} is
                # divided by the same power of two; a zero row keeps its exponent
                row, step = np.frexp(row)
                p = np.ldexp(p, -step)
                ep = ep + step
                e[deg - lo : deg - lo + _RESCALE_EVERY] = ep
            m[deg - lo] = row
            pm, p = p, row
        if not (np.abs(ep) < 2**28).all():  # a chunk moves ep by under 2^16, so nothing wrapped
            raise NumericError(f"polynomial exponents leave their range by degree {hi - 1}")
        yield m, e
        lo = hi


def jacobi_pair(n: int, a: float, b: float, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_{n-1}, P_n) at every abscissa of x: the last two rows of :func:`jacobi_rows`.

    Returns mantissa arrays pm, p and an integer exponent array e with
    P_{n-1} = pm * 2**e and P_n = p * 2**e; P_{-1} is 0 by convention.
    """
    *_, (m, e) = jacobi_rows(n, a, b, x)
    pm = np.ldexp(m[-2], e[-2] - e[-1]) if n else np.zeros_like(m[0])
    return pm, m[-1], e[-1]


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


def _stirling_rest(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2): by Stirling's series from z = 10."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    return float(np.polyval(_STIRLING, 1.0 / (z * z))) / z


@functools.lru_cache(maxsize=32)
def log_norms(n: int, a: float, b: float) -> np.ndarray:
    """log h_k, k < n, the squared norms of P_k under the weight (1-x)^a (1+x)^b.

    h_k = 2^{a+b+1} / (2k+a+b+1) Gamma(k+a+1) Gamma(k+b+1) / (Gamma(k+a+b+1) k!),
    whose Gamma quotient grows by 1 + ab / (k (k+a+b)) per degree: log h_k is
    (a+b+1) ln 2 + ln(a+b+1) + ln B(a+1, b+1) - ln(2k+a+b+1) plus the sum of
    log1p(ab / (j (j+a+b))) over j <= k.  ln B comes from Stirling's series,
    its large terms cancelled analytically, and the running sum carries the
    error of each addition, exact by TwoSum: 3e-14 absolute at n = 400.
    Cached per (n, a, b), read-only.  An overflowing a + b is a ``NumericError``.
    """
    _validate_params(n, a, b)
    if not math.isfinite(a + b):
        raise NumericError(f"the parameter sum overflows for a={a}, b={b}")
    x, y, c, j = a + 1.0, b + 1.0, a + b + 1.0, np.arange(1.0, n)
    log_beta = (_HALF_LOG_2PI - 0.5 * math.log(y) - (x - 0.5) * math.log1p(y / x) - y * math.log1p(x / y)
                + _stirling_rest(x) + _stirling_rest(y) - _stirling_rest(x + y))
    terms = np.concatenate([[c * _LN2, math.log(c), log_beta], np.log1p(a / (j + a + b) * (b / j))])
    s = np.cumsum(terms)
    # TwoSum: s[i] + err[i - 1] = s[i - 1] + terms[i] exactly
    step = s[1:] - s[:-1]
    err = (s[:-1] - (s[1:] - step)) + (terms[1:] - step)
    out = s[2:] + (np.cumsum(err)[1:] - np.log(2.0 * np.arange(n) + c))
    out.flags.writeable = False
    return out


def log_gamma_n(n: int, a: float, b: float) -> float:
    """log gamma_n, the Christoffel-Darboux constant of the degree-n kernel, n >= 1.

    gamma_n = 2n(n+a+b) / ((2n+a+b)(2n+a+b-1)) / h_{n-1}: the ratio of the
    leading coefficients of P_n and P_{n-1}, over h_{n-1}.
    """
    if n < 1:
        raise ParameterError(f"gamma_n needs n >= 1, got {n}")
    log_h = float(log_norms(n, a, b)[-1])
    return math.log(2.0 * n / (2.0 * n + a + b) * ((n + a + b) / (2.0 * n + a + b - 1.0))) - log_h


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
