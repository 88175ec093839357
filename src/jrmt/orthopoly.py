"""Jacobi polynomials with overflow-safe scaled arithmetic.

With parameters a, b comparable to the degree n, raw polynomial values
overflow doubles past n of a few hundred while the quantities that matter
downstream (kernel values) stay moderate.  :func:`jacobi_pair_scaled` runs
the three-term recurrence once over a numpy array of abscissae and after
every step divides each node's two running values by the same exact power of
two (``np.frexp``/``np.ldexp``), so it returns mantissas plus an integer
exponent per node and the rescaling itself never rounds.  The scalar API
(:func:`jacobi_pair`, :func:`jacobi_eval`, ...) is its face in
:class:`ScaledValue` numbers ``mantissa * exp(log_scale)``.

Polynomial normalization: P_n(1) equals the binomial coefficient C(n+a, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError

__all__ = [
    "ScaledValue",
    "jacobi_eval",
    "jacobi_pair",
    "jacobi_pair_scaled",
    "jacobi_deriv",
    "weight",
    "gamma_n",
    "log_gamma_n",
    "log_sq_norm",
    "chi",
    "chi_prime",
    "chi_numerator",
    "chi_zeros",
    "g_n",
]

_LN2 = math.log(2.0)
# steps of the array recurrence between rescalings: one step grows
# max(|P_{k-1}|, |P_k|) by at most about (a + b)/2 + 3, so four steps stay
# far from overflow
_RESCALE_EVERY = 4


@dataclass
class ScaledValue:
    """A real number stored as ``mantissa * exp(log_scale)``.

    After normalization the mantissa lies in [1, 2) up to sign, or is 0.
    """

    mantissa: float
    log_scale: float = 0.0

    def __post_init__(self):
        self._normalize()

    def _normalize(self) -> None:
        m = self.mantissa
        if m == 0.0 or not math.isfinite(m):
            self.mantissa = m
            self.log_scale = 0.0 if m == 0.0 else self.log_scale
            return
        fr, ex = math.frexp(m)  # m = fr * 2**ex, |fr| in [0.5, 1)
        self.mantissa = fr * 2.0
        self.log_scale += (ex - 1) * _LN2

    @classmethod
    def from_float(cls, v: float) -> "ScaledValue":
        return cls(float(v), 0.0)

    @classmethod
    def from_log(cls, log_abs: float, sign: float = 1.0) -> "ScaledValue":
        if sign == 0.0:
            return cls(0.0, 0.0)
        return cls(math.copysign(1.0, sign), log_abs)

    def value(self) -> float:
        """Collapse to a plain double (inf on overflow, 0 on underflow)."""
        if self.mantissa == 0.0:
            return 0.0
        try:
            return self.mantissa * math.exp(self.log_scale)
        except OverflowError:
            return math.copysign(math.inf, self.mantissa)

    def log_abs(self) -> float:
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    @property
    def sign(self) -> float:
        if self.mantissa == 0.0:
            return 0.0
        return math.copysign(1.0, self.mantissa)

    def __mul__(self, other):
        if isinstance(other, ScaledValue):
            return ScaledValue(self.mantissa * other.mantissa, self.log_scale + other.log_scale)
        return ScaledValue(self.mantissa * float(other), self.log_scale)

    __rmul__ = __mul__

    def __neg__(self):
        return ScaledValue(-self.mantissa, self.log_scale)

    def __add__(self, other):
        if not isinstance(other, ScaledValue):
            other = ScaledValue.from_float(other)
        if self.mantissa == 0.0:
            return ScaledValue(other.mantissa, other.log_scale)
        if other.mantissa == 0.0:
            return ScaledValue(self.mantissa, self.log_scale)
        # align on the larger scale; the other operand underflows harmlessly
        if self.log_scale >= other.log_scale:
            big, small = self, other
        else:
            big, small = other, self
        shift = small.log_scale - big.log_scale
        if shift < -745.0:
            return ScaledValue(big.mantissa, big.log_scale)
        return ScaledValue(big.mantissa + small.mantissa * math.exp(shift), big.log_scale)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ScaledValue):
            other = ScaledValue.from_float(other)
        return self + (-other)

    def __repr__(self):
        return f"ScaledValue({self.mantissa!r}, {self.log_scale!r})"


def _validate_params(n: int, a: float, b: float) -> None:
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    if a < 0 or b < 0:
        raise ParameterError(f"parameters must be >= 0, got a={a}, b={b}")


def _log_binom(top: float, k: int) -> float:
    # log C(top, k) for real top >= k >= 0
    return math.lgamma(top + 1.0) - math.lgamma(top - k + 1.0) - math.lgamma(k + 1.0)


def jacobi_pair_scaled(n: int, a: float, b: float, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_{n-1}, P_n) at every abscissa of x by the forward three-term recurrence.

    Returns mantissa arrays pm, p and an integer exponent array e with
    P_{n-1} = pm * 2**e and P_n = p * 2**e; P_{-1} is 0 by convention.  The
    recurrence coefficients stay below (a + b)/2 + 3, so only the values
    need rescaling.  Every operation is elementwise, so a node's result does
    not depend on the other nodes in x.
    """
    _validate_params(n, a, b)
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.shape, dtype=int)
    if n == 0:
        return np.zeros_like(x), np.ones_like(x), e
    k = np.arange(2.0, n + 1.0)
    t = 2.0 * k + a + b
    c1 = 2.0 * k * (k + a + b) * (t - 2.0)
    # P_k = (slope x + offset) P_{k-1} - drag P_{k-2}
    slope = ((t - 1.0) * t * (t - 2.0) / c1).tolist()
    offset = ((t - 1.0) * (a * a - b * b) / c1).tolist()
    drag = (2.0 * (k + a - 1.0) * (k + b - 1.0) * t / c1).tolist()
    pm = np.ones_like(x)
    p = (a + b + 2.0) * x / 2.0 + (a - b) / 2.0
    for j, (sl, of, dr) in enumerate(zip(slope, offset, drag)):
        pm, p = p, (sl * x + of) * p - dr * pm
        if j % _RESCALE_EVERY == 0:
            # a zero p leaves its exponent at 0; otherwise |pm/p| stays far
            # from overflow, since a nonzero difference of doubles is not far
            # below them
            step = np.frexp(p)[1]
            pm, p, e = np.ldexp(pm, -step), np.ldexp(p, -step), e + step
    return pm, p, e


def jacobi_pair(n: int, a: float, b: float, x: float) -> tuple[ScaledValue, ScaledValue]:
    """(P_{n-1}, P_n) at a scalar x: the scalar face of :func:`jacobi_pair_scaled`."""
    pm, p, e = jacobi_pair_scaled(n, a, b, x)
    log_scale = int(e) * _LN2
    return ScaledValue(float(pm), log_scale), ScaledValue(float(p), log_scale)


def jacobi_eval(n: int, a: float, b: float, x: float) -> ScaledValue:
    """P_n^{a,b}(x) in scaled form; exact at x = +-1 via binomial formulas."""
    _validate_params(n, a, b)
    if x == 1.0:
        return ScaledValue.from_log(_log_binom(n + a, n))
    if x == -1.0:
        return ScaledValue.from_log(_log_binom(n + b, n), sign=(-1.0) ** (n % 2))
    return jacobi_pair(n, a, b, x)[1]


def jacobi_deriv(n: int, a: float, b: float, x: float) -> ScaledValue:
    """(P_n^{a,b})'(x) = (n+a+b+1)/2 * P_{n-1}^{a+1,b+1}(x)."""
    _validate_params(n, a, b)
    if n == 0:
        return ScaledValue.from_float(0.0)
    return 0.5 * (n + a + b + 1.0) * jacobi_eval(n - 1, a + 1.0, b + 1.0, x)


def weight(a: float, b: float, x: float) -> ScaledValue:
    """(1-x)^a (1+x)^b on [-1, 1], computed through logs."""
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [-1, 1]")
    if a < 0 or b < 0:
        raise ParameterError(f"parameters must be >= 0, got a={a}, b={b}")
    log_w = 0.0
    for expo, base in ((a, 1.0 - x), (b, 1.0 + x)):
        if base == 0.0:
            if expo > 0:
                return ScaledValue.from_float(0.0)
            # expo == 0: factor is 1
        elif expo != 0.0:
            log_w += expo * math.log(base)
    return ScaledValue.from_log(log_w)


def log_gamma_n(n: int, a: float, b: float) -> float:
    """log of the Christoffel-Darboux normalization constant of the degree-n kernel.

    gamma_n = 2^{-a-b}/(2n+a+b) * Gamma(n+1)Gamma(n+a+b+1) /
    (Gamma(n+a)Gamma(n+b)), evaluated through log-Gamma.  Needs n >= 1:
    for n >= 1 and a, b >= 0 no Gamma argument can hit a pole.
    """
    if n < 1:
        raise ParameterError(f"gamma_n needs n >= 1, got {n}")
    _validate_params(n, a, b)
    return (
        -(a + b) * _LN2
        - math.log(2.0 * n + a + b)
        + math.lgamma(n + 1.0)
        + math.lgamma(n + a + b + 1.0)
        - math.lgamma(n + a)
        - math.lgamma(n + b)
    )


def gamma_n(n: int, a: float, b: float) -> ScaledValue:
    """gamma_n of :func:`log_gamma_n` in scaled form."""
    return ScaledValue.from_log(log_gamma_n(n, a, b))


def log_sq_norm(n: int, a: float, b: float) -> float:
    """log of the squared L2 norm of P_n^{a,b} under the bare weight on [-1,1]."""
    _validate_params(n, a, b)
    return (
        (a + b + 1.0) * _LN2
        - math.log(2.0 * n + a + b + 1.0)
        + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + a + b + 1.0)
    )


def chi(n: int, a: float, b: float, x: float) -> float:
    """Coefficient function of the second-order ODE satisfied by g_n.

    chi(x) = (1-a^2)/(4(1-x)^2) + (1-b^2)/(4(1+x)^2)
             + (2n(n+a+b+1) + (a+1)(b+1)) / (2(1-x^2)).

    Sign convention: with this definition the weighted polynomial g_n obeys
    g_n'' = -chi * g_n, so chi > 0 on the oscillatory band and chi < 0
    outside it once a, b > 1.
    """
    if not -1.0 < x < 1.0:
        raise DomainError(f"x={x} outside (-1, 1)")
    big = 2.0 * n * (n + a + b + 1.0) + (a + 1.0) * (b + 1.0)
    return (
        (1.0 - a * a) / (4.0 * (1.0 - x) ** 2)
        + (1.0 - b * b) / (4.0 * (1.0 + x) ** 2)
        + big / (2.0 * (1.0 - x * x))
    )


def chi_prime(n: int, a: float, b: float, x: float) -> float:
    """Analytic x-derivative of :func:`chi`."""
    if not -1.0 < x < 1.0:
        raise DomainError(f"x={x} outside (-1, 1)")
    big = 2.0 * n * (n + a + b + 1.0) + (a + 1.0) * (b + 1.0)
    return (
        (1.0 - a * a) / (2.0 * (1.0 - x) ** 3)
        - (1.0 - b * b) / (2.0 * (1.0 + x) ** 3)
        + big * x / (1.0 - x * x) ** 2
    )


def chi_numerator(n: int, a: float, b: float) -> tuple[float, float, float]:
    """Quadratic (c2, c1, c0) with chi(x) = (c2 x^2 + c1 x + c0) / (4(1-x^2)^2).

    chi's zeros are the roots of this quadratic; c2 < 0 for all n >= 1.
    """
    big = 2.0 * n * (n + a + b + 1.0) + (a + 1.0) * (b + 1.0)
    c2 = 2.0 - a * a - b * b - 2.0 * big
    c1 = 2.0 * (b * b - a * a)
    c0 = 2.0 - a * a - b * b + 2.0 * big
    return c2, c1, c0


def chi_zeros(n: int, a: float, b: float) -> tuple[float, float]:
    """The two real zeros r < s of chi, roots of :func:`chi_numerator`.

    Cancellation-free closed form: with q = -(c1 + sign(c1) sqrt(disc))/2
    the roots are q/c2 and c0/q.
    """
    c2, c1, c0 = chi_numerator(n, a, b)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc <= 0.0:
        raise NumericError(f"chi has no real zeros for n={n}, a={a}, b={b}")
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    r1, r2 = q / c2, c0 / q
    return min(r1, r2), max(r1, r2)


def g_n(n: int, a: float, b: float, x: float) -> ScaledValue:
    """(1-x)^{(a+1)/2} (1+x)^{(b+1)/2} P_n^{a,b}(x), the ODE-normalized form."""
    return weight((a + 1.0) / 2.0, (b + 1.0) / 2.0, x) * jacobi_eval(n, a, b, x)
