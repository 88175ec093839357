"""Large-n approximations of Jacobi polynomial data, used only as test oracles.

The Stirling approximant of the Christoffel-Darboux constant and the WKB
(Liouville-Green) interior asymptotic of P_n^{a,b} are independent of the
recurrence the package evaluates, so the tests compare the two.  The ODE
coefficient chi, whose zeros and slope give the soft edge, is here in its
direct form for the same reason.  Results are plain floats: a value, or the
log of a magnitude that would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from jrmt.errors import DomainError, ParameterError
from jrmt.orthopoly import chi_numerator, chi_zeros


def chi(n: int, a: float, b: float, x: float) -> float:
    """Coefficient function of the second-order ODE satisfied by g_n.

    g_n = (1-x)^{(a+1)/2} (1+x)^{(b+1)/2} P_n^{a,b}(x) is the weighted
    polynomial, and

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


def log_sq_norm(n: int, a: float, b: float) -> float:
    """log of the squared L2 norm of P_n^{a,b} under the bare weight on [-1,1]."""
    return (
        (a + b + 1.0) * math.log(2.0)
        - math.log(2.0 * n + a + b + 1.0)
        + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + a + b + 1.0)
    )


def log_gamma_n_stirling(n: int, a: float, b: float) -> float:
    """Log of the leading-order Stirling approximant of the CD constant gamma_n.

    The exact log is :func:`jrmt.orthopoly.log_gamma_n`; the approximant is
    n * 2^{-a-b} (1+al+be)^{n+a+b+1/2} / ((1+al)^{n+a-1/2} (1+be)^{n+b-1/2}
    (2+al+be)) with al = a/n, be = b/n; accurate to relative O(1/n).
    """
    if n < 1:
        raise ParameterError(f"needs n >= 1, got {n}")
    al = a / n
    be = b / n
    return (
        math.log(n)
        - (a + b) * math.log(2.0)
        + (n + a + b + 0.5) * math.log1p(al + be)
        - (n + a - 0.5) * math.log1p(al)
        - (n + b - 0.5) * math.log1p(be)
        - math.log(2.0 + al + be)
    )


@dataclass(frozen=True)
class InteriorAsymptotics:
    """Local oscillation data of P_n^{a,b} at a bulk point (Delta < 0)."""

    Delta: float
    rho: float
    theta: float
    gamma: float


def oscillation_angles(n: int, a: float, b: float, x: float) -> InteriorAsymptotics:
    """Discriminant and polar angles of the bulk oscillation at x.

    Delta = [al(x+1) + be(x-1)]^2 - 4(1+al+be)(1-x^2) with al = a/n,
    be = b/n; the three angles in (-pi, pi] are the arguments of the complex
    quantities whose moduli encode the local amplitude factors.  Only defined
    where Delta < 0 (the oscillatory band).
    """
    al = a / n
    be = b / n
    lin = al * (x + 1.0) + be * (x - 1.0)
    delta = lin * lin - 4.0 * (1.0 + al + be) * (1.0 - x * x)
    if delta >= 0.0:
        raise DomainError(f"Delta={delta:.3e} >= 0 at x={x}; not in the oscillatory band")
    root = math.sqrt(-delta)
    rho = math.atan2(root, lin)
    theta = math.atan2(root, (3.0 * al + be + 2.0) - (al + be + 2.0) * x)
    gamma = math.atan2(-root, (al + be + 2.0) * x + (al + 3.0 * be + 2.0))
    return InteriorAsymptotics(Delta=delta, rho=rho, theta=theta, gamma=gamma)


def _phase_to_edge(c2: float, r: float, s: float, x: float) -> float:
    """Closed form of the WKB phase integral of sqrt(chi) from x to s.

    Integrates sqrt(|c2|(s-t)(t-r)) / (2(1-t^2)) dt over [x, s] by partial
    fractions in 1/(1-t), 1/(1+t); each piece has an elementary
    antiderivative in the angle psi = arcsin((t-m)/d).
    """
    m = 0.5 * (r + s)
    d = 0.5 * (s - r)

    def anti(c: float, t: float) -> float:
        e = c - m
        kap = d / e
        u = min(1.0, max(-1.0, (t - m) / d))
        psi = math.asin(u)
        root = math.sqrt(1.0 - kap * kap)
        arc = math.atan((math.tan(psi / 2.0) - kap) / root)
        return e * psi - d * math.cos(psi) - 2.0 * e * root * arc

    part_plus = anti(1.0, s) - anti(1.0, x)
    part_minus = -(anti(-1.0, s) - anti(-1.0, x))
    return 0.25 * math.sqrt(-c2) * (part_plus + part_minus)


def interior_asymptotic(n: int, a: float, b: float, x: float) -> float:
    """Leading-order approximation of P_n^{a,b}(x) in the oscillatory band.

    WKB (Liouville-Green) solution of the ODE g_n'' = -chi g_n anchored at
    the upper turning point: amplitude C * chi^{-1/4} with C fixed by the
    L2 normalization of P_n, phase the closed-form integral of sqrt(chi).
    Documented accuracy: relative O(1/n) on compacts of the open band.

    Requires Delta < 0 and both turning points of chi inside (-1, 1), which
    holds once a, b > 1 (the large-parameter regime the oracle exists for).
    """
    if n < 1:
        raise ParameterError(f"needs n >= 1, got {n}")
    # raises DomainError when Delta >= 0
    oscillation_angles(n, a, b, x)
    if a <= 1.0 or b <= 1.0:
        raise DomainError(
            f"turning points of chi leave (-1,1) for a={a}, b={b}; oracle needs a, b > 1"
        )
    c2 = chi_numerator(n, a, b)[0]
    r, s, _ = chi_zeros(n, a, b)
    q = -c2 * (s - x) * (x - r)
    if q <= 0.0 or not (r < x < s):
        raise DomainError(f"x={x} outside the finite-n oscillatory band ({r:.6f}, {s:.6f})")
    log_c = 0.5 * (log_sq_norm(n, a, b) + 0.5 * math.log(-c2) - math.log(math.pi))
    log_amp = (
        log_c
        + 0.25 * math.log(4.0 * (1.0 - x * x) ** 2 / q)
        - 0.5 * (a + 1.0) * math.log(1.0 - x)
        - 0.5 * (b + 1.0) * math.log(1.0 + x)
    )
    phase = _phase_to_edge(c2, r, s, x)
    return math.cos(phase - math.pi / 4.0) * math.exp(log_amp)
