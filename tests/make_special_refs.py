"""Regenerate the frozen reference tables in test_limits.py, test_cdkernel.py and test_fredholm.py.

Independent arbitrary-precision evaluation (mpmath: 40 significant digits
for the special functions and the Tracy-Widom law, 50 for the Bessel-kernel
diagonal and the free product's top edge, 60 for the finite-n kernel and the
free product's lower edge, 80 for the soft edge); run manually when a spot-point list changes, and paste the
output over the tables:

    python tests/make_special_refs.py
"""

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

mp.mp.dps = 40

AI_POINTS = [-14.5, -11.0, -8.0, -6.2, -3.0, -1.0, 0.0, 2.5, 6.2, 12.0]
J_POINTS = [
    (0, 0.5), (0, 7.3), (0, 16.5), (0, 29.0), (0, 55.0),
    (1, 2.0), (2, 1.0), (2, 12.0), (3, 24.0), (5, 40.0),
]
# where Ai decays, checked to relative accuracy
AI_DECAY_POINTS = [4.0, 5.0, 6.0, 6.5, 8.0, 12.0, 20.0]
# large arguments and an order above the argument
J_WIDE_POINTS = [(0, 100.0), (2, 80.0), (20, 17.0), (5, 250.0), (40, 30.0), (60, 40.0)]


def _airy_table(name, points, derivative):
    print(f"{name} = [")
    for x in points:
        print(f'    ({x!r}, "{mp.nstr(mp.airyai(mp.mpf(x), derivative), 40)}"),')
    print("]\n")


def _bessel_table(name, points):
    print(f"{name} = [")
    for b, z in points:
        print(f'    ({b}, {z!r}, "{mp.nstr(mp.besselj(b, mp.mpf(z)), 40)}"),')
    print("]\n")


# orders of the Bessel-kernel diagonal, each at 25 geometric points of u
# from 1e-12 to 400
BESSEL_DIAG_ORDERS = [0, 1, 2, 4]
BESSEL_DIAG_POINTS = [float(mp.mpf(10) ** -12 * mp.mpf(4e14) ** (mp.mpf(k) / 24)) for k in range(25)]


def _bessel_diag_table():
    """F_b(u, u) = (J_b(su)^2 - J_{b-1}(su) J_{b+1}(su)) / 4 with su = sqrt(u)."""
    print("BESSEL_DIAG_REFERENCE = [")
    with mp.workdps(50):
        for b in BESSEL_DIAG_ORDERS:
            for u in BESSEL_DIAG_POINTS:
                s = mp.sqrt(mp.mpf(u))
                val = (mp.besselj(b, s) ** 2 - mp.besselj(b - 1, s) * mp.besselj(b + 1, s)) / 4
                print(f'    ({b}, {u!r}, "{mp.nstr(val, 25)}"),')
    print("]\n")


# finite-n kernel cases (n, a, b); the (400, 200, 2) case has its hard edge near -1
CD_CASES = [(10, 3.0, 1.5), (100, 50.0, 50.0), (400, 200.0, 100.0), (400, 200.0, 2.0)]
CD_DIAG_TOL = 1e-6  # jrmt.limits.DIAG_TOL
# cases that also get near pairs far inside DIAG_TOL, 1e-8 apart
CD_CLOSE_CASES = [(10, 3.0, 1.5), (400, 200.0, 2.0)]
CD_CLOSE_STEP = 1e-8
# cases and abscissae that also get pairs just outside DIAG_TOL, where the
# quotient cancels most
CD_OUTSIDE_POINTS = {(400, 200.0, 2.0): 0.92, (400, 200.0, 100.0): -0.025}
CD_OUTSIDE_STEPS = [1.1e-6, 3e-6, 1e-5]


def _band(n, a, b):
    """Band midpoint and upper edge of the limit density at (a/n, b/n), to 3 decimals."""
    al, be = a / n, b / n
    aa, bb = al / (2 + al + be), be / (2 + al + be)
    d = mp.sqrt((1 + aa + bb) * (1 - aa - bb) * (1 - aa + bb) * (1 + aa - bb))
    r, s = bb * bb - aa * aa - d, bb * bb - aa * aa + d
    return round(float((r + s) / 2), 3), round(float(s), 3)


def _cd_pairs(n, a, b):
    """(class, x, y): off-diagonal, diagonal and just-inside-DIAG_TOL pairs
    in the bulk, at the soft edge and near x = -1, for CD_CLOSE_CASES
    pairs CD_CLOSE_STEP apart at the same points, and for the cases of
    CD_OUTSIDE_POINTS pairs CD_OUTSIDE_STEPS apart at their point."""
    mid, edge = _band(n, a, b)
    pairs = []
    for x, step in ((mid, 0.01), (edge, -0.01), (-0.999, 0.002)):
        pairs += [("off", x, x + step), ("diag", x, x), ("near", x, x + 0.9 * CD_DIAG_TOL)]
    if (n, a, b) in CD_CLOSE_CASES:
        pairs += [("near", x, x + CD_CLOSE_STEP) for x in (mid, edge, -0.999)]
    if (n, a, b) in CD_OUTSIDE_POINTS:
        x = CD_OUTSIDE_POINTS[n, a, b]
        pairs += [("outside", x, x + step) for step in CD_OUTSIDE_STEPS]
    return pairs


def _cd_kernel(n, a, b, x, y):
    """Christoffel-Darboux formula for K_n^{a,b}(x, y), confluent form at x == y."""
    a, b, x, y = mp.mpf(a), mp.mpf(b), mp.mpf(x), mp.mpf(y)
    gam = (
        2 ** (-a - b) / (2 * n + a + b)
        * mp.gamma(n + 1) * mp.gamma(n + a + b + 1) / (mp.gamma(n + a) * mp.gamma(n + b))
    )

    def jac(k, al, be, t):
        if t == 0 and al == be and k % 2:
            return mp.mpf(0)  # odd degree of a symmetric weight; hypsum cannot converge to 0
        return mp.jacobi(k, al, be, t)

    def p(k, t):
        return jac(k, a, b, t)

    def dp(k, t):
        return (k + a + b + 1) / 2 * jac(k - 1, a + 1, b + 1, t)

    def w(t):
        return (1 - t) ** a * (1 + t) ** b

    if x == y:
        return gam * w(x) * (p(n - 1, x) * dp(n, x) - p(n, x) * dp(n - 1, x))
    num = p(n, x) * p(n - 1, y) - p(n - 1, x) * p(n, y)
    return gam * mp.sqrt(w(x) * w(y)) * num / (x - y)


def _cd_table():
    print("CD_KERNEL_REFERENCE = [")
    with mp.workdps(60):
        for n, a, b in CD_CASES:
            for cls, x, y in _cd_pairs(n, a, b):
                val = mp.nstr(_cd_kernel(n, a, b, x, y), 25)
                print(f'    ("{cls}", {n}, {a!r}, {b!r}, {x!r}, {y!r}, "{val}"),')
    print("]\n")


# soft-edge cases (n, a, b): the report and pinned triples, edges near +-1,
# a = b far above n, and a ratio a/n of 2.5e9
SOFT_EDGE_CASES = [
    (12, 6.0, 3.0), (100, 50.0, 25.0), (400, 200.0, 100.0), (400, 200.0, 2.0),
    (1000, 5.0, 900.0), (20, 1.2, 30.0), (12, 1e7, 3.0), (400, 1e9, 1e9),
    (1000, 1.5, 3.5e6), (400, 1e12, 3.0),
]


def _soft_edge_table():
    """(s_n, h_n): the upper root of chi's numerator and (-chi'(s_n))^{1/3},
    chi' differentiated term by term, not through the discriminant."""
    print("SOFT_EDGE_REFERENCE = [")
    with mp.workdps(80):
        for n, a, b in SOFT_EDGE_CASES:
            a_, b_ = mp.mpf(a), mp.mpf(b)
            big = 2 * n * (n + a_ + b_ + 1) + (a_ + 1) * (b_ + 1)
            c2 = 2 - a_ * a_ - b_ * b_ - 2 * big
            c1 = 2 * (b_ * b_ - a_ * a_)
            c0 = 2 - a_ * a_ - b_ * b_ + 2 * big
            s = (-c1 - mp.sqrt(c1 * c1 - 4 * c2 * c0)) / (2 * c2)
            slope = (
                (1 - a_ * a_) / (2 * (1 - s) ** 3)
                - (1 - b_ * b_) / (2 * (1 + s) ** 3)
                + big * s / (1 - s * s) ** 2
            )
            h = mp.cbrt(-slope)
            print(f'    ({n}, {a!r}, {b!r}, "{mp.nstr(s, 25)}", "{mp.nstr(h, 25)}"),')
    print("]\n")


# subspace ratios (lo, 0.3) of the minimal angle, lo far below 0.3
BANACH_LOS = [1e-12, 1e-15, 1e-17]


def _banach_table():
    """acos(sqrt(r+)), r+ = al + be - 2 al be + sqrt(4 al be (1-al)(1-be))."""
    print("BANACH_REFERENCE = [")
    with mp.workdps(50):
        for lo in BANACH_LOS:
            al, be = mp.mpf(lo), mp.mpf(0.3)
            r_plus = al + be - 2 * al * be + mp.sqrt(4 * al * be * (1 - al) * (1 - be))
            print(f'    ({lo!r}, 0.3, "{mp.nstr(mp.acos(mp.sqrt(r_plus)), 25)}"),')
    print("]\n")


# trace ratios (0.3, beta) of the free product's lower edge, beta -> 0.3
FREE_LOWER_PAIRS = [(0.3, 0.4), (0.3, 0.3 + 1e-6), (0.3, 0.3 + 1e-9), (0.3, 0.3 + 1e-12)]


def _free_lower_edge_table():
    """r- = al + be - 2 al be - sqrt(4 al be (1-al)(1-be)), the cancelling form, at 60 digits."""
    print("FREE_LOWER_EDGE_REFERENCE = [")
    with mp.workdps(60):
        for alpha, beta in FREE_LOWER_PAIRS:
            al, be = mp.mpf(alpha), mp.mpf(beta)
            r_minus = al + be - 2 * al * be - mp.sqrt(4 * al * be * (1 - al) * (1 - be))
            print(f'    ({alpha!r}, {beta!r}, "{mp.nstr(r_minus, 25)}"),')
    print("]\n")


# Tracy-Widom arguments: [-8, 6] in steps of 1/2; each value is the Nystrom
# determinant of the Airy kernel at 96 Gauss-Legendre nodes on [t, t + 16]
# (mpmath's rule of degree 6), which at t = -2 agrees with 192 nodes to
# 1.5e-40
TW_POINTS = [-8.0 + 0.5 * k for k in range(29)]
TW_TAIL = 16


def _tw_cdf(t, degree=6):
    """det(I - W^{1/2} K_Airy W^{1/2}) on [t, t + TW_TAIL] at 3 * 2^(degree - 1) nodes."""
    rule = GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)
    half = mp.mpf(TW_TAIL) / 2
    xs = [t + half * (u + 1) for u, _ in rule]
    sw = [mp.sqrt(half * w) for _, w in rule]
    ai = [mp.airyai(x) for x in xs]
    aip = [mp.airyai(x, 1) for x in xs]
    m = len(xs)
    a = mp.matrix(m, m)
    for i in range(m):
        for j in range(m):
            if i == j:
                k = aip[i] ** 2 - xs[i] * ai[i] ** 2
            else:
                k = (ai[i] * aip[j] - aip[i] * ai[j]) / (xs[i] - xs[j])
            a[i, j] = (i == j) - sw[i] * k * sw[j]
    return mp.det(a)


def _tw_table():
    print("TW_REFERENCE = [")
    with mp.workdps(50):
        for t in TW_POINTS:
            val = mp.nstr(_tw_cdf(mp.mpf(t)), 40, min_fixed=-5, max_fixed=1)
            print(f'    ({t!r}, "{val}"),')
    print("]\n")


def main():
    _airy_table("AI_REFERENCE", AI_POINTS, 0)
    _airy_table("AIP_REFERENCE", AI_POINTS, 1)
    _bessel_table("BESSEL_REFERENCE", J_POINTS)
    _airy_table("AI_DECAY_REFERENCE", AI_DECAY_POINTS, 0)
    _airy_table("AIP_DECAY_REFERENCE", AI_DECAY_POINTS, 1)
    _bessel_table("BESSEL_WIDE_REFERENCE", J_WIDE_POINTS)
    _bessel_diag_table()
    _cd_table()
    _soft_edge_table()
    _banach_table()
    _free_lower_edge_table()
    _tw_table()


if __name__ == "__main__":
    main()
