"""Regenerate the frozen reference tables in test_limits.py and test_cdkernel.py.

Independent arbitrary-precision evaluation (mpmath: 40 significant digits
for the special functions, 50 for the Bessel-kernel diagonal, 60 for the
finite-n kernel); run manually when a spot-point list changes, and paste the
output over the tables:

    python tests/make_special_refs.py
"""

import mpmath as mp

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


def _band(n, a, b):
    """Band midpoint and upper edge of the limit density at (a/n, b/n), to 3 decimals."""
    al, be = a / n, b / n
    aa, bb = al / (2 + al + be), be / (2 + al + be)
    d = mp.sqrt((1 + aa + bb) * (1 - aa - bb) * (1 - aa + bb) * (1 + aa - bb))
    r, s = bb * bb - aa * aa - d, bb * bb - aa * aa + d
    return round(float((r + s) / 2), 3), round(float(s), 3)


def _cd_pairs(n, a, b):
    """(class, x, y): off-diagonal, diagonal and just-inside-DIAG_TOL pairs
    in the bulk, at the soft edge and near x = -1, and for CD_CLOSE_CASES
    pairs CD_CLOSE_STEP apart at the same points."""
    mid, edge = _band(n, a, b)
    pairs = []
    for x, step in ((mid, 0.01), (edge, -0.01), (-0.999, 0.002)):
        pairs += [("off", x, x + step), ("diag", x, x), ("near", x, x + 0.9 * CD_DIAG_TOL)]
    if (n, a, b) in CD_CLOSE_CASES:
        pairs += [("near", x, x + CD_CLOSE_STEP) for x in (mid, edge, -0.999)]
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


def main():
    _airy_table("AI_REFERENCE", AI_POINTS, 0)
    _airy_table("AIP_REFERENCE", AI_POINTS, 1)
    _bessel_table("BESSEL_REFERENCE", J_POINTS)
    _airy_table("AI_DECAY_REFERENCE", AI_DECAY_POINTS, 0)
    _airy_table("AIP_DECAY_REFERENCE", AI_DECAY_POINTS, 1)
    _bessel_table("BESSEL_WIDE_REFERENCE", J_WIDE_POINTS)
    _bessel_diag_table()
    _cd_table()


if __name__ == "__main__":
    main()
