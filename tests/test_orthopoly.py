import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrmt.cdkernel import KernelSpec, _log_weight_half, soft_edge
from jrmt.errors import DomainError, ParameterError
from jrmt.orthopoly import chi_numerator, chi_zeros, jacobi_pair, log_gamma_n
from tests.wkb_oracle import chi, interior_asymptotic, log_gamma_n_stirling, oscillation_angles


def _poly(n, a, b, x):
    """P_n^{a,b} at every abscissa of x, from one recurrence call."""
    _, p, e = jacobi_pair(n, a, b, x)
    return np.ldexp(p, e)


def _deriv(n, a, b, x):
    """P_n^{a,b}'(x) = (n+a+b+1)/2 * P_{n-1}^{a+1,b+1}(x), the kernel's shift rule."""
    return 0.5 * (n + a + b + 1.0) * _poly(n - 1, a + 1.0, b + 1.0, x)


# ---------------------------------------------------------------------------
# the scaled (mantissa, power-of-two exponent) form


def test_scaled_huge_scale_survives():
    # P_2000^{1000,1000}(1) = C(3000, 2000) is about e^1905: the value
    # overflows doubles, its mantissa and exponent do not
    n, a = 2000, 1000.0
    pm, p, e = jacobi_pair(n, a, a, 1.0)
    assert np.isfinite(pm) and np.isfinite(p) and p != 0.0
    with np.errstate(over="ignore"):
        assert np.ldexp(p, e) == math.inf
    with mpmath.workdps(50):
        rel = float(mpmath.mpf(float(p)) * mpmath.mpf(2) ** int(e) / mpmath.binomial(n + a, n))
    assert rel == pytest.approx(1.0, rel=1e-11)


# bits of (P_{n-1}, P_n) at fixed abscissae, in the bulk and near both
# ends, with parameters small, comparable to n and far above it; a
# restructured recurrence must keep every one
PAIR_PIN_X = [-0.999, -0.3, 0.25, 0.97]
PAIR_PINS = [
    (
        (12, 6.0, 3.0),
        ("-0x1.619abd6e4b4a8p-1", "0x1.9a0b14df0cdd9p-2", "0x1.1a520b47c0000p-1", "0x1.cd21118575b96p-1"),
        ("0x1.b82c7632b4ee5p-1", "-0x1.0814be1b817d1p+0", "0x1.1ab3c1479ffffp+0", "0x1.403b001de4d44p+0"),
        (9, 1, 2, 13),
    ),
    (
        (400, 200.0, 100.0),
        ("-0x1.1ae3467bf6060p+0", "0x1.4bb0a41606b27p+7", "-0x1.76e78db8faf1bp+0", "0x1.2cb1b47c7aacep+0"),
        ("0x1.5fa94159657f4p+0", "-0x1.87bbb331e6645p+6", "-0x1.b6113445d242ep+0", "0x1.9a6bf3e4a1880p+0"),
        (354, 99, 143, 513),
    ),
    (
        (400, 2000.0, 3.0),
        ("-0x1.adbd7bfec0c56p-1", "-0x1.189fe7a4dcc44p-1", "0x1.c827db0edc5f6p+0", "0x1.6665c6d7923f9p+2"),
        ("0x1.92880c78698fcp-1", "0x1.dd624dc3e796bp-2", "0x1.3826064147202p+2", "0x1.07258f6410cfep+5"),
        (10, 615, 1199, 1539),
    ),
]


@pytest.mark.parametrize("params, pm_hex, p_hex, e_pin", PAIR_PINS, ids=lambda v: str(v))
def test_jacobi_pair_is_bitwise_pinned(params, pm_hex, p_hex, e_pin):
    pm, p, e = jacobi_pair(*params, np.array(PAIR_PIN_X))
    assert tuple(v.hex() for v in pm) == pm_hex
    assert tuple(v.hex() for v in p) == p_hex
    assert tuple(int(v) for v in e) == e_pin


# ---------------------------------------------------------------------------
# polynomial values: closed forms and a Gram-Schmidt oracle


def _gram_schmidt_poly(deg, a, b, x):
    """Monic orthogonal polynomial of the weight (1-t)^a (1+t)^b, evaluated at x.

    Built by Gram-Schmidt on the monomial basis; the quadrature absorbs the
    weight into Gauss-Jacobi nodes (scipy), so every inner product of
    polynomials is integrated exactly.  Independent of the recurrence under
    test.
    """
    from scipy.special import roots_jacobi

    t, wt = roots_jacobi(2 * deg + 4, a, b)
    basis = [np.ones_like(t)]
    vals = [1.0]
    for k in range(1, deg + 1):
        p = t**k
        px = x**k
        for q, qx in zip(basis, vals):
            c = float((p * q * wt).sum() / (q * q * wt).sum())
            p = p - c * q
            px = px - c * qx
        basis.append(p)
        vals.append(px)
    return vals[deg]


@pytest.mark.parametrize(
    "n,a,b,x",
    [(2, 0.0, 0.0, 0.3), (3, 1.0, 0.5, -0.4), (4, 2.0, 1.0, 0.1), (5, 0.5, 2.5, 0.7)],
)
def test_jacobi_matches_gram_schmidt(n, a, b, x):
    # same polynomial up to normalization: compare ratios at two points
    monic_x = _gram_schmidt_poly(n, a, b, x)
    monic_y = _gram_schmidt_poly(n, a, b, 0.9)
    mine_x, mine_y = _poly(n, a, b, [x, 0.9])
    assert mine_x / mine_y == pytest.approx(monic_x / monic_y, rel=1e-9)


def test_legendre_closed_form():
    assert _poly(2, 0, 0, 0.3) == pytest.approx((3 * 0.3**2 - 1) / 2)
    assert _poly(0, 3.0, 1.0, 0.77) == 1.0


def test_value_at_one_is_binomial():
    assert _poly(3, 2.0, 0.0, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert _poly(4, 1.0, 3.0, 1.0) == pytest.approx(5.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 20),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
    st.floats(-0.99, 0.99),
)
def test_parity(n, a, b, x):
    left = _poly(n, a, b, -x)
    right = _poly(n, b, a, x)
    assert left == pytest.approx((-1) ** n * right, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
def test_orthogonality_gauss_legendre(a, b):
    # with integer parameters the weighted products are polynomials, so
    # 128 Gauss-Legendre nodes integrate them exactly
    t, w = np.polynomial.legendre.leggauss(128)
    wt = w * (1 - t) ** a * (1 + t) ** b
    polys = np.array([_poly(n, a, b, t) for n in range(16)])
    gram = polys @ (wt[:, None] * polys.T)
    diag = np.diag(gram).copy()
    off = gram - np.diag(diag)
    assert np.abs(off).max() < 1e-8 * diag.max()


@pytest.mark.parametrize("a,b", [(1.5, 0.5), (0.25, 3.75)])
def test_orthogonality_fractional_weight(a, b):
    # fractional exponents defeat Gauss-Legendre; Gauss-Jacobi nodes absorb
    # the weight and keep the integrands polynomial
    from scipy.special import roots_jacobi

    t, wt = roots_jacobi(64, a, b)
    polys = np.array([_poly(n, a, b, t) for n in range(16)])
    gram = polys @ (wt[:, None] * polys.T)
    diag = np.diag(gram).copy()
    off = gram - np.diag(diag)
    assert np.abs(off).max() < 1e-8 * diag.max()


# ---------------------------------------------------------------------------
# derivative identity


def test_deriv_degree_one_is_constant():
    for x in (-0.5, 0.0, 0.8):
        assert _deriv(1, 0.0, 0.0, x) == pytest.approx(1.0)


def test_deriv_degree_zero():
    # P_0 = 1 and P_{-1} = 0 at every x, so the degree-zero derivative
    # vanishes and the n = 1 kernel's shift rule sees a zero P_{-1}
    pm, p, e = jacobi_pair(0, 2.0, 1.0, [0.3 - 1e-5, 0.3, 0.3 + 1e-5])
    assert (np.ldexp(p, e) == 1.0).all() and (pm == 0.0).all()


def test_deriv_finite_difference():
    n, a, b, x, h = 5, 1.5, 0.5, 0.2, 1e-5
    below, above = _poly(n, a, b, [x - h, x + h])
    fd = (above - below) / (2 * h)
    assert abs(_deriv(n, a, b, x) - fd) < 1e-6


# ---------------------------------------------------------------------------
# weight: the kernel's log of (1-x)^{a/2} (1+x)^{b/2} is the one weight formula


def test_weight_log_value():
    expected = 50 * math.log(0.5) + 25 * math.log(1.5)
    got = 2.0 * _log_weight_half(KernelSpec(1, 50.0, 25.0), 0.5)
    assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# normalization constants


def test_gamma_n_small_case():
    assert math.exp(log_gamma_n(1, 1.0, 1.0)) == pytest.approx(0.375)


def test_gamma_n_positive():
    # gamma_n = exp(log_gamma_n) > 0 wherever the log is finite
    for n, a, b in [(1, 0.0, 0.0), (5, 2.0, 7.0), (50, 25.0, 12.5), (400, 200.0, 100.0)]:
        assert math.isfinite(log_gamma_n(n, a, b))


def test_gamma_n_rejects_degree_zero():
    with pytest.raises(ParameterError):
        log_gamma_n(0, 1.0, 1.0)


@pytest.mark.parametrize("n", [50, 100])
def test_gamma_n_stirling_ratio(n):
    a, b = n / 2, n / 4
    ratio = math.exp(log_gamma_n(n, a, b) - log_gamma_n_stirling(n, a, b))
    assert abs(ratio - 1.0) < 2.0 / n


# ---------------------------------------------------------------------------
# the ODE coefficient chi


def test_chi_symmetry_in_parameters():
    assert chi(7, 2.0, 2.0, 0.3) == pytest.approx(chi(7, 2.0, 2.0, -0.3))


def test_chi_small_case():
    assert chi(1, 0.0, 0.0, 0.0) == pytest.approx(3.0)


def test_chi_prime_finite_difference():
    # the soft-edge scale h_n comes from the discriminant, not from chi'; a
    # central difference of the oracle chi checks h_n^3 = -chi'(s_n)
    n, a, b, step = 10, 5.0, 2.0, 1e-6
    s, h = soft_edge(KernelSpec(n, a, b))
    fd = (chi(n, a, b, s + step) - chi(n, a, b, s - step)) / (2 * step)
    assert h**3 == pytest.approx(-fd, rel=1e-6)


def test_chi_numerator_matches_chi():
    n, a, b = 12, 6.0, 3.0
    c2, c1, c0 = chi_numerator(n, a, b)
    for x in (-0.7, 0.0, 0.5):
        quad = (c2 * x * x + c1 * x + c0) / (4 * (1 - x * x) ** 2)
        assert quad == pytest.approx(chi(n, a, b, x), rel=1e-12)


@pytest.mark.parametrize("n,a,b", [(12, 6.0, 3.0), (400, 200.0, 200.0), (50, 0.0, 40.0)])
def test_chi_zeros_are_roots_of_numerator(n, a, b):
    c2, c1, c0 = chi_numerator(n, a, b)
    r, s, root = chi_zeros(n, a, b)
    assert r < s
    assert root == pytest.approx(math.sqrt(c1 * c1 - 4 * c2 * c0), rel=1e-12)
    assert (r, s) == pytest.approx(sorted(np.roots([c2, c1, c0]).real), rel=1e-12, abs=1e-15)


def test_weighted_polynomial_solves_ode():
    # g'' = -chi g for g = (1-x)^{(a+1)/2}(1+x)^{(b+1)/2} P_n, checked by
    # 5-point finite differences (the sign is fixed by oscillation in the
    # bulk: chi > 0 there)
    n, a, b = 8, 2.0, 1.0
    h = 1e-4
    for x in (-0.3, 0.1, 0.45):
        t = x + h * np.arange(-2, 3)
        g = (1 - t) ** ((a + 1) / 2) * (1 + t) ** ((b + 1) / 2) * _poly(n, a, b, t)
        g2 = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h * h)
        target = -chi(n, a, b, x) * g[2]
        assert abs(g2 - target) < 1e-4 * abs(target)


# ---------------------------------------------------------------------------
# interior oscillatory asymptotics (validation oracle)


def test_oscillation_discriminant_value():
    # alpha = beta = 0 at x = 0.5: 0 - 4 * 1 * 0.75 = -3
    angles = oscillation_angles(1, 0.0, 0.0, 0.5)
    assert angles.Delta == pytest.approx(-3.0)


def test_oscillation_angles_are_polar():
    ang = oscillation_angles(200, 100.0, 50.0, 0.1)
    for val in (ang.rho, ang.theta, ang.gamma):
        assert -math.pi < val <= math.pi
    assert abs(complex(math.cos(ang.rho), math.sin(ang.rho))) == pytest.approx(1.0)


def test_interior_asymptotic_matches_recurrence():
    n, a, b = 200, 100.0, 50.0
    exact = _poly(n, a, b, 0.0)
    approx = interior_asymptotic(n, a, b, 0.0)
    rel = abs(approx - exact) / abs(exact)
    assert rel < 0.02


def test_interior_asymptotic_amplitude_across_band():
    # pointwise relative error is meaningless near cos zeros; compare the
    # deviation against the local value scale instead
    n, a, b = 300, 150.0, 75.0
    xs = (-0.3, 0.0, 0.2, 0.5)
    for x, exact in zip(xs, _poly(n, a, b, xs)):
        approx = interior_asymptotic(n, a, b, x)
        assert abs(approx - exact) < 0.05 * abs(exact)


def test_interior_asymptotic_rejects_outside_band():
    with pytest.raises(DomainError):
        interior_asymptotic(200, 100.0, 50.0, 0.99)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
def test_nonfinite_parameters_rejected(a, b):
    with pytest.raises(ParameterError):
        jacobi_pair(5, a, b, 0.3)
    with pytest.raises(ParameterError):
        log_gamma_n(5, a, b)
