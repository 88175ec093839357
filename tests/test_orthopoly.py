import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrmt.errors import DomainError, ParameterError
from jrmt.orthopoly import (
    ScaledValue,
    chi,
    chi_numerator,
    chi_prime,
    chi_zeros,
    g_n,
    gamma_n,
    jacobi_deriv,
    jacobi_eval,
    jacobi_pair,
    weight,
)
from tests.wkb_oracle import gamma_n_stirling, interior_asymptotic, oscillation_angles

# ---------------------------------------------------------------------------
# scaled arithmetic


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_scaled_product_roundtrip(a, b):
    got = (ScaledValue.from_float(a) * ScaledValue.from_float(b)).value()
    assert got == pytest.approx(a * b, rel=1e-12, abs=1e-300)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_scaled_sum_roundtrip(a, b):
    got = (ScaledValue.from_float(a) + ScaledValue.from_float(b)).value()
    assert got == pytest.approx(a + b, rel=1e-12, abs=1e-300)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(-250.0, 250.0))
def test_scaled_normalization_invariant(m, logs):
    sv = ScaledValue(m, logs)
    assert 1.0 <= sv.mantissa < 2.0
    assert sv.log_abs() == pytest.approx(math.log(m) + logs, rel=1e-12)


def test_scaled_zero_and_negative():
    z = ScaledValue.from_float(0.0)
    assert z.value() == 0.0 and z.sign == 0.0
    neg = ScaledValue.from_float(-3.5)
    assert -2.0 < neg.mantissa <= -1.0
    assert neg.value() == -3.5
    assert (neg + ScaledValue.from_float(3.5)).value() == 0.0


def test_scaled_huge_scale_survives():
    big = ScaledValue.from_log(800.0)
    small = ScaledValue.from_log(-800.0)
    assert (big * small).value() == pytest.approx(1.0)
    assert big.value() == math.inf  # collapse overflows, the scaled form does not
    assert big.log_abs() == 800.0


@given(
    st.floats(-1.9, 1.9).filter(lambda m: abs(m) >= 1.0),
    st.floats(-145.0, 145.0),
    st.floats(-1.9, 1.9).filter(lambda m: abs(m) >= 1.0),
    st.floats(-145.0, 145.0),
)
def test_scaled_ops_roundtrip_at_large_scales(m1, s1, m2, s2):
    # combined |log_scale| stays under 300, so plain doubles can still
    # represent the results for comparison
    a, b = m1 * math.exp(s1), m2 * math.exp(s2)
    sa, sb = ScaledValue(m1, s1), ScaledValue(m2, s2)
    assert (sa * sb).value() == pytest.approx(a * b, rel=1e-12)
    assert (sa + sb).value() == pytest.approx(a + b, rel=1e-12, abs=1e-200)


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
    mine_x = jacobi_eval(n, a, b, x).value()
    mine_y = jacobi_eval(n, a, b, 0.9).value()
    assert mine_x / mine_y == pytest.approx(monic_x / monic_y, rel=1e-9)


def test_legendre_closed_form():
    assert jacobi_eval(2, 0, 0, 0.3).value() == pytest.approx((3 * 0.3**2 - 1) / 2)
    assert jacobi_eval(0, 3.0, 1.0, 0.77).value() == 1.0


def test_value_at_one_is_binomial():
    assert jacobi_eval(3, 2.0, 0.0, 1.0).value() == pytest.approx(10.0, rel=1e-12)
    assert jacobi_eval(4, 1.0, 3.0, 1.0).value() == pytest.approx(5.0, rel=1e-12)
    # recurrence agrees with the exact branch as x -> 1
    rec = jacobi_pair(3, 2.0, 0.0, 1.0)[1].value()
    assert rec == pytest.approx(10.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 20),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
    st.floats(-0.99, 0.99),
)
def test_parity(n, a, b, x):
    left = jacobi_eval(n, a, b, -x)
    right = jacobi_eval(n, b, a, x)
    assert left.value() == pytest.approx((-1) ** n * right.value(), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
def test_orthogonality_gauss_legendre(a, b):
    # with integer parameters the weighted products are polynomials, so
    # 128 Gauss-Legendre nodes integrate them exactly
    t, w = np.polynomial.legendre.leggauss(128)
    wt = w * (1 - t) ** a * (1 + t) ** b
    polys = np.array([[jacobi_eval(n, a, b, float(x)).value() for x in t] for n in range(16)])
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
    polys = np.array([[jacobi_eval(n, a, b, float(x)).value() for x in t] for n in range(16)])
    gram = polys @ (wt[:, None] * polys.T)
    diag = np.diag(gram).copy()
    off = gram - np.diag(diag)
    assert np.abs(off).max() < 1e-8 * diag.max()


# ---------------------------------------------------------------------------
# derivative identity


def test_deriv_degree_one_is_constant():
    for x in (-0.5, 0.0, 0.8):
        assert jacobi_deriv(1, 0.0, 0.0, x).value() == pytest.approx(1.0)


def test_deriv_degree_zero():
    assert jacobi_deriv(0, 2.0, 1.0, 0.3).value() == 0.0


def test_deriv_finite_difference():
    n, a, b, x, h = 5, 1.5, 0.5, 0.2, 1e-5
    fd = (jacobi_eval(n, a, b, x + h).value() - jacobi_eval(n, a, b, x - h).value()) / (2 * h)
    assert abs(jacobi_deriv(n, a, b, x).value() - fd) < 1e-6


# ---------------------------------------------------------------------------
# weight


def test_weight_trivial_cases():
    assert weight(0.0, 0.0, 0.7).value() == 1.0
    assert weight(2.0, 3.0, 0.0).value() == 1.0
    assert weight(2.0, 3.0, 1.0).value() == 0.0
    assert weight(2.0, 3.0, -1.0).value() == 0.0
    assert weight(0.0, 1.0, 1.0).value() == pytest.approx(2.0)


def test_weight_log_value():
    expected = 50 * math.log(0.5) + 25 * math.log(1.5)
    assert weight(50.0, 25.0, 0.5).log_abs() == pytest.approx(expected, rel=1e-12)


def test_weight_domain_error():
    with pytest.raises(DomainError):
        weight(1.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# normalization constants


def test_gamma_n_small_case():
    assert gamma_n(1, 1.0, 1.0).value() == pytest.approx(0.375)


def test_gamma_n_positive():
    for n, a, b in [(1, 0.0, 0.0), (5, 2.0, 7.0), (50, 25.0, 12.5), (400, 200.0, 100.0)]:
        assert gamma_n(n, a, b).sign == 1.0


def test_gamma_n_rejects_degree_zero():
    with pytest.raises(ParameterError):
        gamma_n(0, 1.0, 1.0)


@pytest.mark.parametrize("n", [50, 100])
def test_gamma_n_stirling_ratio(n):
    a, b = n / 2, n / 4
    ratio = math.exp(gamma_n(n, a, b).log_abs() - gamma_n_stirling(n, a, b).log_abs())
    assert abs(ratio - 1.0) < 2.0 / n


# ---------------------------------------------------------------------------
# the ODE coefficient chi


def test_chi_symmetry_in_parameters():
    assert chi(7, 2.0, 2.0, 0.3) == pytest.approx(chi(7, 2.0, 2.0, -0.3))


def test_chi_small_case():
    assert chi(1, 0.0, 0.0, 0.0) == pytest.approx(3.0)


def test_chi_prime_finite_difference():
    n, a, b, x, h = 10, 5.0, 2.0, 0.4, 1e-6
    fd = (chi(n, a, b, x + h) - chi(n, a, b, x - h)) / (2 * h)
    assert chi_prime(n, a, b, x) == pytest.approx(fd, rel=1e-6)


def test_chi_numerator_matches_chi():
    n, a, b = 12, 6.0, 3.0
    c2, c1, c0 = chi_numerator(n, a, b)
    for x in (-0.7, 0.0, 0.5):
        quad = (c2 * x * x + c1 * x + c0) / (4 * (1 - x * x) ** 2)
        assert quad == pytest.approx(chi(n, a, b, x), rel=1e-12)


@pytest.mark.parametrize("n,a,b", [(12, 6.0, 3.0), (400, 200.0, 200.0), (50, 0.0, 40.0)])
def test_chi_zeros_are_roots_of_numerator(n, a, b):
    c2, c1, c0 = chi_numerator(n, a, b)
    r, s = chi_zeros(n, a, b)
    assert r < s
    assert (r, s) == pytest.approx(sorted(np.roots([c2, c1, c0]).real), rel=1e-12, abs=1e-15)


def test_weighted_polynomial_solves_ode():
    # g'' = -chi g for g = (1-x)^{(a+1)/2}(1+x)^{(b+1)/2} P_n, checked by
    # 5-point finite differences (the sign is fixed by oscillation in the
    # bulk: chi > 0 there)
    n, a, b = 8, 2.0, 1.0
    h = 1e-4
    for x in (-0.3, 0.1, 0.45):
        g = [g_n(n, a, b, x + k * h).value() for k in (-2, -1, 0, 1, 2)]
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
    exact = jacobi_eval(n, a, b, 0.0)
    approx = interior_asymptotic(n, a, b, 0.0)
    rel = abs(approx.value() - exact.value()) / abs(exact.value())
    assert rel < 0.02


def test_interior_asymptotic_amplitude_across_band():
    # pointwise relative error is meaningless near cos zeros; compare the
    # deviation against the local value scale instead
    n, a, b = 300, 150.0, 75.0
    for x in (-0.3, 0.0, 0.2, 0.5):
        exact = jacobi_eval(n, a, b, x)
        approx = interior_asymptotic(n, a, b, x)
        assert abs(approx.value() - exact.value()) < 0.05 * math.exp(exact.log_abs())


def test_interior_asymptotic_rejects_outside_band():
    with pytest.raises(DomainError):
        interior_asymptotic(200, 100.0, 50.0, 0.99)
