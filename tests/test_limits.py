import math
from fractions import Fraction

import numpy as np
import pytest

from jrmt.errors import DomainError, ParameterError, RegimeError
from jrmt.limits import (
    airy,
    airy_kernel,
    airy_prime,
    banach_angle,
    bessel_j,
    bessel_j_prime,
    bessel_kernel,
    edge_profile,
    free_product_density,
    limit_density,
    sine_kernel,
    wishart_ratio_density,
)

# Frozen 40-digit reference values from an independent arbitrary-precision
# series evaluation (tests/make_special_refs.py regenerates them).  The
# *_DECAY_* rows sit where Ai decays and are held to relative accuracy; the
# *_WIDE_* rows take large arguments and an order above the argument.
AI_REFERENCE = [
    (-14.5, "-0.03059741893955142282119372095576273753855"),
    (-11.0, "-0.008759589255702381289966088468981292377435"),
    (-8.0, "-0.05270505035638620262208267579388862081638"),
    (-6.2, "-0.3564210736689614166567956429386678686925"),
    (-3.0, "-0.378814293677658074347243916499674850505"),
    (-1.0, "0.5355608832923521187995165656388747074669"),
    (0.0, "0.355028053887817239260063186004183176398"),
    (2.5, "0.01572592338047048999526604654076416845432"),
    (6.2, "0.000006022460719688195511838059469625303051164"),
    (12.0, "1.393184688875360839049034503195532280649e-13"),
]

AIP_REFERENCE = [
    (-14.5, "-1.095321272880539215033628254668745760045"),
    (-11.0, "-1.027327873664579421461187314031216359382"),
    (-8.0, "0.9355609381983065510255224621326357323637"),
    (-6.2, "-0.08106855619630455051349703453635115868611"),
    (-3.0, "0.3145837692165988136507872660658502917019"),
    (-1.0, "-0.01016056711664520939504546984535756184189"),
    (0.0, "-0.2588194037928067984051835601892039634791"),
    (2.5, "-0.02625088103590323036489549629723250944632"),
    (6.2, "-0.00001522965169694156004139332528535487673232"),
    (12.0, "-4.854736554985308462993653997695480545773e-13"),
]

BESSEL_REFERENCE = [
    (0, 0.5, "0.9384698072408129042284046735997126255689"),
    (0, 7.3, "0.2882169476350143990357836720231257677578"),
    (0, 16.5, "-0.1963806929368610297408273574103870106937"),
    (0, 29.0, "-0.1478487646829840504606752249637638765148"),
    (0, 55.0, "-0.07454830264823682300672148521716097632551"),
    (1, 2.0, "0.5767248077568733872024482422691370869203"),
    (2, 1.0, "0.1149034849319004804696468813351666053455"),
    (2, 12.0, "-0.08493049487860480535176130853547866490899"),
    (3, 24.0, "0.161270359972276637712085609851152965489"),
    (5, 40.0, "0.1225734659771177869886303652650421252197"),
]

AI_DECAY_REFERENCE = [
    (4.0, "0.0009515638512048018736214999689001287600277"),
    (5.0, "0.0001083444281360744173498650250334598047958"),
    (6.0, "0.000009947694360252889570238847668828779047343"),
    (6.5, "0.000002795882343204913585459995748810918799174"),
    (8.0, "0.00000004692207616099231625649081703488224455253"),
    (12.0, "1.393184688875360839049034503195532280649e-13"),
    (20.0, "1.69167286867054031355356021250935132237e-27"),
]

AIP_DECAY_REFERENCE = [
    (4.0, "-0.001958640950204178900138140918409032580845"),
    (5.0, "-0.0002474138908684624760002361720630506056558"),
    (6.0, "-0.00002476520039703495475418182538698540387637"),
    (6.5, "-0.000007231931466601792559814248837755005414552"),
    (8.0, "-0.000000134143929790678657429115370793202424157"),
    (12.0, "-4.854736554985308462993653997695480545773e-13"),
    (20.0, "-7.586391625748354960515371705912807505817e-27"),
]

BESSEL_WIDE_REFERENCE = [
    (0, 100.0, "0.01998585030422312242422839095084899068063"),
    (2, 80.0, "0.0683407330953172084020087207251145247863"),
    (20, 17.0, "0.03618536310859174681044563885376263307151"),
    (5, 250.0, "-0.04446943851215875468279442650992545157893"),
    (40, 30.0, "0.0003612023608896585308901516542636420208819"),
    (60, 40.0, "0.0000001309267138298198860009467479974075797935"),
]


# ---------------------------------------------------------------------------
# edge profile and limit density


def test_profile_trivial_parameters():
    p = edge_profile(0.0, 0.0)
    assert (p.A, p.B, p.r, p.s) == (0.0, 0.0, -1.0, 1.0)


def test_profile_symmetric_parameters():
    p = edge_profile(0.7, 0.7)
    assert p.r == pytest.approx(-p.s)


def test_profile_endpoints_zero_the_radicand():
    p = edge_profile(1.0, 0.5)
    assert p.A == pytest.approx(2.0 / 7.0)
    assert p.B == pytest.approx(1.0 / 7.0)
    # r and s are exactly where the density's radicand changes sign
    for edge in (p.r, p.s):
        assert (edge - p.r) * (p.s - edge) == pytest.approx(0.0, abs=1e-12)
    eps = 1e-9
    assert limit_density(p, p.r - eps) == 0.0
    assert limit_density(p, p.s + eps) == 0.0


def test_profile_endpoints_match_density_support_by_bisection():
    # independent check: bisect on where the density turns positive
    p = edge_profile(1.0, 0.5)

    def positive(x):
        return limit_density(p, x) > 0.0

    lo, hi = -1.0 + 1e-12, 0.5 * (p.r + p.s)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if positive(mid):
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(p.r, abs=1e-9)


def test_arcsine_special_case():
    p = edge_profile(0.0, 0.0)
    assert limit_density(p, 0.0) == pytest.approx(1.0 / math.pi)
    assert limit_density(p, 0.5) == pytest.approx(1.0 / (math.pi * math.sqrt(0.75)))


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.25), (1.0, 1.0)])
def test_limit_density_integrates_to_one(alpha, beta):
    p = edge_profile(alpha, beta)
    # substitution x = m + d sin(theta) kills the sqrt endpoints
    mid, half = 0.5 * (p.r + p.s), 0.5 * (p.s - p.r)
    t, w = np.polynomial.legendre.leggauss(512)
    theta = 0.5 * math.pi * t
    x = mid + half * np.sin(theta)
    integrand = limit_density(p, x) * half * np.cos(theta) * 0.5 * math.pi
    assert float(integrand @ w) == pytest.approx(1.0, abs=1e-8)


def test_profile_rejects_negative_ratio():
    with pytest.raises(ParameterError):
        edge_profile(-0.1, 0.0)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 0.2), (0.2, math.nan), (math.inf, 0.2), (0.2, math.inf)])
def test_profile_rejects_nonfinite_ratio(alpha, beta):
    with pytest.raises(ParameterError):
        edge_profile(alpha, beta)


# ---------------------------------------------------------------------------
# free projector product law


def test_free_product_half_half():
    m = free_product_density(0.5, 0.5)
    assert m.support == pytest.approx((0.0, 1.0))
    assert m.atoms == [(0.0, 0.5)]


def test_free_product_total_mass():
    for alpha, beta in [(0.3, 0.6), (0.5, 0.5)]:
        assert free_product_density(alpha, beta).total_mass() == pytest.approx(1.0, abs=1e-8)


def test_free_product_degenerate_full_projector():
    m = free_product_density(1.0, 0.25)
    assert (0.0, 0.75) in m.atoms
    assert (1.0, 0.25) in m.atoms
    assert m.continuous_mass() == pytest.approx(0.0, abs=1e-10)


def test_free_product_rejects_out_of_range():
    with pytest.raises(ParameterError):
        free_product_density(1.2, 0.5)


# ---------------------------------------------------------------------------
# ratio-construction limit law


def test_wishart_ratio_support_at_equal_ratios():
    m, mass = wishart_ratio_density(1.0, 1.0)
    assert m.support == pytest.approx((0.0, 1.0))
    assert m.atoms == []
    # the density is returned exactly as displayed in its source; at (1,1)
    # the displayed continuous part integrates to 1/2 (it is normalized over
    # the doubled ambient dimension), and the report field exposes that
    assert mass == pytest.approx(0.5, abs=1e-8)


def test_wishart_ratio_density_nonnegative():
    m, _ = wishart_ratio_density(2.0, 3.0)
    lo, hi = m.support
    xs = np.linspace(lo + 1e-9, hi - 1e-9, 200)
    assert (m.density(xs) >= 0).all()


def test_wishart_ratio_reports_mass_discrepancy():
    # the displayed atoms overcount: the report field must expose that
    # instead of a silent renormalization
    _, mass = wishart_ratio_density(2.0, 2.0)
    assert mass > 1.5


def test_wishart_ratio_support_matches_monte_carlo():
    from jrmt.ensembles import sample_spectrum
    from jrmt.matalg import one_blas_thread
    from jrmt.randgen import SeededStream

    alpha, beta, n = 2.0, 3.0, 60
    m, _ = wishart_ratio_density(alpha, beta)
    big_n = int((alpha + beta) * n)
    with one_blas_thread():
        draws = np.concatenate(
            [
                sample_spectrum(SeededStream(60, t), big_n, n, int(alpha * n), "wishart")
                for t in range(500)
            ]
        )
    lo, hi = m.support
    assert draws.min() > lo - 0.05 and draws.max() < hi + 0.05


def test_wishart_ratio_rejects_small_ratio():
    with pytest.raises(ParameterError):
        wishart_ratio_density(0.9, 2.0)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0)])
def test_wishart_ratio_rejects_nonfinite_ratio(alpha, beta):
    with pytest.raises(ParameterError):
        wishart_ratio_density(alpha, beta)


# ---------------------------------------------------------------------------
# Airy functions and kernel


def test_airy_reference_values():
    for x, ref in AI_REFERENCE:
        assert abs(airy(x) - float(ref)) < 1e-10, f"Ai({x})"
    for x, ref in AIP_REFERENCE:
        assert abs(airy_prime(x) - float(ref)) < 1e-10, f"Ai'({x})"


def test_airy_relative_accuracy_where_ai_decays():
    for x, ref in AI_DECAY_REFERENCE:
        assert abs(airy(x) / float(ref) - 1.0) < 1e-12, f"Ai({x})"
    for x, ref in AIP_DECAY_REFERENCE:
        assert abs(airy_prime(x) / float(ref) - 1.0) < 1e-12, f"Ai'({x})"


def test_airy_zero_value_closed_form():
    assert airy(0.0) == pytest.approx(9.0 ** (-1.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14)


def test_airy_ode_finite_difference():
    h = 1e-3
    for x in (-2.0, 0.0, 3.0):
        second = (airy(x + h) - 2 * airy(x) + airy(x - h)) / (h * h)
        assert abs(second - x * airy(x)) < 1e-6


def test_airy_positive_decreasing_right_of_zero():
    xs = np.linspace(0.0, 5.0, 11)
    vals = airy(xs)
    assert (vals > 0).all()
    assert (np.diff(vals) < 0).all()


def test_airy_kernel_symmetry_and_diagonal():
    assert airy_kernel(0.3, -1.2) == airy_kernel(-1.2, 0.3)
    assert airy_kernel(0.0, 0.0) == pytest.approx(airy_prime(0.0) ** 2, rel=1e-12)
    assert airy_kernel(8.0, 8.0) < 1e-6


def test_airy_kernel_confluent_continuity():
    direct = airy_kernel(1.0, 1.0 + 2e-6)
    confluent = airy_kernel(1.0, 1.0 + 0.5e-6)
    assert direct == pytest.approx(confluent, rel=1e-5)


# ---------------------------------------------------------------------------
# Bessel functions and kernel


def test_bessel_reference_values():
    for b, z, ref in BESSEL_REFERENCE:
        assert abs(bessel_j(b, z) - float(ref)) < 1e-10, f"J_{b}({z})"


def test_bessel_wide_reference_values():
    for b, z, ref in BESSEL_WIDE_REFERENCE:
        assert abs(bessel_j(b, z) - float(ref)) < 1e-12, f"J_{b}({z})"


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for b in (1, 2, 5):
        assert bessel_j(b, 0.0) == 0.0


def test_bessel_derivative_identity():
    b, z, h = 2, 3.0, 1e-6
    fd = (bessel_j(b, z + h) - bessel_j(b, z - h)) / (2 * h)
    assert abs(bessel_j_prime(b, z) - fd) < 1e-7


def test_bessel_kernel_symmetry():
    assert bessel_kernel(0, 4.0, 1.0) == bessel_kernel(0, 1.0, 4.0)
    assert bessel_kernel(2, 7.0, 2.5) == bessel_kernel(2, 2.5, 7.0)


def test_bessel_kernel_diagonal_two_path():
    confluent = bessel_kernel(0, 1.0, 1.0)
    assert confluent > 0
    two_sided = bessel_kernel(0, 1.0 + 1e-4, 1.0 - 1e-4)
    assert abs(confluent - two_sided) < 1e-6


def test_bessel_kernel_off_the_diagonal_at_a_tiny_argument(recwarn):
    # b^2/u overflows at u = 1e-320, so the node's own diagonal is not
    # finite; the off-diagonal value never reads it
    value = bessel_kernel(2, 1e-320, 1.0)
    assert math.isfinite(value)
    assert value == bessel_kernel(2, 1.0, 1e-320)
    assert not recwarn.list


def test_bessel_kernel_rejects_nonpositive():
    with pytest.raises(DomainError):
        bessel_kernel(0, -1.0, 2.0)


def _series_coefficient(b: int, k: int, l: int) -> Fraction:
    """Exact coefficient of u^{b/2+k} v^{b/2+l} in the kernel numerator.

    The numerator is J_b(sqrt(v)) sqrt(u) J_{b+1}(sqrt(u)) - (u <-> v); the
    extraction composes the two series in exact rationals.
    """

    def j_coeff(order: int, m: int) -> Fraction:
        # coefficient of w^{order/2 + m} in J_order(sqrt(w))
        return Fraction((-1) ** m, 2 ** (order + 2 * m)) / (
            math.factorial(m + order) * math.factorial(m)
        )

    def ju_coeff(m: int) -> Fraction:
        # coefficient of w^{b/2 + 1 + m} in sqrt(w) J_{b+1}(sqrt(w))
        return j_coeff(b + 1, m)

    total = Fraction(0)
    if k >= 1:
        total += j_coeff(b, l) * ju_coeff(k - 1)
    if l >= 1:
        total -= j_coeff(b, k) * ju_coeff(l - 1)
    return total


def test_bessel_kernel_series_coefficients_exact():
    # closed form: (k-l) / ((b+k)! k! (b+l)! l!) up to the sign/power
    # normalization (-1)^{k+l-1} / 2^{2b+2(k+l)-1} that exact extraction
    # shows the displayed constant omits
    b = 0
    for k in range(4):
        for l in range(4):
            got = _series_coefficient(b, k, l)
            expected = (
                Fraction(k - l, math.factorial(b + k) * math.factorial(k))
                / (math.factorial(b + l) * math.factorial(l))
                * (-1) ** (k + l - 1)
                * Fraction(1, 2) ** (2 * b + 2 * (k + l) - 1)
            )
            assert got == expected, (k, l)


def test_sine_kernel_values():
    assert sine_kernel(0.0, 0.0) == 1.0
    assert sine_kernel(0.5, 0.0) == pytest.approx(2.0 / math.pi)
    assert sine_kernel(1.0, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_limit_density_matches_free_product_under_affine_map():
    # the compressed-ensemble density on (-1,1) and the free product law on
    # (0,1) describe the same spectrum through y = 2x - 1; after the
    # Jacobian (factor 2) and the block renormalization (the free product is
    # normalized over the full space, the ensemble over the block of ratio
    # alpha) the continuous parts must agree pointwise
    for alpha, beta in [(0.25, 0.3), (0.2, 0.5), (0.3, 0.3)]:
        lo_ratio = min(alpha, beta)
        prof = edge_profile((1.0 - alpha - beta) / lo_ratio, (max(alpha, beta) - lo_ratio) / lo_ratio)
        m = free_product_density(alpha, beta)
        xs = np.linspace(m.support[0] + 0.02, m.support[1] - 0.02, 9)
        for lam in xs:
            lhs = 2.0 * limit_density(prof, 2.0 * lam - 1.0)
            rhs = float(m.density(np.array(lam))) / lo_ratio
            assert lhs == pytest.approx(rhs, abs=1e-8)


# ---------------------------------------------------------------------------
# subspace angle prediction


def test_banach_angle_symmetric_case():
    theta = banach_angle(0.3, 0.3)
    assert 0.0 < theta < math.pi / 2


def test_banach_angle_closes_as_ratios_fill_space():
    thetas = [banach_angle(a, a) for a in (0.2, 0.35, 0.49)]
    assert thetas[0] > thetas[1] > thetas[2]
    assert thetas[-1] < 0.1


def test_banach_angle_matches_free_product_edge():
    # the squared cosine is the top edge of the free product law
    for alpha, beta in [(0.25, 0.3), (0.1, 0.4), (0.2, 0.2)]:
        theta = banach_angle(alpha, beta)
        m = free_product_density(alpha, beta)
        assert math.cos(theta) ** 2 == pytest.approx(m.support[1], rel=1e-12)


def test_banach_angle_rejects_oversized_ratios():
    with pytest.raises(RegimeError):
        banach_angle(0.6, 0.5)
