import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from jrmt import _scipy
from jrmt.limits import (
    airy_kernel,
    banach_angle,
    bessel_kernel,
    edge_profile,
    free_product_density,
    limit_density,
    sine_kernel,
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

# F_b(u, u) = (J_b(sqrt u)^2 - J_{b-1}(sqrt u) J_{b+1}(sqrt u)) / 4 at 50
# digits, 25 geometric points of u from 1e-12 to 400 for each order
BESSEL_DIAG_REFERENCE = [
    (0, 1e-12, "0.2499999999999375"),
    (0, 4.059001074700604e-12, "0.2499999999997463124328313"),
    (0, 1.6475489724420658e-11, "0.2499999999989702818922258"),
    (0, 6.687403049764221e-11, "0.2499999999958203730939323"),
    (0, 2.7144176165949065e-10, "0.2499999999830348898968575"),
    (0, 1.1017824022944977e-09, "0.2499999999311385998660777"),
    (0, 4.4721359549995795e-09, "0.2499999997204915029687763"),
    (0, 1.8152404647550503e-08, "0.2499999988654747121023888"),
    (0, 7.368062997280773e-08, "0.2499999953949606691122918"),
    (0, 2.990697562442441e-07, "0.2499999813081409335059706"),
    (0, 1.2139244620058345e-06, "0.2499999241297326372328056"),
    (0, 4.9273206958870345e-06, "0.2499996920426461826926278"),
    (0, 2e-05, "0.2499987500031249956596238"),
    (0, 8.118002149401207e-05, "0.24999492630014223938334"),
    (0, 0.0003295097944884131, "0.2499794064860805693334063"),
    (0, 0.0013374806099528441, "0.2499164214360048367496415"),
    (0, 0.005428835233189813, "0.2496609279631093601289398"),
    (0, 0.022035648045889956, "0.2486265597116309805520103"),
    (0, 0.08944271909999159, "0.2444719433650334340439379"),
    (0, 0.3630480929510101, "0.2283136592727484956180563"),
    (0, 1.4736125994561546, "0.1732353467381441336505408"),
    (0, 5.981395124884882, "0.06514699912228892361019056"),
    (0, 24.278489240116688, "0.03547698954170217655814503"),
    (0, 98.5464139177407, "0.01560379612274900371237372"),
    (0, 400.0, "0.008090976246297265478718638"),
    (1, 1e-12, "3.124999999999479103812441e-14"),
    (1, 4.059001074700604e-12, "1.268437835843080532528919e-13"),
    (1, 1.6475489724420658e-11, "5.148590538867317931369377e-13"),
    (1, 6.687403049764221e-11, "2.089813453028026585183194e-12"),
    (1, 2.7144176165949065e-10, "8.482555051475329618676221e-12"),
    (1, 1.1017824022944977e-09, "3.443070006538053066673287e-11"),
    (1, 4.4721359549995795e-09, "1.397542484895701921530785e-10"),
    (1, 1.8152404647550503e-08, "5.672626435197563834049767e-10"),
    (1, 7.368062997280773e-08, "2.302519658375058283381966e-9"),
    (1, 2.990697562442441e-07, "9.345929416785144521884332e-9"),
    (1, 1.2139244620058345e-06, "3.793513176261743431131565e-8"),
    (1, 4.9273206958870345e-06, "0.0000001539786452960537136116696"),
    (1, 2e-05, "0.0000006249979166699219230883753"),
    (1, 8.118002149401207e-05, "0.000002536841347968639518751984"),
    (1, 0.0003295097944884131, "0.00001029661558865029644321937"),
    (1, 0.0013374806099528441, "0.00004178695308459373171356438"),
    (1, 0.005428835233189813, "0.0001694976648124139098089217"),
    (1, 0.022035648045889956, "0.0006860893414422027119246511"),
    (1, 0.08944271909999159, "0.002753708248004857505909273"),
    (1, 0.3630480929510101, "0.0106779186885403368594464"),
    (1, 1.4736125994561546, "0.03595685162440775501578994"),
    (1, 5.981395124884882, "0.06733989966107456754468882"),
    (1, 24.278489240116688, "0.02897693739573048764842554"),
    (1, 98.5464139177407, "0.01635574682600207115273298"),
    (1, 400.0, "0.007811906742989668802485895"),
    (2, 1e-12, "1.302083333333170520538145e-27"),
    (2, 4.059001074700604e-12, "2.145246057866184362890051e-26"),
    (2, 1.6475489724420658e-11, "3.534397938267339343126978e-25"),
    (2, 6.687403049764221e-11, "5.823093691357026368250991e-24"),
    (2, 2.7144176165949065e-10, "9.59383202738381897776396e-23"),
    (2, 1.1017824022944977e-09, "1.580630809685741340481608e-21"),
    (2, 4.4721359549995795e-09, "2.604166665210893346971314e-20"),
    (2, 1.8152404647550503e-08, "4.290492105999202097831508e-19"),
    (2, 7.368062997280773e-08, "7.068795811445069465467174e-18"),
    (2, 2.990697562442441e-07, "1.164618694743361094826072e-16"),
    (2, 1.2139244620058345e-06, "1.918766114387204230418162e-15"),
    (2, 4.9273206958870345e-06, "3.161259672738694802090607e-14"),
    (2, 2e-05, "5.208320312515191813483483e-13"),
    (2, 8.118002149401207e-05, "8.580897156320893037800053e-12"),
    (2, 0.0003295097944884131, "1.413700945492200173208927e-10"),
    (2, 0.0013374806099528441, "2.32884809319766479830963e-9"),
    (2, 0.005428835233189813, "3.834929468950045351169353e-8"),
    (2, 0.022035648045889956, "0.0000006305130495505361646778542"),
    (2, 0.08944271909999159, "0.0000103008104949521083927838"),
    (2, 0.3630480929510101, "0.0001639942286429527341502242"),
    (2, 1.4736125994561546, "0.002349183000878241297713214"),
    (2, 5.981395124884882, "0.02165451535227554970104187"),
    (2, 24.278489240116688, "0.03129749605963104914908161"),
    (2, 98.5464139177407, "0.01556520846507781448607528"),
    (2, 400.0, "0.008079809580079503999133398"),
    (4, 1e-12, "3.390842013888606045916264e-55"),
    (4, 4.059001074700604e-12, "9.204161297587035472766743e-53"),
    (4, 1.6475489724420658e-11, "2.498393757212544194831077e-50"),
    (4, 6.687403049764221e-11, "6.781684027739986317301036e-48"),
    (4, 2.7144176165949065e-10, "1.840832259476390158544184e-45"),
    (4, 1.1017824022944977e-09, "4.996787513973166613758857e-43"),
    (4, 4.4721359549995795e-09, "1.356336805050078779768485e-40"),
    (4, 1.8152404647550503e-08, "3.681664513466804345021079e-38"),
    (4, 7.368062997280773e-08, "9.99357496750282078672288e-36"),
    (4, 2.990697562442441e-07, "2.712673543504559588583964e-33"),
    (4, 1.2139244620058345e-06, "7.363328293195054012410329e-31"),
    (4, 4.9273206958870345e-06, "1.998714185080453787790543e-28"),
    (4, 2e-05, "5.425338179983958244951986e-26"),
    (4, 8.118002149401207e-05, "1.472655845059370402453889e-23"),
    (4, 0.0003295097944884131, "3.997320246938004628556664e-21"),
    (4, 0.0013374806099528441, "1.084948512520268959311444e-18"),
    (4, 0.005428835233189813, "2.94399942270520511759855e-16"),
    (4, 0.022035648045889956, "7.980191731861128371758788e-14"),
    (4, 0.08944271909999159, "2.154020340634312640529579e-11"),
    (4, 0.3630480929510101, "5.714966308009677321478225e-9"),
    (4, 1.4736125994561546, "0.000001413581875747620814577004"),
    (4, 5.981395124884882, "0.0002617568774498554024276964"),
    (4, 24.278489240116688, "0.01375145370991750548303029"),
    (4, 98.5464139177407, "0.01551430416563815554198013"),
    (4, 400.0, "0.008006448436234490914003199"),
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


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.0, 0.0)], ids=["profile", "arcsine"])
def test_limit_density_is_zero_at_the_ends_of_the_interval(alpha, beta):
    # the radicand and 1 - x^2 both vanish at +-1 for the arcsine profile
    p = edge_profile(alpha, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert limit_density(p, -1.0) == 0.0
        assert limit_density(p, 1.0) == 0.0
        assert (limit_density(p, np.array([-1.0, 1.0])) == 0.0).all()


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)])
def test_limit_density_keeps_its_accuracy_near_a_hard_edge(alpha, beta):
    # x = +-(1 - d): 1 - x^2 formed as one difference keeps only about
    # ulp/d of its digits there, (x + 1)(1 - x) keeps them all
    p = edge_profile(alpha, beta)
    d = np.logspace(-15, -2)
    xs = np.concatenate([d - 1.0, 1.0 - d])
    got = limit_density(p, xs)
    with mpmath.workdps(50):
        r, s = mpmath.mpf(p.r), mpmath.mpf(p.s)
        c = 1 - mpmath.mpf(p.A) - mpmath.mpf(p.B)
        for x, value in zip(xs, got):
            xm = mpmath.mpf(x)
            if not r < xm < s:
                assert value == 0.0, x
                continue
            exact = mpmath.sqrt((xm - r) * (s - xm)) / (mpmath.pi * c * (1 - xm * xm))
            assert abs(value / exact - 1) <= 1e-15, x


def test_edge_profile_clamps_a_factor_that_rounds_below_zero():
    # 1 - A - B = 2e-17 rounds to -5.6e-17 at block ratios (7e16, 3e16),
    # the Jacobi ratios of subspace ratios (1e-17, 0.3)
    lo, hi = 1e-17, 0.3
    p = edge_profile((1.0 - lo - hi) / lo, (hi - lo) / lo)
    assert 1.0 - p.A - p.B < 0.0 and p.r == p.s


# ---------------------------------------------------------------------------
# free projector product law

_RATIO_GRID = [(i / 20, j / 20) for i in range(21) for j in range(21)]


def _exact_continuous_mass(alpha, beta):
    return min(alpha, beta) - max(alpha + beta - 1.0, 0.0)


def test_free_product_continuous_mass_is_exact():
    worst = max(
        abs(free_product_density(a, b).continuous_mass() - _exact_continuous_mass(a, b))
        for a, b in _RATIO_GRID
    )
    assert worst <= 1e-15


def test_free_product_density_integrates_to_its_continuous_mass():
    # x = m + d sin(theta) absorbs the square roots at both ends of the support
    t, w = np.polynomial.legendre.leggauss(512)
    theta = 0.5 * math.pi * t
    for alpha, beta in _RATIO_GRID:
        law = free_product_density(alpha, beta)
        lo, hi = law.support
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        integrand = law.density(mid + half * np.sin(theta)) * half * np.cos(theta) * 0.5 * math.pi
        assert float(integrand @ w) == pytest.approx(_exact_continuous_mass(alpha, beta), abs=1e-10), (alpha, beta)


def _free_density_errors(alpha, beta, fracs):
    """Relative errors of the free law's density at the points a fraction
    of the way across its support, against the 50-digit closed form."""
    law = free_product_density(alpha, beta)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        root = mpmath.sqrt(4 * a * b * (1 - a) * (1 - b))
        r_minus, r_plus = a + b - 2 * a * b - root, a + b - 2 * a * b + root
        errors = []
        for frac in fracs:
            x = float(r_minus + frac * (r_plus - r_minus))
            xm = mpmath.mpf(x)
            exact = mpmath.sqrt((r_plus - xm) * (xm - r_minus)) / (2 * mpmath.pi * xm * (1 - xm))
            errors.append(float(abs(float(law.density(x)) / exact - 1)))
    return errors


@pytest.mark.parametrize("lo", [1e-4, 1e-8, 1e-12])
def test_free_product_density_is_accurate_at_a_small_ratio(lo):
    # a support of width ~sqrt(lo): edges formed by subtraction at the block
    # ratios and divided by lo would lose digits here
    assert max(_free_density_errors(lo, 0.3, (0.1, 0.5, 0.9))) < 1e-9


@pytest.mark.parametrize("ratio, bound", [(1e-8, 1e-14), (1e-12, 1e-13)])
def test_free_product_density_keeps_its_accuracy_near_zero(ratio, bound):
    # the support (0, 4 ratio) sits against lambda = 0, where 2 lambda - 1
    # would round to ulps of 1.1e-16
    fracs = [k / 100 for k in range(1, 100)]
    assert max(_free_density_errors(ratio, ratio, fracs)) <= bound


@pytest.mark.parametrize(
    "x, expected",
    [(0.2, "0x1.74dda27ac3cfap-2"), (0.4, "0x1.2e29c1928fa1cp-2"), (0.6, "0x1.21b2865177193p-2")],
)
def test_free_product_density_is_bitwise_pinned(x, expected):
    assert float(free_product_density(0.3, 0.4).density(x)).hex() == expected


# mpmath reference values (tests/make_special_refs.py, 60 digits) of the
# lower edge at (0.3, beta), beta -> 0.3, where the edge is about
# 1.19 (beta - 0.3)^2 and the subtraction r+ - 2 sqrt(...) cancels
FREE_LOWER_EDGE_REFERENCE = [
    (0.3, 0.4, "0.01100111358712704098472747"),
    (0.3, 0.30000099999999996, "1.190475056628405953969926e-12"),
    (0.3, 0.300000001, "1.190476254173880083795412e-18"),
    (0.3, 0.30000000000099997, "1.190423520295446662441184e-24"),
]


@pytest.mark.parametrize("alpha,beta,ref", FREE_LOWER_EDGE_REFERENCE)
def test_free_product_lower_edge_keeps_its_accuracy_as_the_ratios_meet(alpha, beta, ref):
    r_minus = free_product_density(alpha, beta).support[0]
    assert abs(Fraction(r_minus) - Fraction(ref)) <= 2 * Fraction(math.ulp(float(ref)))


def test_free_product_density_is_zero_at_zero_and_one():
    density = free_product_density(0.5, 0.5).density
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(density(0.0)) == 0.0
        assert float(density(1.0)) == 0.0


def test_free_product_half_half():
    m = free_product_density(0.5, 0.5)
    assert m.support == pytest.approx((0.0, 1.0))
    assert m.atoms == [(0.0, 0.5)]


def test_free_product_degenerate_full_projector():
    m = free_product_density(1.0, 0.25)
    assert (0.0, 0.75) in m.atoms
    assert (1.0, 0.25) in m.atoms
    assert m.continuous_mass() == pytest.approx(0.0, abs=1e-10)


def test_wishart_route_matches_its_limit_law():
    # the q x q block at column ratios (2, 3) is 5 times the continuous part
    # of the free product law at (1/5, 2/5), with no atoms
    from jrmt.ensembles import sample_spectrum
    from jrmt.matalg import one_blas_thread
    from jrmt.randgen import SeededStream

    alpha, beta, q = 2.0, 3.0, 60
    big_n = int((alpha + beta) * q)
    with one_blas_thread():
        draws = np.concatenate(
            [
                sample_spectrum(SeededStream(60, t), big_n, q, int(alpha * q), "wishart")
                for t in range(500)
            ]
        )
    law = free_product_density(1.0 / (alpha + beta), alpha / (alpha + beta))
    lo, hi = law.support
    assert draws.min() > lo - 0.05 and draws.max() < hi + 0.05
    assert (alpha + beta) * law.continuous_mass() == pytest.approx(1.0, abs=1e-8)
    for x in np.quantile(draws, [0.1, 0.3, 0.5, 0.7, 0.9]):
        cdf = (alpha + beta) * scipy.integrate.quad(law.density, lo, x)[0]
        assert abs(np.mean(draws <= x) - cdf) < 0.01, x


# ---------------------------------------------------------------------------
# Airy functions and kernel


def test_airy_reference_values():
    for x, ref in AI_REFERENCE:
        assert abs(scipy.special.airy(x)[0] - float(ref)) < 1e-10, f"Ai({x})"
    for x, ref in AIP_REFERENCE:
        assert abs(scipy.special.airy(x)[1] - float(ref)) < 1e-10, f"Ai'({x})"


def test_airy_relative_accuracy_where_ai_decays():
    for x, ref in AI_DECAY_REFERENCE:
        assert abs(scipy.special.airy(x)[0] / float(ref) - 1.0) < 1e-12, f"Ai({x})"
    for x, ref in AIP_DECAY_REFERENCE:
        assert abs(scipy.special.airy(x)[1] / float(ref) - 1.0) < 1e-12, f"Ai'({x})"


def test_airy_zero_value_closed_form():
    ai0 = scipy.special.airy(0.0)[0]
    assert ai0 == pytest.approx(9.0 ** (-1.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14)


def test_airy_ode_finite_difference():
    h = 1e-3
    for x in (-2.0, 0.0, 3.0):
        below, at, above = scipy.special.airy(np.array([x - h, x, x + h]))[0]
        second = (above - 2 * at + below) / (h * h)
        assert abs(second - x * at) < 1e-6


def test_airy_positive_decreasing_right_of_zero():
    xs = np.linspace(0.0, 5.0, 11)
    vals = scipy.special.airy(xs)[0]
    assert (vals > 0).all()
    assert (np.diff(vals) < 0).all()


def test_airy_kernel_symmetry_and_diagonal():
    assert airy_kernel(0.3, -1.2) == airy_kernel(-1.2, 0.3)
    assert airy_kernel(0.0, 0.0) == pytest.approx(scipy.special.airy(0.0)[1] ** 2, rel=1e-12)
    assert airy_kernel(8.0, 8.0) < 1e-6


def test_airy_kernel_confluent_continuity():
    direct = airy_kernel(1.0, 1.0 + 2e-6)
    confluent = airy_kernel(1.0, 1.0 + 0.5e-6)
    assert direct == pytest.approx(confluent, rel=1e-5)


# ---------------------------------------------------------------------------
# Bessel functions and kernel


def test_bessel_reference_values():
    for b, z, ref in BESSEL_REFERENCE:
        assert abs(scipy.special.jv(b, z) - float(ref)) < 1e-10, f"J_{b}({z})"


def test_bessel_wide_reference_values():
    for b, z, ref in BESSEL_WIDE_REFERENCE:
        assert abs(scipy.special.jv(b, z) - float(ref)) < 1e-12, f"J_{b}({z})"


def test_bessel_at_zero():
    assert scipy.special.jv(0, 0.0) == 1.0
    for b in (1, 2, 5):
        assert scipy.special.jv(b, 0.0) == 0.0


def test_bessel_kernel_symmetry():
    assert bessel_kernel(0, 4.0, 1.0) == bessel_kernel(0, 1.0, 4.0)
    assert bessel_kernel(2, 7.0, 2.5) == bessel_kernel(2, 2.5, 7.0)


def test_bessel_kernel_diagonal_two_path():
    confluent = bessel_kernel(0, 1.0, 1.0)
    assert confluent > 0
    two_sided = bessel_kernel(0, 1.0 + 1e-4, 1.0 - 1e-4)
    assert abs(confluent - two_sided) < 1e-6


def test_bessel_kernel_diagonal_reference_values():
    for b, u, ref in BESSEL_DIAG_REFERENCE:
        assert abs(bessel_kernel(b, u, u) / float(ref) - 1.0) < 1e-13, f"F_{b}({u}, {u})"


def test_bessel_kernel_off_the_diagonal_at_a_tiny_argument(recwarn):
    # off the diagonal and on it, down to a subnormal u
    value = bessel_kernel(2, 1e-320, 1.0)
    assert math.isfinite(value)
    assert value == bessel_kernel(2, 1.0, 1e-320)
    for u in (1e-200, 1e-320):
        diag = bessel_kernel(2, u, u)
        assert math.isfinite(diag) and diag >= 0.0
    assert not recwarn.list


def test_limit_kernels_take_all_node_values_in_one_call(monkeypatch):
    # Airy and Bessel node values take O(1) memory per abscissa, so all the
    # distinct abscissae of a call go to one call of each special function
    calls = []
    special = _scipy.load("scipy.special")
    airy, jv = special.airy, special.jv
    monkeypatch.setattr(special, "airy", lambda z: calls.append(("airy", np.size(z))) or airy(z))
    monkeypatch.setattr(special, "jv", lambda v, z: calls.append((v, np.size(z))) or jv(v, z))
    u = np.linspace(0.5, 8.0, 300)
    airy_kernel(u, u)
    bessel_kernel(2, u[:, None], u[None, :])
    assert calls == [("airy", 300), (2, 300), (3, 300)]


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


# mpmath reference values (tests/make_special_refs.py, 50 digits) of the
# minimal angle at (lo, 0.3), lo far below 0.3
BANACH_REFERENCE = [
    (1e-12, 0.3, "0.9911555864311923312548995"),
    (1e-15, 0.3, "0.9911565548084157297377563"),
    (1e-17, 0.3, "0.9911565832689146712531767"),
]


@pytest.mark.parametrize("lo,hi,ref", BANACH_REFERENCE)
def test_banach_angle_keeps_its_accuracy_as_one_ratio_vanishes(lo, hi, ref):
    assert abs(Fraction(banach_angle(lo, hi)) - Fraction(ref)) <= Fraction(1e-15)


@pytest.mark.parametrize(
    "q, qprime, n, pinned",
    [
        (50, 60, 200, "0x1.dec7798a1107fp-2"),
        (15, 18, 60, "0x1.dec7798a1107fp-2"),
        (4, 5, 20, "0x1.2ac70edaa0924p-1"),
    ],
)
def test_banach_angle_is_bitwise_pinned(q, qprime, n, pinned):
    # the ratios of the `jrmt angles` runs the CLI tests make
    assert banach_angle(q / n, qprime / n).hex() == pinned
