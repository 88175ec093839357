import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import jrmt.cdkernel
import jrmt.fredholm
from jrmt import _scipy
from jrmt.cdkernel import KernelSpec, finite_profile, kernel
from jrmt.fredholm import (
    GapQuery, gap_probability, gauss_legendre, gauss_legendre_unit, largest_eval_cdf, tracy_widom_cdf
)
from jrmt.limits import bessel_kernel, free_product_density
from jrmt.orthopoly import jacobi_rows
from tests.fresh import same_at_one_and_two_threads


def test_zero_kernel_gives_one():
    q = GapQuery(lambda x, y: 0.0 * x * y, (0.0, 1.0))
    assert gap_probability(q) == pytest.approx(1.0, abs=1e-14)


def test_rank_one_constant_kernel():
    # k(x,y) = phi(x) phi(y) with phi constant and integral of phi^2 = 0.3
    phi = math.sqrt(0.3)
    q = GapQuery(lambda x, y: phi * phi * np.ones_like(x * y), (0.0, 1.0))
    assert gap_probability(q) == pytest.approx(0.7, abs=1e-8)


def test_rank_one_finite_kernel_closed_form():
    # the size-1 ensemble kernel is identically 1/2 on [-1,1]; its gap on
    # [x, 1] is 1 - (1-x)/2
    spec = KernelSpec(1, 0.0, 0.0)
    assert largest_eval_cdf(spec, 0.2) == pytest.approx(0.6, abs=1e-10)


def _fredholm_series(kernel, lo, hi, m=200, terms=3):
    """Truncated alternating-sum expansion of det(I - K); test oracle only.

    Exact for kernels of rank <= terms because higher principal minors
    vanish identically.
    """
    x, w = gauss_legendre(m, lo, hi)
    k = kernel(x[:, None], x[None, :])
    total = 1.0
    if terms >= 1:
        total -= float(np.diag(k) @ w)
    if terms >= 2:
        kw = k * w
        tr1 = float(np.diag(k) @ w)
        tr2 = float(np.trace(kw @ kw))
        total += 0.5 * (tr1 * tr1 - tr2)
    if terms >= 3:
        kw = k * w
        tr1 = float(np.diag(k) @ w)
        tr2 = float(np.trace(kw @ kw))
        tr3 = float(np.trace(kw @ kw @ kw))
        total -= (tr1**3 - 3 * tr1 * tr2 + 2 * tr3) / 6.0
    return total


def test_series_oracle_rank_two_kernel():
    # orthonormal modes on [0,1]: 1 and sqrt(3)(2x-1); det = (1-c1)(1-c2)
    c1, c2 = 0.4, 0.15

    def kern(x, y):
        p1x, p1y = 1.0, 1.0
        p2x = math.sqrt(3.0) * (2.0 * x - 1.0)
        p2y = math.sqrt(3.0) * (2.0 * y - 1.0)
        return c1 * p1x * p1y + c2 * p2x * p2y

    expected = (1 - c1) * (1 - c2)
    assert gap_probability(GapQuery(kern, (0.0, 1.0))) == pytest.approx(expected, abs=1e-10)
    assert _fredholm_series(kern, 0.0, 1.0) == pytest.approx(expected, abs=1e-10)


def test_series_oracle_matches_determinant_on_finite_kernel():
    from jrmt.cdkernel import kernel as cd_kernel

    spec = KernelSpec(2, 1.0, 0.5)
    fn = lambda s, t: cd_kernel(spec, s, t)
    det = gap_probability(GapQuery(fn, (0.4, 1.0)))
    series = _fredholm_series(fn, 0.4, 1.0, terms=3)
    # rank-2 kernel: the series with 3 terms is exact
    assert det == pytest.approx(series, abs=1e-9)


def test_largest_eval_cdf_calls_the_kernel_once(monkeypatch):
    shapes = []

    def counting(spec, x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return kernel(spec, x, y)

    monkeypatch.setattr(jrmt.fredholm, "kernel", counting)
    largest_eval_cdf(KernelSpec(12, 6.0, 3.0), 0.5)
    # a column and a row of the nodes, not their m x m meshgrid
    assert shapes == [((64, 1), (1, 64))]


def test_largest_eval_cdf_runs_each_recurrence_once(monkeypatch):
    calls = []

    def counting(n, a, b, x):
        calls.append((n, a, b, np.shape(x)))
        return jacobi_rows(n, a, b, x)

    monkeypatch.setattr(jrmt.cdkernel, "jacobi_rows", counting)
    largest_eval_cdf(KernelSpec(12, 6.0, 3.0), 0.5)
    # one recurrence runs P_0..P_n at the 64 nodes; its last two rows serve
    # the quotient and all of them, as they stream past, the Gram sum on the
    # diagonal
    assert calls == [(12, 6.0, 3.0, (64,))]


def test_tracy_widom_cdf_evaluates_airy_once(monkeypatch):
    sizes = []
    special = _scipy.load("scipy.special")
    airy = special.airy

    def counting(z):
        sizes.append(np.shape(z))
        return airy(z)

    monkeypatch.setattr(special, "airy", counting)
    for t in (-3.0, 0.0, 2.5):
        sizes.clear()
        tracy_widom_cdf(t)
        assert sizes == [(64,)]


# mpmath reference values (tests/make_special_refs.py, 40 digits) of the TW
# law: Nystrom determinants of the Airy kernel at 96 Gauss-Legendre nodes on
# [t, t + 16], which at t = -2 agree with 192 nodes to 1.5e-40
TW_REFERENCE = [
    (-8.0, "1.98590042576410000902768238308969025289e-19"),
    (-7.5, "3.657651092562851601937505247278667515814e-16"),
    (-7.0, "2.639614767246062449415408247778563848522e-13"),
    (-6.5, "7.946076630727341693710197548670611647838e-11"),
    (-6.0, "1.062254674124451068798905451565911252268e-8"),
    (-5.5, "6.713838789865410167677305541272398753615e-7"),
    (-5.0, "2.135996984741115769872315434538435502732e-5"),
    (-4.5, "0.0003642223896787062398689016295149603999081"),
    (-4.0, "0.003544553595509200296340396512749004708658"),
    (-3.5, "0.02096769149276654325127495407537829770611"),
    (-3.0, "0.08031955293933454808137189279886653259818"),
    (-2.5, "0.2123514258195901062911634358606370359916"),
    (-2.0, "0.4132241425051225546880807613717183050262"),
    (-1.5, "0.6313808764207260466233171117108128091498"),
    (-1.0, "0.8072142419992852924789582879966889286514"),
    (-0.5, "0.916065189009287196501235455443806497912"),
    (0.0, "0.9693728283552626683498782494508137827306"),
    (0.5, "0.9905446073837164221162418432591923570578"),
    (1.0, "0.9975054381493892493791531188651485010146"),
    (1.5, "0.9994322343111556701096197865896634495197"),
    (2.0, "0.9998875536983091729250301355236344800716"),
    (2.5, "0.9999804720350555626267688982241826531766"),
    (3.0, "0.999997005956607648307776021886671834916"),
    (3.5, "0.9999995922779405975651171503267316062734"),
    (4.0, "0.9999999504208784666895298126865050024747"),
    (4.5, "0.9999999945907759441154306480723487349708"),
    (5.0, "0.999999999468220673666757360366341245545"),
    (5.5, "0.9999999999527106296655209623015988718392"),
    (6.0, "0.9999999999961827673409905410085589529912"),
]


def test_tracy_widom_cdf_matches_the_mpmath_reference():
    # the default 64 nodes on [t, t + 12] err by at most 3.0e-15 here
    for t, ref in TW_REFERENCE:
        assert abs(Fraction(tracy_widom_cdf(t)) - Fraction(ref)) <= Fraction(5e-15), t


def test_quadrature_convergence():
    spec = KernelSpec(12, 6.0, 3.0)
    for x in (0.5, 0.8):
        g64 = largest_eval_cdf(spec, x, m=64)
        g128 = largest_eval_cdf(spec, x, m=128)
        assert abs(g64 - g128) < 1e-8


def test_gap_values_in_unit_interval():
    spec = KernelSpec(6, 1.0, 1.0)
    for x in np.linspace(-0.95, 0.95, 15):
        v = largest_eval_cdf(spec, float(x))
        assert -1e-8 <= v <= 1.0 + 1e-8


def test_largest_eval_cdf_tails():
    spec = KernelSpec(6, 1.0, 1.0)
    assert largest_eval_cdf(spec, -0.999) < 0.01
    assert largest_eval_cdf(spec, 0.9999) > 0.99


def test_largest_eval_cdf_monotone():
    spec = KernelSpec(6, 1.0, 1.0)
    grid = np.linspace(-0.9, 0.99, 50)
    vals = [largest_eval_cdf(spec, float(x)) for x in grid]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_no_spectrum_beyond_edge_geometric_decay():
    # P(largest point > s + eps) must decay at least geometrically in n.
    # The band edge here is s ~ 0.933, so eps is chosen inside (0, 1-s);
    # an offset of 0.1 as sometimes quoted would overshoot the interval.
    alpha, beta = 0.5, 0.25
    eps = 0.05
    survival = []
    for n in (8, 16, 32):
        spec = KernelSpec(n, alpha * n, beta * n)
        prof = finite_profile(spec)
        survival.append(1.0 - largest_eval_cdf(spec, prof.s + eps))
    assert survival[1] < 0.6 * survival[0]
    assert survival[2] < 0.6 * survival[1]


def test_nystrom_matrix_keeps_the_bits_of_eye_minus_weighted_kernel(monkeypatch):
    # a banded kernel whose entries off the band are exact zeros of both
    # signs: the matrix handed to det, and the determinant, must be those of
    # np.eye(m) - k * np.outer(sw, sw), the sign of every zero included
    def banded(x, y):
        d = x - y
        return np.where(np.abs(d) < 0.2, 0.5 * np.exp(-d * d), np.copysign(0.0, d))

    m = 32
    x, w = gauss_legendre(m, 0.0, 1.0)
    sw = np.sqrt(w)
    expected = np.eye(m) - banded(x[:, None], x[None, :]) * np.outer(sw, sw)
    seen = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: seen.append(a.copy()) or det(a))
    value = gap_probability(GapQuery(banded, (0.0, 1.0), quad_points=m))
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()
    assert value.hex() == float(det(expected)).hex()
    assert 0.0 < value < 1.0


# ---------------------------------------------------------------------------
# limiting edge distribution


def test_tw_tails():
    assert tracy_widom_cdf(6.0) > 0.9999
    assert tracy_widom_cdf(-8.0) < 1e-3


def test_tw_monotone():
    grid = np.linspace(-6.0, 3.0, 25)
    vals = [tracy_widom_cdf(float(t)) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tw_known_anchor_value():
    # P(no point past 0) for the Airy process, known to many digits
    assert tracy_widom_cdf(0.0) == pytest.approx(0.9693728283552222, abs=1e-10)


def test_tw_median_location():
    lo, hi = -3.0, 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if tracy_widom_cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)
    # bisection on the implemented CDF, cross-checked with a doubled-m
    # discretization; the unitary-symmetry edge law has its median here
    # (about -1.805; -1.27 is the orthogonal-symmetry analogue's median)
    assert median == pytest.approx(-1.8046, abs=0.05)
    assert tracy_widom_cdf(median, m=128) == pytest.approx(0.5, abs=1e-6)


def test_tw_tail_truncation_self_check():
    for t in (-4.0, -1.0, 1.0):
        assert abs(tracy_widom_cdf(t, tail=12.0) - tracy_widom_cdf(t, tail=24.0, m=128)) < 1e-8


def _hard_to_soft_error(b):
    """sup over 21 points t in [-3.5, 1.5] of |P(no point of the order-b
    Bessel process in (0, b^2 - 2^(2/3) b^(4/3) t)) - F_TW(t)|.

    The smallest point sits at b^2 - 2^(2/3) b^(4/3) t with t Tracy-Widom
    distributed as b -> infinity (Borodin and Forrester, J. Phys. A 36,
    2003). The gap's interval stops TW_TAIL rescaled units below, as the TW
    interval does above t, and above 1e-12, where the kernel is defined; an
    empty interval (b = 2 and t >= 1) has gap probability 1.
    """
    scale = 2 ** (2 / 3) * b ** (4 / 3)
    errors = []
    for t in np.linspace(-3.5, 1.5, 21):
        x = b * b - scale * t
        lo = max(b * b - scale * (t + jrmt.fredholm.TW_TAIL), 1e-12)
        gap = gap_probability(GapQuery(functools.partial(bessel_kernel, b), (lo, x))) if x > lo else 1.0
        errors.append(abs(gap - tracy_widom_cdf(t)))
    return max(errors)


def test_hard_edge_crosses_over_to_the_soft_edge_as_the_bessel_order_grows():
    # measured: 5.1e-1, 2.7e-1, 1.2e-1, 5.0e-2 and 2.0e-2, at a rate that
    # tends to b^(-2/3); 128 nodes agree with the default 64 to 1e-14
    orders = [2, 8, 32, 128, 512]
    errors = [_hard_to_soft_error(b) for b in orders]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
    assert errors[-1] <= 2.5e-2
    slope = np.polyfit(np.log(orders[2:]), np.log(errors[2:]), 1)[0]
    assert -0.75 <= slope <= -0.55


# ---------------------------------------------------------------------------
# the shared quadrature rule


def test_each_rule_is_built_once(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(m):
        built.append(m)
        return leggauss(m)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    gauss_legendre_unit.cache_clear()
    spec = KernelSpec(12, 6.0, 3.0)
    for _ in range(3):
        tracy_widom_cdf(-1.0)
        tracy_widom_cdf(0.5, m=96)
        largest_eval_cdf(spec, 0.8)
        largest_eval_cdf(spec, 0.9, m=80)
    # the free law's continuous mass is in closed form and builds no rule
    free_product_density(0.3, 0.4).continuous_mass()
    assert sorted(built) == [64, 80, 96]


def test_cached_rule_is_read_only():
    t, w = gauss_legendre_unit(64)
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_mutating_a_mapped_rule_leaves_later_determinants_unchanged():
    before = tracy_widom_cdf(0.0)
    x, w = gauss_legendre(64, 0.0, 12.0)
    x[:] = 0.0
    w[:] = 0.0
    assert tracy_widom_cdf(0.0) == before


# values taken with a rule rebuilt by leggauss on every call: sharing the
# cached rule must not move a bit.  The finite-n values were re-pinned when
# the kernel's diagonal became the exact Gram sum (moves of at most 8.9e-15)
# and when h_k and gamma_n came from one compensated sum (at most 1.2e-14),
# the mass when it became 1 minus the atoms (exact 0.3 is 0x1.3333333333333p-2)
@pytest.mark.parametrize(
    "value, expected",
    [
        (lambda: tracy_widom_cdf(-3.0), "0x1.48fd27d1a91b2p-4"),
        (lambda: tracy_widom_cdf(-1.8), "0x1.011e3e29ca65cp-1"),
        (lambda: tracy_widom_cdf(0.0), "0x1.f051a2a6d570ep-1"),
        (lambda: tracy_widom_cdf(2.5), "0x1.fffd70c00ef44p-1"),
        (lambda: tracy_widom_cdf(-1.0, m=96), "0x1.9d4b2f6481383p-1"),
        (lambda: largest_eval_cdf(KernelSpec(12, 6.0, 3.0), 0.6), "0x1.8293baed78b06p-16"),
        (lambda: largest_eval_cdf(KernelSpec(12, 6.0, 3.0), 0.9), "0x1.b33bba06f6193p-1"),
        (lambda: largest_eval_cdf(KernelSpec(100, 50.0, 50.0), 0.9), "0x1.7a3bd3be99a02p-18"),
        (lambda: largest_eval_cdf(KernelSpec(100, 50.0, 50.0), 0.93), "0x1.05628d83d296ap-1"),
        (lambda: free_product_density(0.3, 0.4).continuous_mass(), "0x1.3333333333334p-2"),
    ],
    ids=["tw-3", "tw-1.8", "tw0", "tw2.5", "tw-1-m96", "n12-0.6", "n12-0.9", "n100-0.9", "n100-0.93", "mass"],
)
def test_values_are_bitwise_pinned(value, expected):
    assert value().hex() == expected


_DETERMINANTS = """
from jrmt.cdkernel import KernelSpec
from jrmt.fredholm import largest_eval_cdf, tracy_widom_cdf

print(tracy_widom_cdf(-1.8).hex())
print(largest_eval_cdf(KernelSpec(12, 6.0, 3.0), 0.9).hex())
print(largest_eval_cdf(KernelSpec(100, 50.0, 50.0), 0.93).hex())
print(largest_eval_cdf(KernelSpec(100, 50.0, 50.0), 0.9, m=256).hex())
print(tracy_widom_cdf(-1.8, m=256).hex())
"""


def test_default_rule_determinants_independent_of_blas_threads():
    # fresh processes, so OPENBLAS_NUM_THREADS sets every library's default
    # count; gap_probability holds numpy's OpenBLAS at one thread, so the
    # determinant keeps its bits at the default 64 nodes and at 256, where an
    # unheld np.linalg.det gives the (100, 50, 50) value other bits at two
    assert len(same_at_one_and_two_threads("-c", _DETERMINANTS).split()) == 5
