import math

import numpy as np
import pytest

from jrmt.cdkernel import (
    KernelSpec,
    finite_profile,
    hard_edge_scale,
    kernel,
    one_point_density,
    rescaled_bulk,
    rescaled_hard,
    rescaled_soft,
    soft_edge,
)
from jrmt.errors import DomainError, ParameterError
from jrmt.fredholm import gauss_legendre
from jrmt.limits import DIAG_TOL, airy_kernel, airy_prime, bessel_kernel, sine_kernel


def test_rank_one_kernel_is_constant_half():
    spec = KernelSpec(1, 0.0, 0.0)
    for x, y in [(0.3, -0.5), (0.9, 0.91), (0.0, 0.0)]:
        assert kernel(spec, x, y) == pytest.approx(0.5, rel=1e-12)


def test_kernel_symmetry():
    spec = KernelSpec(8, 2.0, 1.0)
    assert kernel(spec, 0.1, -0.4) == pytest.approx(kernel(spec, -0.4, 0.1), abs=1e-12)


def test_kernel_diagonal_positive():
    spec = KernelSpec(8, 2.0, 1.0)
    for x in (-0.9, -0.3, 0.0, 0.3, 0.9):
        assert kernel(spec, x, x) > 0.0


def test_kernel_continuity_at_diagonal_switch():
    spec = KernelSpec(10, 3.0, 1.5)
    x = 0.2
    gap = DIAG_TOL * max(1.0, abs(x))
    cd_form = kernel(spec, x, x + 1.0000001 * gap)
    confluent = kernel(spec, x, x + 0.9999999 * gap)
    assert cd_form == pytest.approx(confluent, rel=1e-8)


def test_kernel_domain_error():
    spec = KernelSpec(5, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernel(spec, 1.0, 0.5)


def test_kernel_parity_in_parameters():
    a, b = 2.0, 1.0
    sa = KernelSpec(6, a, b)
    sb = KernelSpec(6, b, a)
    for x, y in [(0.3, -0.2), (0.5, 0.1)]:
        assert kernel(sa, x, y) == pytest.approx(kernel(sb, -x, -y), rel=1e-10)


def test_kernel_reproducing_property():
    # rank-n projection: integrating K(x,.)K(.,z) reproduces K(x,z)
    spec = KernelSpec(8, 2.0, 1.0)
    t, w = gauss_legendre(256, -1.0, 1.0)
    for x, z in [(0.2, -0.3), (0.0, 0.5)]:
        kx = np.array([kernel(spec, x, float(ti)) for ti in t])
        kz = np.array([kernel(spec, float(ti), z) for ti in t])
        integral = float((kx * kz) @ w)
        assert integral == pytest.approx(kernel(spec, x, z), rel=1e-6)


def test_kernel_trace_equals_rank():
    spec = KernelSpec(20, 10.0, 5.0)
    t, w = gauss_legendre(200, -1.0, 1.0)
    diag = np.array([kernel(spec, float(ti), float(ti)) for ti in t])
    assert float(diag @ w) == pytest.approx(20.0, abs=2e-5)


# ---------------------------------------------------------------------------
# one-point density


def test_one_point_integrates_to_one():
    spec = KernelSpec(20, 10.0, 5.0)
    t, w = gauss_legendre(200, -1.0, 1.0)
    vals = np.array([one_point_density(spec, float(ti)) for ti in t])
    assert float(vals @ w) == pytest.approx(1.0, abs=1e-6)


def test_one_point_parameter_parity():
    spec = KernelSpec(10, 3.0, 3.0)
    assert one_point_density(spec, 0.25) == pytest.approx(one_point_density(spec, -0.25), rel=1e-10)


def test_one_point_cross_checks_kernel_diagonal():
    spec = KernelSpec(12, 4.0, 2.0)
    assert one_point_density(spec, 0.1) == pytest.approx(
        kernel(spec, 0.1, 0.1) / 12, rel=1e-10
    )


def test_one_point_rank_one_fallback():
    spec = KernelSpec(1, 0.0, 0.0)
    assert one_point_density(spec, 0.3) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# bulk rescaling


def test_bulk_diagonal_near_one():
    spec = KernelSpec(200, 100.0, 50.0)
    prof = finite_profile(spec)
    x0 = 0.5 * (prof.r + prof.s)
    val = rescaled_bulk(spec, x0, 0.0, 0.0)
    assert 0.97 < val < 1.03


def test_bulk_swap_symmetry():
    spec = KernelSpec(100, 50.0, 25.0)
    prof = finite_profile(spec)
    x0 = 0.5 * (prof.r + prof.s)
    assert rescaled_bulk(spec, x0, 0.7, -0.3) == pytest.approx(
        rescaled_bulk(spec, x0, -0.3, 0.7), abs=1e-12
    )


def test_bulk_sine_target():
    spec = KernelSpec(400, 200.0, 100.0)
    prof = finite_profile(spec)
    x0 = 0.5 * (prof.r + prof.s)
    assert rescaled_bulk(spec, x0, 0.5, 0.0) == pytest.approx(2.0 / math.pi, abs=0.05)


def test_bulk_rejects_point_outside_band():
    spec = KernelSpec(100, 50.0, 25.0)
    with pytest.raises(DomainError):
        rescaled_bulk(spec, 0.99, 0.0, 0.0)


# ---------------------------------------------------------------------------
# soft edge


def test_soft_edge_location_near_profile_edge():
    spec = KernelSpec(200, 100.0, 50.0)
    s, h = soft_edge(spec)
    prof = finite_profile(spec)
    assert s == pytest.approx(prof.s, abs=5e-3)
    assert h > 0


def test_soft_edge_scale_against_closed_form():
    # the closed-form estimate n^{2/3} (sqrt((1+al)(1+be)(1+al+be)) /
    # (2(1-s^2)^2))^{1/3} matches h_n only after a factor 4^{1/3}: the
    # display it comes from drops that factor (exact-vs-printed constant);
    # the ratio against the corrected form must sit within 10%
    spec = KernelSpec(200, 100.0, 50.0)
    s, h = soft_edge(spec)
    al, be = 0.5, 0.25
    printed = 200 ** (2.0 / 3.0) * (
        math.sqrt((1 + al) * (1 + be) * (1 + al + be)) / (2 * (1 - s * s) ** 2)
    ) ** (1.0 / 3.0)
    ratio = h / (4 ** (1.0 / 3.0) * printed)
    assert 0.9 < ratio < 1.1


def test_soft_swap_symmetry():
    spec = KernelSpec(100, 50.0, 25.0)
    assert rescaled_soft(spec, 0.4, -1.1) == pytest.approx(
        rescaled_soft(spec, -1.1, 0.4), abs=1e-12
    )


def test_soft_diagonal_target():
    spec = KernelSpec(400, 200.0, 100.0)
    val = rescaled_soft(spec, 0.0, 0.0)
    assert val == pytest.approx(airy_prime(0.0) ** 2, abs=0.02)


def test_soft_rejects_tiny_parameters():
    # with a < 1 the turning point leaves (-1, 1): no square-root edge
    from jrmt.errors import RegimeError

    with pytest.raises(RegimeError):
        soft_edge(KernelSpec(50, 0.2, 0.1))


# ---------------------------------------------------------------------------
# hard edge


def test_hard_swap_symmetry():
    spec = KernelSpec(100, 50.0, 2.0)
    assert rescaled_hard(spec, 5.0, 1.5) == pytest.approx(
        rescaled_hard(spec, 1.5, 5.0), abs=1e-12
    )


def test_hard_bessel_target():
    spec = KernelSpec(200, 100.0, 0.0)
    val = rescaled_hard(spec, 4.0, 1.0)
    assert val == pytest.approx(bessel_kernel(0, 4.0, 1.0), abs=0.05)


def test_hard_monotone_approach():
    u, v = 2.0, 3.0
    errs = []
    for n in (100, 200, 400):
        spec = KernelSpec(n, 0.5 * n, 2.0)
        errs.append(abs(rescaled_hard(spec, u, v) - bessel_kernel(2, u, v)))
    assert errs[0] > errs[1] > errs[2]


def test_hard_scale_value():
    spec = KernelSpec(100, 50.0, 2.0)
    assert hard_edge_scale(spec) == pytest.approx(2 * 100 * 100 * 1.5)


def test_hard_rejects_fractional_order():
    spec = KernelSpec(50, 25.0, 1.5)
    with pytest.raises(ParameterError):
        rescaled_hard(spec, 1.0, 2.0)


def test_hard_rejects_nonpositive_offsets():
    spec = KernelSpec(50, 25.0, 1.0)
    with pytest.raises(DomainError):
        rescaled_hard(spec, 0.0, 1.0)


# ---------------------------------------------------------------------------
# limit-target sanity on one grid point each


def test_rescaled_kernels_near_limits_at_moderate_size():
    n = 200
    bulk = KernelSpec(n, 0.5 * n, 0.25 * n)
    prof = finite_profile(bulk)
    x0 = 0.5 * (prof.r + prof.s)
    assert abs(rescaled_bulk(bulk, x0, 1.0, -1.0) - sine_kernel(1.0, -1.0)) < 0.02
    assert abs(rescaled_soft(bulk, -1.0, 0.5) - airy_kernel(-1.0, 0.5)) < 0.05
    hard = KernelSpec(n, 0.5 * n, 2.0)
    assert abs(rescaled_hard(hard, 8.0, 2.0) - bessel_kernel(2, 8.0, 2.0)) < 0.01
