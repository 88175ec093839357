import functools
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

import jrmt.cdkernel
from jrmt.cdkernel import (
    NODE_BLOCK,
    KernelSpec,
    finite_profile,
    hard_edge_scale,
    kernel,
    local_scaling,
    one_point_density,
    rescaled,
    soft_edge,
)
from jrmt.errors import DomainError, ParameterError, RegimeError
from jrmt.fredholm import gauss_legendre
from jrmt.limits import (
    DIAG_TOL,
    airy_kernel,
    bessel_kernel,
    limit_density,
    sine_kernel,
)


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


def test_legendre_kernel_near_the_diagonal_closed_form():
    # a = b = 0, n = 3: K(x, y) = 1/2 + 3/2 xy + 5/2 P_2(x) P_2(y) with
    # P_2(t) = (3t^2 - 1)/2, which is 1.0439998199995875 to double precision
    # at these points, 5e-7 apart
    assert kernel(KernelSpec(3, 0.0, 0.0), 0.2, 0.2000005) == pytest.approx(1.0439998199995875, rel=1e-15)


def test_kernel_continuity_at_diagonal_switch():
    spec = KernelSpec(10, 3.0, 1.5)
    x = 0.2
    gap = DIAG_TOL * max(1.0, abs(x))
    cd_form = kernel(spec, x, x + 1.0000001 * gap)
    gram_sum = kernel(spec, x, x + 0.9999999 * gap)
    assert cd_form == pytest.approx(gram_sum, rel=1e-8)


@pytest.mark.parametrize("n", [100, 400])
def test_array_calls_equal_scalar_calls_bitwise(n):
    # the Nystrom matrix is one array call on the node grid; a table of
    # scalar calls on the same nodes must hold the same bits, in either order
    spec = KernelSpec(n, 0.5 * n, 0.25 * n)
    xs = np.append(gauss_legendre(12, -0.9, 0.95)[0], [0.3, 0.3 + 0.5 * DIAG_TOL])
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    grid = kernel(spec, xx, yy)
    assert np.array_equal(grid, kernel(spec, yy, xx))
    assert np.array_equal(grid, [[kernel(spec, float(x), float(y)) for y in xs] for x in xs])
    assert np.array_equal(one_point_density(spec, xs), [one_point_density(spec, float(x)) for x in xs])
    hard = KernelSpec(n, 0.5 * n, 2.0)
    us = np.linspace(0.25, 3.0, 6)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    for fn in (
        lambda u, v: rescaled(spec, "bulk", u, v),
        lambda u, v: rescaled(spec, "soft", u, v),
        lambda u, v: rescaled(hard, "hard", u, v),
        airy_kernel,
        lambda u, v: bessel_kernel(2, u, v),
    ):
        assert np.array_equal(fn(uu, vv), [[fn(float(u), float(v)) for v in us] for u in us])


def _assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "fn, lo, hi",
    [
        (airy_kernel, -6.0, 6.0),
        (functools.partial(bessel_kernel, 0), 0.25, 16.0),
        (functools.partial(bessel_kernel, 2), 0.25, 16.0),
        (functools.partial(kernel, KernelSpec(100, 50.0, 25.0)), -0.9, 0.95),
    ],
    ids=["airy", "bessel0", "bessel2", "cd"],
)
def test_integrable_kernel_array_calls_equal_scalar_calls_bitwise(fn, lo, hi):
    # a sorted grid of distinct nodes (the Nystrom case), the same nodes
    # unsorted and repeated, and the grid with a distinct pair closer than
    # DIAG_TOL, each as column x row, row x column and one vector
    grid = gauss_legendre(10, lo, hi)[0]
    mixed = grid[[3, 0, 3, 7, 1, 7]]
    close = np.sort(np.append(grid, grid[4] + 0.5 * DIAG_TOL))
    for xs in (grid, mixed, close):
        scalar = np.array([[fn(float(u), float(v)) for v in xs] for u in xs])
        _assert_same_bits(fn(xs[:, None], xs[None, :]), scalar)
        _assert_same_bits(fn(xs[None, :], xs[:, None]), scalar.T)
        _assert_same_bits(fn(xs, xs), np.diag(scalar))
        # a 0-d abscissa against a vector, and two 0-d abscissae
        _assert_same_bits(fn(np.asarray(xs[2]), xs), scalar[2])
        _assert_same_bits(fn(np.asarray(xs[2]), np.asarray(xs[5])), scalar[2, 5])


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


# mpmath reference values (tests/make_special_refs.py, 60 digits) for the
# off-diagonal formula, the exact diagonal and pairs just inside DIAG_TOL,
# in the bulk, at the upper band edge and near x = -1; two cases add pairs
# 1e-8 apart at the same points, and two add pairs 1.1e-6, 3e-6 and 1e-5
# apart, just outside DIAG_TOL, at one point each
CD_KERNEL_REFERENCE = [
    ("off", 10, 3.0, 1.5, -0.011, -0.0009999999999999992, "3.877932412031996288889214"),
    ("diag", 10, 3.0, 1.5, -0.011, -0.011, "3.868886274628183644156525"),
    ("near", 10, 3.0, 1.5, -0.011, -0.0109991, "3.86888793897381166029216"),
    ("off", 10, 3.0, 1.5, 0.97, 0.96, "3.060625760444099358682251"),
    ("diag", 10, 3.0, 1.5, 0.97, 0.97, "2.323856491328791696646986"),
    ("near", 10, 3.0, 1.5, 0.97, 0.9700008999999999, "2.32378402588595027295625"),
    ("off", 10, 3.0, 1.5, -0.999, -0.997, "0.6996964768595680485096855"),
    ("diag", 10, 3.0, 1.5, -0.999, -0.999, "0.3200232378979998253310726"),
    ("near", 10, 3.0, 1.5, -0.999, -0.9989991, "0.3202332500919172966638614"),
    ("near", 10, 3.0, 1.5, -0.011, -0.01099999, "3.868886293121750549828994"),
    ("near", 10, 3.0, 1.5, 0.97, 0.97000001, "2.323855686162543510937538"),
    ("near", 10, 3.0, 1.5, -0.999, -0.99899999, "0.3200255716776002969653014"),
    ("off", 100, 50.0, 50.0, 0.0, 0.01, "31.41584072651060637438739"),
    ("diag", 100, 50.0, 50.0, 0.0, 0.0, "44.84732472274168899115187"),
    ("near", 100, 50.0, 50.0, 0.0, 9e-07, "44.84732460257417943961092"),
    ("off", 100, 50.0, 50.0, 0.943, 0.9329999999999999, "20.79337986708006194069995"),
    ("diag", 100, 50.0, 50.0, 0.943, 0.943, "9.264930755396139819594022"),
    ("near", 100, 50.0, 50.0, 0.943, 0.9430008999999999, "9.263761619030875985842476"),
    ("off", 100, 50.0, 50.0, -0.999, -0.997, "4.453824778085786808943481e-64"),
    ("diag", 100, 50.0, 50.0, -0.999, -0.999, "7.930448126688286067539353e-76"),
    ("near", 100, 50.0, 50.0, -0.999, -0.9989991, "8.109329472099902119862369e-76"),
    ("off", 400, 200.0, 100.0, -0.025, -0.015000000000000001, "-26.98934579194853120337091"),
    ("diag", 400, 200.0, 100.0, -0.025, -0.025, "167.9778902739246351469758"),
    ("near", 400, 200.0, 100.0, -0.025, -0.0249991, "167.9779250509307462352395"),
    ("off", 400, 200.0, 100.0, 0.933, 0.923, "-7.106000591891749257631729"),
    ("diag", 400, 200.0, 100.0, 0.933, 0.933, "26.01760823298737038366642"),
    ("near", 400, 200.0, 100.0, 0.933, 0.9330009, "26.01083103754820117581621"),
    ("off", 400, 200.0, 100.0, -0.999, -0.997, "8.608569868947944537440726e-76"),
    ("diag", 400, 200.0, 100.0, -0.999, -0.999, "2.241424867115806234312676e-98"),
    ("near", 400, 200.0, 100.0, -0.999, -0.9989991, "2.341505179909895544998988e-98"),
    ("outside", 400, 200.0, 100.0, -0.025, -0.0249989, "167.9779310639169910518484"),
    ("outside", 400, 200.0, 100.0, -0.025, -0.024997000000000002, "167.9779570791041003101269"),
    ("outside", 400, 200.0, 100.0, -0.025, -0.024990000000000002, "167.9775672002254936407388"),
    ("off", 400, 200.0, 2.0, -0.04, -0.03, "-31.60928326014360617689564"),
    ("diag", 400, 200.0, 2.0, -0.04, -0.04, "153.2128118119825130036429"),
    ("near", 400, 200.0, 2.0, -0.04, -0.0399991, "153.2127725648195647383316"),
    ("off", 400, 200.0, 2.0, 0.92, 0.91, "16.50778641519946953132441"),
    ("diag", 400, 200.0, 2.0, 0.92, 0.92, "21.2377695184542583358208"),
    ("near", 400, 200.0, 2.0, 0.92, 0.9200009, "21.23309267503679571730846"),
    ("off", 400, 200.0, 2.0, -0.999, -0.997, "-13.99560188268182521060355"),
    ("diag", 400, 200.0, 2.0, -0.999, -0.999, "3401.571077217930902384615"),
    ("near", 400, 200.0, 2.0, -0.999, -0.9989991, "3400.857852871565346916727"),
    ("near", 400, 200.0, 2.0, -0.04, -0.03999999, "153.2128114285554216733077"),
    ("near", 400, 200.0, 2.0, 0.92, 0.9200000100000001, "21.23771755117706374841659"),
    ("near", 400, 200.0, 2.0, -0.999, -0.99899999, "3401.563723415439698734715"),
    ("outside", 400, 200.0, 2.0, 0.92, 0.9200011, "21.23205343460196247873296"),
    ("outside", 400, 200.0, 2.0, 0.92, 0.920003, "21.22218170477729876299034"),
    ("outside", 400, 200.0, 2.0, 0.92, 0.92001, "21.18582866130108870182331"),
]

# per-class relative bounds.  The worst errors on this table are 2.3e-13
# (off), 2.0e-13 (diag) and 1.9e-13 (near); the off and diag bounds also
# admit an evaluation of the same formulas through exp/log scale factors,
# which reaches 3.6e-12.  Just outside DIAG_TOL the difference quotient
# cancels: 6.0e-11 at (400, 200, 2), x = 0.92, y - x = 1.1e-6, falling to
# 3.8e-13 at 1e-5 (outside)
CD_REL_BOUND = {"off": 4e-12, "diag": 4e-12, "near": 1e-12, "outside": 1e-10}


@pytest.mark.parametrize("cls,n,a,b,x,y,ref", CD_KERNEL_REFERENCE)
def test_kernel_reference_values(cls, n, a, b, x, y, ref):
    got = kernel(KernelSpec(n, a, b), x, y)
    assert got == pytest.approx(float(ref), rel=CD_REL_BOUND[cls])


# bits of four off-diagonal rows of the table above: the quotient's value
# must not move when its node values are produced another way
CD_OFF_PINS = [
    (10, 3.0, 1.5, -0.011, -0.0009999999999999992, "0x1.f06016dae34a1p+1"),
    (100, 50.0, 50.0, 0.943, 0.9329999999999999, "0x1.4cb1af16668b4p+4"),
    (400, 200.0, 100.0, -0.999, -0.997, "0x1.8eb8c2646228fp-250"),
    (400, 200.0, 2.0, -0.04, -0.03, "-0x1.f9bf9fcdc4de0p+4"),
]


@pytest.mark.parametrize("n,a,b,x,y,expected", CD_OFF_PINS)
def test_off_diagonal_values_are_bitwise_pinned(n, a, b, x, y, expected):
    assert kernel(KernelSpec(n, a, b), x, y).hex() == expected
    assert kernel(KernelSpec(n, a, b), y, x).hex() == expected


def _with_close_pairs(xs, scale=1.0):
    # nodes plus pairs 0.9 DIAG_TOL apart (the near rule off the exact
    # diagonal); scale sets the spacing of the extra points
    extra = scale * np.array([0.3, -0.5])
    return np.sort(np.concatenate([xs, extra, extra + 0.9 * DIAG_TOL, [extra[0] - 0.9 * DIAG_TOL]]))


def _assert_broadcast_equals_meshgrid(fn, xs, ys):
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    assert ((np.abs(xx - yy) < DIAG_TOL) & (xx != yy)).any()
    grid = fn(xx, yy)
    assert np.array_equal(fn(xs[:, None], ys[None, :]), grid)
    assert np.array_equal(fn(ys[:, None], xs[None, :]), grid.T)
    assert np.array_equal(fn(xs[:, None], xs[None, :]), fn(*np.meshgrid(xs, xs, indexing="ij")))


@pytest.mark.parametrize("n,a,b", sorted({(n, a, b) for _, n, a, b, *_ in CD_KERNEL_REFERENCE}))
def test_broadcast_vectors_equal_meshgrid_bitwise(n, a, b):
    # a Nystrom matrix is one call on a column and a row of nodes; the values
    # must be the bits of the meshgrid call, near pairs included
    spec = KernelSpec(n, a, b)
    xs = _with_close_pairs(np.append(gauss_legendre(16, -0.999, 0.97)[0], [-0.999, 0.943]))
    ys = _with_close_pairs(gauss_legendre(5, -0.9, 0.9)[0])
    _assert_broadcast_equals_meshgrid(lambda x, y: kernel(spec, x, y), xs, ys)


@pytest.mark.parametrize(
    "fn, lo, hi",
    [
        (airy_kernel, -8.0, 10.0),
        (lambda u, v: bessel_kernel(0, u, v), 0.25, 16.0),
        (lambda u, v: bessel_kernel(2, u, v), 0.25, 16.0),
    ],
    ids=["airy", "bessel0", "bessel2"],
)
def test_limit_kernels_broadcast_vectors_equal_meshgrid_bitwise(fn, lo, hi):
    xs = _with_close_pairs(gauss_legendre(16, lo, hi)[0], scale=10.0)
    xs = xs[xs > 0] if lo > 0 else xs
    ys = _with_close_pairs(gauss_legendre(5, lo, hi)[0], scale=10.0)
    ys = ys[ys > 0] if lo > 0 else ys
    _assert_broadcast_equals_meshgrid(fn, xs, ys)


# sha256 of the values at distinct pairs 0.5 and 0.9 DIAG_TOL apart, one end
# at each of 16 Gauss nodes: the near rules must keep their bits however
# they obtain their node values
CLOSE_PAIR_PINS = [
    pytest.param(
        airy_kernel, -8.0, 10.0, "4caf8ef025ed22e5a646ec8d36100e12f4a7b9c68f11423105de334c4d0a58e0", id="airy"
    ),
    pytest.param(
        functools.partial(bessel_kernel, 0), 0.25, 16.0,
        "a51b144a6a3b3e779b2825afa1b1cf0f34ac32a95fd4bbbcfac114cd213a174b", id="bessel0",
    ),
    pytest.param(
        functools.partial(bessel_kernel, 2), 0.25, 16.0,
        "7d1414eded0236a2b261587099dc9355fcbe01872878f5aa8c233c26bab2fcf4", id="bessel2",
    ),
] + [
    pytest.param(
        functools.partial(kernel, KernelSpec(n, a, b)), -0.999, 0.97, digest, id=f"cd-{n}-{a:g}-{b:g}"
    )
    for n, a, b, digest in [
        (10, 3.0, 1.5, "7f0b7812b254d0920910df5853a62256902833667425aae8d9978601d19db203"),
        (100, 50.0, 50.0, "dff5eabfc11ac8da8aaca372961013c2986973d34678c2f89f2f32d2c921ab98"),
        (400, 200.0, 100.0, "c7e979e227603c9d3fb9c8b4e6257869b2880ea1819fb07827132a201672af0f"),
        (400, 200.0, 2.0, "35b4c442175fbf936777fdb7e3cdb29e035d1a453583ee099261d03a545aa133"),
    ]
]


@pytest.mark.parametrize("fn,lo,hi,digest", CLOSE_PAIR_PINS)
def test_close_pair_values_are_bitwise_pinned(fn, lo, hi, digest):
    xs = gauss_legendre(16, lo, hi)[0]
    ys = np.concatenate([xs + 0.5 * DIAG_TOL, xs + 0.9 * DIAG_TOL])
    assert hashlib.sha256(fn(np.tile(xs, 2), ys).tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "fn, lo, hi",
    [(airy_kernel, -8.0, 10.0), (functools.partial(bessel_kernel, 0), 0.25, 16.0),
     (functools.partial(bessel_kernel, 2), 0.25, 16.0)],
    ids=["airy", "bessel0", "bessel2"],
)
def test_limit_kernels_at_close_pairs_are_the_diagonal_at_the_midpoint(fn, lo, hi):
    us = np.linspace(lo, hi, 9)
    for gap in (0.5 * DIAG_TOL, 0.9 * DIAG_TOL):
        mid = 0.5 * (us + (us + gap))
        assert np.array_equal(fn(us, us + gap), fn(mid, mid))
        assert np.array_equal(fn(us + gap, us), fn(mid, mid))


def test_kernel_runs_one_gram_sum_per_recurrence(monkeypatch):
    calls, sums = [], []
    rows, halving_sum = jrmt.cdkernel.jacobi_rows, jrmt.cdkernel._halving_sum
    monkeypatch.setattr(
        jrmt.cdkernel, "jacobi_rows", lambda n, a, b, x: calls.append(np.shape(x)) or rows(n, a, b, x)
    )
    monkeypatch.setattr(jrmt.cdkernel, "_halving_sum", lambda t: sums.append(t.shape) or halving_sum(t))
    spec = KernelSpec(100, 50.0, 25.0)
    xs, ys = gauss_legendre(64, -0.9, 0.0)[0], gauss_legendre(64, 0.1, 0.9)[0]
    kernel(spec, xs[:, None], ys[None, :])
    # one recurrence on the 128 distinct abscissae gives f, g and the
    # diagonal, a Gram sum over k < n, at each of them
    assert (calls, sums) == ([(128,)], [(100, 128)])
    calls.clear()
    sums.clear()
    kernel(spec, xs, xs + 0.5 * DIAG_TOL)
    # 64 distinct close pairs: the node values of both ends, then the rows
    # at both ends again, in one recurrence, for one Gram sum per pair
    assert (calls, sums) == ([(128,), (128,)], [(100, 128), (100, 64)])


# ---------------------------------------------------------------------------
# node blocks


def test_values_over_several_blocks_equal_values_per_block():
    # a grid spanning several node blocks, with near pairs off the diagonal,
    # must hold the bits of the same values computed one block at a time
    spec = KernelSpec(100, 50.0, 25.0)
    xs = np.linspace(-0.9, 0.9, 3 * NODE_BLOCK + 17)
    ys = xs + 0.5 * DIAG_TOL
    xx = np.concatenate([xs, xs])
    yy = np.concatenate([xs, ys])
    assert np.unique(np.concatenate([xx, yy])).size > 3 * NODE_BLOCK
    whole = kernel(spec, xx, yy)
    chunks = [slice(k, k + NODE_BLOCK // 2) for k in range(0, xx.size, NODE_BLOCK // 2)]
    assert np.array_equal(whole, np.concatenate([kernel(spec, xx[c], yy[c]) for c in chunks]))
    assert np.array_equal(one_point_density(spec, xs), whole[: xs.size] / spec.n)


def test_density_on_a_large_grid_takes_bounded_memory():
    # P_0..P_400 as mantissas and exponents take 6.4 kB per node; with the
    # step multipliers and the Gram sum's terms one unblocked call on 10^4
    # nodes peaked at 290 MB, and node blocks of NODE_BLOCK keep it near 5 MB
    xs = np.linspace(-0.9, 0.9, 10_000)
    spec = KernelSpec(400, 200.0, 100.0)
    tracemalloc.start()
    try:
        one_point_density(spec, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


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
    val = rescaled(spec, "bulk", 0.0, 0.0)
    assert 0.97 < val < 1.03


def test_bulk_swap_symmetry():
    spec = KernelSpec(100, 50.0, 25.0)
    assert rescaled(spec, "bulk", 0.7, -0.3) == pytest.approx(
        rescaled(spec, "bulk", -0.3, 0.7), abs=1e-12
    )


def test_bulk_sine_target():
    spec = KernelSpec(400, 200.0, 100.0)
    assert rescaled(spec, "bulk", 0.5, 0.0) == pytest.approx(2.0 / math.pi, abs=0.05)


def test_bulk_rejects_point_outside_band():
    spec = KernelSpec(100, 50.0, 25.0)
    with pytest.raises(DomainError):
        rescaled(spec, "bulk", 0.0, 0.0, x=0.99)


# ---------------------------------------------------------------------------
# soft edge


def test_soft_edge_location_near_profile_edge():
    spec = KernelSpec(200, 100.0, 50.0)
    s, h = soft_edge(spec)
    prof = finite_profile(spec)
    assert s == pytest.approx(prof.s, abs=5e-3)
    assert h > 0


# mpmath reference values (tests/make_special_refs.py, 80 digits) of s_n,
# the upper root of chi's numerator, and h_n = (-chi'(s_n))^{1/3}, with chi'
# differentiated term by term
SOFT_EDGE_REFERENCE = [
    (12, 6.0, 3.0, "0.9389578257945668135215797", "34.10571059768248628786802"),
    (100, 50.0, 25.0, "0.9338273094665243338042376", "130.6326485611780384408684"),
    (400, 200.0, 100.0, "0.9334379917732785005640036", "327.3107856078133806679059"),
    (400, 200.0, 2.0, "0.9204795106604692669048258", "274.6148958610082563027138"),
    (1000, 5.0, 900.0, "0.99999371302592379482843", "289029.7101335484274687489"),
    (20, 1.2, 30.0, "0.9997959537759852431925818", "2348.26636068874933076784"),
    (12, 10000000.0, 3.0, "-0.9999888286915286438834074", "823296.1419574908883574005"),
    (400, 1000000000.0, 1000000000.0, "0.0008949857645796702618475065", "121417.8082303503052818788"),
    (1000, 1.5, 3500000.0, "0.9999999998217024989748334", "3806022982.090440457950843"),
    (400, 1000000000000.0, 3.0, "-0.9999999967840099541580183", "26885698657.41416453073597"),
]


@pytest.mark.parametrize("n,a,b,s_ref,h_ref", SOFT_EDGE_REFERENCE)
def test_soft_edge_matches_the_mpmath_reference(n, a, b, s_ref, h_ref):
    # s_n to a few ulps; h_n to 2e-15 / (1 - |s_n|), the rounding of s_n
    # carried into 1 -+ s_n; compared exactly, the reference unrounded
    s, h = soft_edge(KernelSpec(n, a, b))
    s_ref, h_ref = Fraction(s_ref), Fraction(h_ref)
    assert abs(Fraction(s) - s_ref) <= Fraction(4e-16) * abs(s_ref)
    assert abs(Fraction(h) - h_ref) <= Fraction(2e-15) / (1 - abs(s_ref)) * h_ref


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
    assert rescaled(spec, "soft", 0.4, -1.1) == pytest.approx(
        rescaled(spec, "soft", -1.1, 0.4), abs=1e-12
    )


def test_soft_diagonal_target():
    spec = KernelSpec(400, 200.0, 100.0)
    val = rescaled(spec, "soft", 0.0, 0.0)
    assert val == pytest.approx(scipy.special.airy(0.0)[1] ** 2, abs=0.02)


def test_soft_rejects_tiny_parameters():
    # with a < 1 the turning point leaves (-1, 1): no square-root edge
    with pytest.raises(RegimeError):
        soft_edge(KernelSpec(50, 0.2, 0.1))


@pytest.mark.parametrize("n,a,b", [(266, 0.0, 188.0), (100, 1.0, 20.0)])
def test_soft_rejects_a_hard_upper_edge_with_the_lower_turning_point_inside(n, a, b):
    # with a <= 1 the upper zero of chi lies at or past 1 while the lower
    # one stays inside (-1, 1); the lower one is no soft edge
    with pytest.raises(RegimeError):
        soft_edge(KernelSpec(n, a, b))


# ---------------------------------------------------------------------------
# hard edge


def test_hard_swap_symmetry():
    spec = KernelSpec(100, 50.0, 2.0)
    assert rescaled(spec, "hard", 5.0, 1.5) == pytest.approx(
        rescaled(spec, "hard", 1.5, 5.0), abs=1e-12
    )


def test_hard_bessel_target():
    spec = KernelSpec(200, 100.0, 0.0)
    val = rescaled(spec, "hard", 4.0, 1.0)
    assert val == pytest.approx(bessel_kernel(0, 4.0, 1.0), abs=0.05)


def test_hard_monotone_approach():
    u, v = 2.0, 3.0
    errs = []
    for n in (100, 200, 400):
        spec = KernelSpec(n, 0.5 * n, 2.0)
        errs.append(abs(rescaled(spec, "hard", u, v) - bessel_kernel(2, u, v)))
    assert errs[0] > errs[1] > errs[2]


def test_hard_scale_value():
    spec = KernelSpec(100, 50.0, 2.0)
    assert hard_edge_scale(spec) == pytest.approx(2 * 100 * 100 * 1.5)


def test_hard_rejects_fractional_order():
    spec = KernelSpec(50, 25.0, 1.5)
    with pytest.raises(ParameterError):
        rescaled(spec, "hard", 1.0, 2.0)


def test_hard_rejects_nonpositive_offsets():
    spec = KernelSpec(50, 25.0, 1.0)
    with pytest.raises(DomainError):
        rescaled(spec, "hard", 0.0, 1.0)


# ---------------------------------------------------------------------------
# limit-target sanity on one grid point each


def test_rescaled_kernels_near_limits_at_moderate_size():
    n = 200
    bulk = KernelSpec(n, 0.5 * n, 0.25 * n)
    assert abs(rescaled(bulk, "bulk", 1.0, -1.0) - sine_kernel(1.0, -1.0)) < 0.02
    assert abs(rescaled(bulk, "soft", -1.0, 0.5) - airy_kernel(-1.0, 0.5)) < 0.05
    hard = KernelSpec(n, 0.5 * n, 2.0)
    assert abs(rescaled(hard, "hard", 8.0, 2.0) - bessel_kernel(2, 8.0, 2.0)) < 0.01


# ---------------------------------------------------------------------------
# one local-scaling path


def test_local_scaling_is_the_regime_data():
    spec = KernelSpec(200, 100.0, 50.0)
    prof = finite_profile(spec)
    x0, h, limit = local_scaling(spec, "bulk")
    assert x0 == 0.5 * (prof.r + prof.s)
    assert h == 200 * limit_density(prof, x0)
    assert limit is sine_kernel
    assert local_scaling(spec, "bulk", x=0.1)[0] == 0.1
    assert local_scaling(spec, "soft") == (*soft_edge(spec), airy_kernel)
    c, h, limit = local_scaling(KernelSpec(200, 100.0, 2.0), "hard")
    assert (c, h) == (-1.0, hard_edge_scale(KernelSpec(200, 100.0, 2.0)))
    assert limit(4.0, 1.0) == bessel_kernel(2, 4.0, 1.0)


def test_rescaled_is_the_kernel_at_the_local_scaling():
    spec = KernelSpec(100, 50.0, 2.0)
    u, v = np.linspace(0.5, 3.0, 4)[:, None], np.linspace(0.25, 2.0, 3)[None, :]
    for regime in ("bulk", "soft", "hard"):
        c, h, _ = local_scaling(spec, regime)
        assert np.array_equal(rescaled(spec, regime, u, v), kernel(spec, c + u / h, c + v / h) / h)


@pytest.mark.parametrize("regime", ["wat", "onepoint", "Bulk"])
def test_unknown_regime_rejected(regime):
    spec = KernelSpec(50, 25.0, 2.0)
    with pytest.raises(ParameterError):
        local_scaling(spec, regime)
    with pytest.raises(ParameterError):
        rescaled(spec, regime, 1.0, 2.0)


@pytest.mark.parametrize("regime", ["soft", "hard"])
def test_edge_regimes_reject_a_centre(regime):
    # an edge fixes its own centre; an x there must not be dropped silently
    spec = KernelSpec(50, 25.0, 2.0)
    with pytest.raises(ParameterError):
        local_scaling(spec, regime, x=0.3)
    with pytest.raises(ParameterError):
        rescaled(spec, regime, 1.0, 2.0, x=0.3)
