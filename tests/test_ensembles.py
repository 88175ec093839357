import hashlib
import math
import platform
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from jrmt import ensembles
from jrmt.cdkernel import KernelSpec
from jrmt.empirics import EmpiricalSample, ks_against_cdf, ks_distance
from jrmt.ensembles import (
    ProjectorPair,
    projector_product,
    reduce_ranks,
    sample_largest,
    sample_spectra,
    sample_spectrum,
)
from jrmt.errors import NumericError, ParameterError
from jrmt.matalg import one_blas_thread
from jrmt.randgen import SeededStream
from tests.fresh import run_python, same_at_one_and_two_threads


def test_jacobi_wishart_shape_and_range():
    evs = sample_spectrum(SeededStream(4), 48, 12, 18, route="wishart")
    assert evs.shape == (12,)
    assert evs.min() > -1e-10 and evs.max() < 1 + 1e-10


def test_jacobi_wishart_no_unit_eigenvalue_in_strict_regime():
    top = max(sample_spectrum(SeededStream(5, t), 30, 6, 10, route="wishart").max() for t in range(50))
    assert top < 1 - 1e-8


def test_jacobi_wishart_rejects_non_canonical():
    with pytest.raises(ParameterError):
        sample_spectrum(SeededStream(0), 10, 6, 5, route="wishart")  # q > q_tilde
    with pytest.raises(ParameterError):
        sample_spectrum(SeededStream(0), 10, 4, 8, route="wishart")  # q + q_tilde > n


def test_projector_product_intersection_forces_ones():
    # two subspaces of dimensions 4 and 8 in C^10 overlap in dimension >= 2
    m = projector_product(SeededStream(6), ProjectorPair(10, 4, 8))
    evs = np.sort(np.linalg.eigvalsh(m))
    assert (np.abs(evs[-2:] - 1.0) < 1e-8).all()


def test_projector_product_mean_trace():
    total = 0.0
    trials = 10_000
    for t in range(trials):
        total += np.trace(projector_product(SeededStream(8, t), ProjectorPair(10, 3, 5))).real
    assert total / trials == pytest.approx(1.5, abs=0.05)


def test_projector_product_full_rotated_rank_is_identity():
    m = projector_product(SeededStream(9), ProjectorPair(6, 3, 6))
    assert np.abs(m - np.eye(3)).max() < 1e-12


def test_two_route_distributional_equality_small():
    trials = 800
    proj = np.concatenate(
        [sample_spectrum(SeededStream(100, t), 10, 3, 6, "projector") for t in range(trials)]
    )
    wish = np.concatenate(
        [sample_spectrum(SeededStream(200, t), 10, 3, 6, "wishart") for t in range(trials)]
    )
    d = ks_distance(EmpiricalSample.from_values(proj), EmpiricalSample.from_values(wish))
    assert d < 0.03


def test_wishart_route_mean_trace_matches_projector_formula():
    # E trace = q * q_tilde / n, the fingerprint that the middle factor
    # carries q_tilde columns
    trials = 4000
    acc = 0.0
    for t in range(trials):
        acc += sample_spectrum(SeededStream(300, t), 10, 3, 6, "wishart").sum()
    assert acc / trials == pytest.approx(1.8, abs=0.05)


def test_sample_largest_matches_full_spectrum():
    for t in range(5):
        full = sample_spectrum(SeededStream(77, t), 20, 5, 8, "tridiagonal")
        top = sample_largest(SeededStream(77, t), 20, 5, 8)
        assert top == pytest.approx(full[-1], rel=1e-10)


# ---------------------------------------------------------------------------
# stacked draws


def _stack_size(n, q):
    return max(1, ensembles._STACK_ENTRIES // (n * q))


@pytest.mark.parametrize("route", ["projector", "wishart", "tridiagonal"])
@pytest.mark.parametrize("n,q,qt,trials,stacks", [(10, 3, 6, 7, 1), (200, 50, 60, 31, 11)])
def test_sample_spectra_rows_equal_single_stream_draws_bitwise(route, n, q, qt, trials, stacks):
    assert -(-trials // _stack_size(n, q)) == stacks
    streams = [SeededStream(61, t) for t in range(trials)]
    with one_blas_thread():
        rows = sample_spectra(streams, n, q, qt, route)
        singles = [sample_spectrum(s, n, q, qt, route) for s in streams]
    assert rows.shape == (trials, q)
    for row, single in zip(rows, singles):
        assert row.tobytes() == single.tobytes()


def test_sample_spectra_rejects_bad_input():
    with pytest.raises(ParameterError):
        sample_spectra([SeededStream(0)], 10, 4, 8, "wishart")  # q + q_tilde > n
    with pytest.raises(ParameterError):
        sample_spectra([SeededStream(0)], 10, 3, 6, "haar")
    assert sample_spectra([], 10, 3, 6, "projector").shape == (0, 3)


def _ks_bound(m, n):
    # two-sample KS critical value at p = 1e-6
    return math.sqrt(math.log(2 / 1e-6) / 2) * math.sqrt((m + n) / (m * n))


def _assert_same_law(a, b, trials):
    # pooled spectra with the bound of the pooled counts, top eigenvalues
    # with the bound of the draw counts
    pooled = ks_distance(EmpiricalSample.from_values(a.ravel()), EmpiricalSample.from_values(b.ravel()))
    assert pooled < _ks_bound(a.size, b.size)
    top = ks_distance(EmpiricalSample.from_values(a[:, -1]), EmpiricalSample.from_values(b[:, -1]))
    assert top < _ks_bound(trials, trials)


@pytest.mark.parametrize("n,q,qt", [(48, 12, 18), (60, 12, 30)])
def test_projector_route_matches_tridiagonal_route_in_law(n, q, qt):
    trials = 3000
    with one_blas_thread():
        proj = sample_spectra([SeededStream(71, t) for t in range(trials)], n, q, qt, "projector")
    tri = sample_spectra([SeededStream(72, t) for t in range(trials)], n, q, qt, "tridiagonal")
    assert proj.mean() == pytest.approx(qt / n, abs=0.01)
    _assert_same_law(proj, tri, trials)


def test_projector_block_off_the_canonical_regime_matches_the_reduced_tridiagonal_route():
    # (10, 4, 8) reflects onto the canonical pair (2, 4): the raw block of the
    # rotated rank-4 projector against 8 coordinates, and the mapped canonical
    # draws, agree on their random eigenvalues (the two forced 1s dropped)
    n, q, qt, trials = 10, 4, 8, 3000
    plan = reduce_ranks(n, q, qt)
    assert plan.eigen_map == "reflect"
    random_part = slice(plan.zeros, plan.zeros + plan.kept_count)
    with one_blas_thread():
        direct = np.array(
            [
                np.linalg.eigvalsh(projector_product(SeededStream(73, t), ProjectorPair(n, q, qt)))
                for t in range(trials)
            ]
        )[:, random_part]
    cq, cqt = plan.canonical.q, plan.canonical.q_tilde
    tri = plan.apply(sample_spectra([SeededStream(74, t) for t in range(trials)], n, cq, cqt, "tridiagonal"))
    _assert_same_law(direct, tri[:, random_part], trials)


def test_wishart_block_stacks_stay_within_memory_bound():
    # the block (800, 200, 200) draws n q complex Gaussians per trial, more
    # than one stack holds: 10 trials must run one at a time, so the traced
    # peak stays within three trials' Gaussian factors (a stack of two
    # measured 11 MB, all ten at once 55 MB)
    n, q, qt = 800, 200, 200
    assert _stack_size(n, q) == 1
    bound = 3 * n * q * 16
    streams = [SeededStream(75, t) for t in range(10)]
    with one_blas_thread():
        sample_spectra(streams[:1], n, q, qt, "wishart")  # warm up LAPACK and imports
        tracemalloc.start()
        try:
            sample_spectra(streams, n, q, qt, "wishart")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound


# minor page faults of a second call: the (800, 200, 200) Wishart block,
# one trial a stack, then 400 projector draws at (48, 12, 18)
_FAULTS = """
import resource
from jrmt import SeededStream, sample_spectra

def draws():
    sample_spectra([SeededStream(76, t) for t in range(10)], 800, 200, 200, "wishart")
    sample_spectra([SeededStream(77, t) for t in range(400)], 48, 12, 18, "projector")

draws()  # warm up LAPACK, imports and the heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
draws()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="fault counts measured under glibc's malloc")
def test_dense_stacks_reuse_their_pages():
    # a stack's arrays stay below glibc's trim threshold and the Wishart
    # route reuses one workspace, so the second call maps about 1.7k fresh
    # pages, its workspace; with 2**17-entry stacks and fresh arrays per
    # stack the block alone took about 15k and the projector draws 2.8k
    faults = int(run_python("-c", _FAULTS).stdout)
    assert faults < 3000


# dense draws with no thread hold around them: one line per draw, the
# sha256 of its bytes
_DENSE_DRAWS = """
import hashlib
from jrmt import (
    ProjectorPair, SeededStream, eig_hermitian, principal_cosines, projector_product, random_isometry,
    sample_spectra,
)

streams = [SeededStream(4, t) for t in range(3)]
draws = {
    f"{route} {n} {q} {qt}": sample_spectra(streams, n, q, qt, route)
    for n, q, qt, route in [(300, 100, 150, "projector"), (300, 100, 150, "wishart"), (800, 200, 200, "wishart")]
}
draws["projector_product"] = projector_product(SeededStream(4), ProjectorPair(300, 100, 150))
draws["random_isometry"] = random_isometry(SeededStream(4), 200, 60)
bases = [random_isometry(SeededStream(s), 400, k) for s, k in ((1, 100), (2, 150))]
draws["principal_cosines"] = principal_cosines(*bases)
values, vectors = eig_hermitian(projector_product(SeededStream(3), ProjectorPair(600, 200, 300)))
draws["eig_hermitian values"], draws["eig_hermitian vectors"] = values, vectors
for name, value in draws.items():
    print(name, hashlib.sha256(value.tobytes()).hexdigest())
"""


def test_dense_draws_independent_of_blas_threads():
    # fresh processes, so OPENBLAS_NUM_THREADS sets every library's default
    # count; the draws take the same bits at one thread and at two
    same_at_one_and_two_threads("-c", _DENSE_DRAWS)


# ---------------------------------------------------------------------------
# tridiagonal (beta-Jacobi) route


def _pooled(seed, n, q, qt, route, trials):
    return EmpiricalSample.from_values(
        np.concatenate([sample_spectrum(SeededStream(seed, t), n, q, qt, route) for t in range(trials)])
    )


@pytest.mark.parametrize("n,q,qt", [(48, 12, 18), (40, 10, 10), (60, 12, 30)])
def test_tridiagonal_route_matches_dense_routes(n, q, qt):
    # the criterion-01 harness: same triples, draw count and bound
    tri = _pooled(303, n, q, qt, "tridiagonal", 2000)
    for seed, route in ((101, "projector"), (202, "wishart")):
        assert ks_distance(tri, _pooled(seed, n, q, qt, route, 2000)) < 0.02


def test_tridiagonal_scalar_case_is_beta():
    # q = 1: the single eigenvalue is Beta(q_tilde, n - q_tilde)
    n, qt, trials = 30, 7, 4000
    sample = _pooled(310, n, 1, qt, "tridiagonal", trials)
    stat = ks_against_cdf(sample, scipy.stats.beta(qt, n - qt).cdf)
    assert stat < 1.95 / math.sqrt(trials)


def test_tridiagonal_route_mean_trace_matches_projector_formula():
    trials = 4000
    acc = sum(sample_spectrum(SeededStream(311, t), 10, 3, 6, "tridiagonal").sum() for t in range(trials))
    assert acc / trials == pytest.approx(1.8, abs=0.05)


def test_tridiagonal_shape_range_and_rejects_non_canonical():
    evs = sample_spectrum(SeededStream(312), 1200, 400, 600, "tridiagonal")
    assert evs.shape == (400,) and (np.diff(evs) >= 0).all()
    assert evs.min() > -1e-12 and evs.max() < 1 + 1e-12
    with pytest.raises(ParameterError):
        sample_spectrum(SeededStream(0), 10, 6, 5, "tridiagonal")
    with pytest.raises(ParameterError):
        sample_largest(SeededStream(0), 10, 4, 8)


def test_sample_largest_matches_wishart_top_in_law():
    n, q, qt, trials = 120, 40, 60, 2000
    tops = [sample_largest(SeededStream(320, t), n, q, qt) for t in range(trials)]
    with one_blas_thread():
        wish = [sample_spectrum(SeededStream(321, t), n, q, qt, "wishart")[-1] for t in range(trials)]
    d = ks_distance(EmpiricalSample.from_values(tops), EmpiricalSample.from_values(wish))
    assert d < 1.95 * math.sqrt(2 / trials)


def test_tridiagonal_lapack_failure_is_a_numeric_error(monkeypatch):
    lapack = SimpleNamespace(
        dstebz=lambda *args: (0, np.empty(1), None, None, 3),
        dstevd=lambda d, e, compute_v: (d, None, -2),
    )
    monkeypatch.setattr(ensembles, "load", lambda public: lapack)
    with pytest.raises(NumericError, match="stebz failed with info=3"):
        sample_largest(SeededStream(0), 40, 10, 12)
    with pytest.raises(NumericError, match="stevd failed with info=-2"):
        sample_spectrum(SeededStream(0), 40, 10, 12, "tridiagonal")


def test_wishart_lapack_failure_is_a_numeric_error(monkeypatch):
    lapack = SimpleNamespace(zhegvd=lambda x, y, jobz: (np.zeros(x.shape[0]), None, 5))
    monkeypatch.setattr(ensembles, "load", lambda public: lapack)
    with pytest.raises(NumericError, match="hegvd failed with info=5"):
        sample_spectrum(SeededStream(0), 40, 10, 12, "wishart")


def _hex_digest(values) -> str:
    return hashlib.sha256(",".join(float(v).hex() for v in np.ravel(values)).encode()).hexdigest()


# sha256 of the .hex() of 20 top eigenvalues from streams (7, 0..19): the
# tridiagonal draws must keep their bits however LAPACK is called
@pytest.mark.parametrize(
    "n,q,qt,digest",
    [
        (1200, 400, 600, "0faa9a268103bd7d66116d3e1327ab85c30b2b7a0d6fc9636cf263df3d989bd7"),
        (200, 50, 60, "f77ddefd0b50dec58524e209523bf8cae30150ef3217fafc59557249ff15b6f4"),
    ],
)
def test_sample_largest_is_bitwise_pinned(n, q, qt, digest):
    assert _hex_digest([sample_largest(SeededStream(7, t), n, q, qt) for t in range(20)]) == digest


def test_small_tridiagonal_draws_are_bitwise_pinned():
    # q = 1 is the 1 x 1 matrix's single entry; at q = 2 the bisected top
    # eigenvalue and the full spectrum's top differ in the last bit
    assert sample_largest(SeededStream(3, 0), 10, 1, 4).hex() == "0x1.fe73ef4291418p-2"
    assert [v.hex() for v in sample_spectrum(SeededStream(3, 0), 10, 1, 4, "tridiagonal")] == [
        "0x1.fe73ef4291418p-2"
    ]
    assert sample_largest(SeededStream(3, 0), 10, 2, 4).hex() == "0x1.575ef6c44063fp-1"
    assert [v.hex() for v in sample_spectrum(SeededStream(3, 0), 10, 2, 4, "tridiagonal")] == [
        "0x1.56cb744ccc070p-2",
        "0x1.575ef6c44063ep-1",
    ]
    rows = sample_spectra([SeededStream(5, t) for t in range(6)], 60, 12, 30, "tridiagonal")
    assert _hex_digest(rows) == "7d4d605540ffcbe7bb2efcd907d269251868a51ce602b394006b88eb5e24c042"


# ---------------------------------------------------------------------------
# rank normalization


def test_reduce_ranks_already_canonical():
    plan = reduce_ranks(10, 3, 5)
    assert (plan.canonical.q, plan.canonical.q_tilde) == (3, 5)
    assert plan.eigen_map == "identity"
    assert (plan.kept_count, plan.ones, plan.zeros) == (3, 0, 0)


def test_reduce_ranks_swap():
    plan = reduce_ranks(10, 5, 3)
    assert (plan.canonical.q, plan.canonical.q_tilde) == (3, 5)
    assert plan.eigen_map == "identity"
    assert (plan.kept_count, plan.ones, plan.zeros) == (3, 0, 2)


def test_reduce_ranks_reflection():
    plan = reduce_ranks(10, 4, 8)
    assert (plan.canonical.q, plan.canonical.q_tilde) == (2, 4)
    assert plan.eigen_map == "reflect"
    assert (plan.kept_count, plan.ones, plan.zeros) == (2, 2, 0)


def test_reduce_ranks_double_reflection():
    plan = reduce_ranks(10, 8, 4)
    assert (plan.canonical.q, plan.canonical.q_tilde) == (2, 6)
    assert plan.eigen_map == "reflect-then-identity"
    assert (plan.kept_count, plan.ones, plan.zeros) == (2, 2, 4)


def test_reduce_ranks_degenerate_full_rank():
    plan = reduce_ranks(6, 3, 6)
    assert plan.canonical is None
    assert (plan.kept_count, plan.ones, plan.zeros) == (0, 3, 0)
    block = plan.apply(np.empty(0))
    assert np.allclose(block, 1.0) and block.shape == (3,)


@pytest.mark.parametrize("n,q,qt", [(10, 5, 3), (10, 4, 8), (10, 8, 4), (9, 7, 5)])
def test_reduce_ranks_round_trip(n, q, qt):
    # mapped canonical draws must match the non-trivial part of the direct
    # block spectrum in law; the deterministic 0/1 eigenvalues are dropped
    # on both sides (in the direct draw they appear as rounding fuzz)
    trials = 2500
    plan = reduce_ranks(n, q, qt)
    direct = []
    for t in range(trials):
        evs = np.sort(
            np.linalg.eigvalsh(projector_product(SeededStream(400, t), ProjectorPair(n, q, qt)))
        )
        direct.append(evs[plan.zeros : plan.zeros + plan.kept_count])
    mapped = []
    for t in range(trials):
        vals = sample_spectrum(
            SeededStream(500, t), n, plan.canonical.q, plan.canonical.q_tilde, "wishart"
        )
        block = plan.apply(vals)
        mapped.append(block[plan.zeros : plan.zeros + plan.kept_count])
    d = ks_distance(
        EmpiricalSample.from_values(np.concatenate(direct)),
        EmpiricalSample.from_values(np.concatenate(mapped)),
    )
    assert d < 0.03


def test_reduce_ranks_rejects_bad_input():
    with pytest.raises(ParameterError):
        reduce_ranks(5, 0, 3)
    with pytest.raises(ParameterError):
        reduce_ranks(5, 2, 6)


# ---------------------------------------------------------------------------
# the map between projector ranks and Jacobi parameters


def test_kernel_spec_and_from_kernel_spec_are_inverse_below_dimension_30():
    pairs = [
        ProjectorPair(n, q, qt) for n in range(2, 30) for q in range(1, n) for qt in range(q, n - q + 1)
    ]
    specs = [
        KernelSpec(n, float(a), float(b))
        for n in range(1, 15)
        for a in range(30)
        for b in range(30)
        if a + 2 * n + b < 30
    ]
    assert len(pairs) == len(specs) > 0
    for pair in pairs:
        assert ProjectorPair.from_kernel_spec(pair.kernel_spec()) == pair
    for spec in specs:
        pair = ProjectorPair.from_kernel_spec(spec)
        assert all(type(v) is int for v in (pair.n, pair.q, pair.q_tilde))
        assert pair.kernel_spec() == spec


def test_kernel_spec_is_the_papers_map():
    assert ProjectorPair(33, 12, 15).kernel_spec() == KernelSpec(12, 6.0, 3.0)
    # the benchmark's edge_law workload keeps this pair beside its spec
    assert ProjectorPair.from_kernel_spec(KernelSpec(400, 200, 200)) == ProjectorPair(1200, 400, 600)


def test_kernel_spec_rejects_every_non_canonical_pair_below_dimension_12():
    for n in range(1, 12):
        for q in range(1, n + 1):
            for qt in range(1, n + 1):
                if q <= qt and q + qt <= n:
                    continue
                with pytest.raises(ParameterError, match="q <= q_tilde and q \\+ q_tilde <= n"):
                    ProjectorPair(n, q, qt).kernel_spec()


@pytest.mark.parametrize("a,b", [(0.5, 1.0), (1.0, 2.5), (1e-300, 0.0), (3.0, 1.0 + 2**-50)])
def test_from_kernel_spec_rejects_non_integer_exponents(a, b):
    with pytest.raises(ParameterError, match="integer a and b"):
        ProjectorPair.from_kernel_spec(KernelSpec(5, a, b))
