import math

import numpy as np
import pytest
import scipy.stats

from jrmt.empirics import EmpiricalSample, ks_against_cdf, ks_distance
from jrmt.ensembles import (
    ProjectorPair,
    projector_product,
    reduce_ranks,
    sample_largest,
    sample_spectrum,
)
from jrmt.errors import ParameterError
from jrmt.matalg import one_blas_thread
from jrmt.randgen import SeededStream


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
