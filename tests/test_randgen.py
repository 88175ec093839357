import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrmt.empirics import EmpiricalSample, ks_distance
from jrmt.randgen import SeededStream, _ginibre, generators, random_isometry
from tests.fresh import run_python


def _complex_gaussian(stream, rows, cols):
    # the entries the Wishart route and every Haar draw start from
    out, work = np.empty((rows, cols), complex), np.empty(2 * rows * cols)
    return _ginibre(stream.generator(), rows, cols, 1.0, out, work)


def test_determinism_bit_identical():
    a = _complex_gaussian(SeededStream(1, 5), 3, 4)
    b = _complex_gaussian(SeededStream(1, 5), 3, 4)
    assert np.array_equal(a, b)
    u1 = random_isometry(SeededStream(9, 0), 6, 6)
    u2 = random_isometry(SeededStream(9, 0), 6, 6)
    assert np.array_equal(u1, u2)


def test_distinct_streams_differ():
    a = random_isometry(SeededStream(1, 0), 3, 3)
    b = random_isometry(SeededStream(1, 1), 3, 3)
    assert not np.allclose(a, b)


def test_ginibre_second_moment():
    vals = []
    for t in range(10_000):
        m = _complex_gaussian(SeededStream(42, t), 2, 2)
        vals.append(np.abs(m) ** 2)
    mean = float(np.mean(vals))
    assert mean == pytest.approx(1.0, abs=0.02)


def test_ginibre_zero_mean():
    acc = 0j
    trials = 20_000
    for t in range(trials):
        acc += _complex_gaussian(SeededStream(7, t), 1, 1)[0, 0]
    assert abs(acc / trials) < 0.02


def test_haar_unitarity():
    u = random_isometry(SeededStream(3), 11, 11)
    assert np.abs(u @ u.conj().T - np.eye(11)).max() < 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_haar_column_moment():
    n, trials = 8, 10_000
    acc = 0.0
    for t in range(trials):
        u = random_isometry(SeededStream(11, t), n, n)
        acc += abs(u[0, 0]) ** 2
    assert acc / trials == pytest.approx(1.0 / n, abs=0.01)


def test_haar_permutation_invariance():
    # |(PU)_{11}|^2 must be distributed like |U_{11}|^2 for a fixed
    # row permutation P
    n, trials = 8, 10_000
    direct, permuted = [], []
    for t in range(trials):
        u = random_isometry(SeededStream(13, t), n, n)
        direct.append(abs(u[0, 0]) ** 2)
        permuted.append(abs(u[3, 0]) ** 2)  # P moves row 3 to the top
    d = ks_distance(
        EmpiricalSample.from_values(direct), EmpiricalSample.from_values(permuted)
    )
    assert d < 0.03


def _projector(stream, n, q):
    # the rotated rank-q projector V V* of the projector route
    v = random_isometry(stream, n, q)
    return v @ v.conj().T


def test_projector_structure():
    p = _projector(SeededStream(21), 5, 2)
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-12)
    assert np.abs(p @ p - p).max() < 1e-12
    evs = np.linalg.eigvalsh(p)
    assert np.abs(np.sort(evs) - np.array([0, 0, 0, 1, 1])).max() < 1e-10


def test_projector_full_rank_is_identity():
    p = _projector(SeededStream(2), 5, 5)
    assert np.abs(p - np.eye(5)).max() < 1e-12


def _states(gens):
    return [g.bit_generator.state for g in gens]


# seeds of one to seven 32-bit words, and stream ids about the 2**32 boundary
_SEEDS = st.one_of(
    st.integers(0, 2**64), st.integers(2**128 - 8, 2**200), st.sampled_from([0, 2**32 - 1, 2**32, 2**128])
)
_IDS = st.one_of(st.integers(0, 40), st.sampled_from([2**32 - 1, 2**32, 2**33 + 5]))


@settings(max_examples=80, deadline=None)
@given(seed=_SEEDS, ids=st.lists(_IDS, max_size=24), other=st.none() | _SEEDS)
def test_generators_equal_generator_one_by_one(seed, ids, other):
    # duplicate and unsorted ids; with ``other`` set, every third stream takes that seed
    streams = [SeededStream(seed if other is None or i % 3 else other, t) for i, t in enumerate(ids)]
    assert _states(generators(streams)) == _states(s.generator() for s in streams)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**97 + 3, 2**128 - 1, 2**128, 2**200 + 1])
def test_batch_of_one_seed_equals_generator_one_by_one(seed):
    # 3000 streams of one seed: the batch hash, with its ids at both ends of the uint32 range
    streams = [SeededStream(seed, t) for t in [*range(2999), 2**32 - 1]]
    assert _states(generators(streams)) == _states(s.generator() for s in streams)
    first = next(generators(streams))
    assert first.standard_normal(4).tobytes() == streams[0].generator().standard_normal(4).tobytes()


def test_non_integer_stream_ids_fail_as_in_generator():
    streams = [SeededStream(0, t + 0.5) for t in range(8)]
    with pytest.raises(TypeError, match="seed must be integer"):
        list(generators(streams))


def test_import_loads_no_numpy_random():
    # a fresh process: numpy.random loads at the first draw, not with jrmt
    script = "import sys\nimport jrmt\nprint(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    assert run_python("-c", script).stdout == "[]\n"
