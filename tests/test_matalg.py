import numpy as np
import pytest

from jrmt import matalg
from jrmt.errors import ValidationError
from jrmt.matalg import eig_hermitian, one_blas_thread, principal_cosines
from jrmt.randgen import SeededStream, complex_ginibre


def _random_hermitian(seed, n):
    a = complex_ginibre(SeededStream(seed), n, n, 1.0)
    return 0.5 * (a + a.conj().T)


def test_eig_identity():
    vals, _ = eig_hermitian(np.eye(3))
    assert np.allclose(vals, 1.0)


def test_eig_sorted_descending():
    vals, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])


def test_eig_reconstruction_residual():
    m = _random_hermitian(5, 6)
    vals, vecs = eig_hermitian(m)
    resid = np.abs(m @ vecs - vecs * vals).max()
    assert resid < 1e-9 * np.abs(m).max()
    assert np.abs(vecs @ vecs.conj().T - np.eye(6)).max() < 1e-10


def test_eig_trace_identity():
    m = _random_hermitian(8, 7)
    vals, _ = eig_hermitian(m)
    assert np.trace(m).real == pytest.approx(vals.sum(), abs=1e-9 * 7 * np.abs(m).max())


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_principal_cosines_identical_spans():
    b = np.eye(5)[:, :2]
    assert np.allclose(principal_cosines(b, b), 1.0)


def test_principal_cosines_orthogonal_spans():
    e1 = np.eye(2)[:, :1]
    e2 = np.eye(2)[:, 1:]
    assert principal_cosines(e1, e2)[0] == pytest.approx(0.0, abs=1e-14)


def test_principal_cosines_hand_value():
    e1 = np.eye(2)[:, :1]
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert principal_cosines(e1, diag)[0] == pytest.approx(0.7071067812, rel=1e-9)


def test_principal_cosines_rejects_skew_basis():
    bad = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        principal_cosines(bad, np.eye(3)[:, :2])


def test_cosines_match_compressed_projector_spectrum():
    # squared cosines are the nonzero eigenvalues of the compression
    # pi1 pi2 pi1 restricted to range(pi1)
    from jrmt.randgen import random_isometry

    n, q1, q2 = 7, 3, 4
    b1 = random_isometry(SeededStream(29, 0), n, q1)
    b2 = random_isometry(SeededStream(29, 1), n, q2)
    cos = principal_cosines(b1, b2)
    comp = b1.conj().T @ (b2 @ b2.conj().T) @ b1
    evs, _ = eig_hermitian(comp)
    assert np.abs(np.sort(cos**2) - np.sort(evs[:q1])).max() < 1e-8


# ---------------------------------------------------------------------------
# one_blas_thread


@pytest.fixture
def two_blas_threads():
    """Every found OpenBLAS set to two threads, so a restore is visible;
    the original counts come back after the test."""
    controls = matalg._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, original):
        set_(count)


def test_one_blas_thread_sets_one_thread_and_restores(two_blas_threads):
    before = [get() for get, _ in two_blas_threads]
    with one_blas_thread():
        assert [get() for get, _ in two_blas_threads] == [1] * len(two_blas_threads)
    assert [get() for get, _ in two_blas_threads] == before


def test_one_blas_thread_restores_after_exception(two_blas_threads):
    before = [get() for get, _ in two_blas_threads]
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            assert [get() for get, _ in two_blas_threads] == [1] * len(two_blas_threads)
            1 / 0
    assert [get() for get, _ in two_blas_threads] == before


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch, two_blas_threads):
    before = [get() for get, _ in two_blas_threads]
    monkeypatch.setattr(matalg, "_openblas_controls", lambda: [])
    with one_blas_thread():
        assert [get() for get, _ in two_blas_threads] == before
        x = np.eye(3) @ np.eye(3)
    assert (x == np.eye(3)).all()
    assert [get() for get, _ in two_blas_threads] == before
