"""Seedable sampling of complex Gaussian matrices, Haar unitaries, and projectors.

Every operation takes a :class:`SeededStream` value and is a pure function of
it: the same (seed, stream_id) pair always reproduces the same draw, and
distinct stream_ids give statistically independent streams.  Monte Carlo
drivers give each trial its own stream_id, so a trial's draw does not depend
on which other trials run or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "SeededStream",
    "complex_ginibre",
    "haar_unitary",
    "random_isometry",
    "random_projector",
]


@dataclass(frozen=True)
class SeededStream:
    """Addressable source of randomness.

    Parameters
    ----------
    seed : int
        Base seed of the whole experiment.
    stream_id : int
        Sub-stream index, typically the trial number.  Substreams are
        derived by hashing (seed, stream_id) through ``np.random.SeedSequence``
        so reproducibility does not depend on the order in which trials are
        drawn.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator deterministically keyed by (seed, stream_id).

        A negative seed or stream_id raises ParameterError.
        """
        try:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        except ValueError as e:
            raise ParameterError(
                f"seed and stream_id must be >= 0, got {self.seed}, {self.stream_id}"
            ) from e
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, stream_id: int) -> "SeededStream":
        return SeededStream(self.seed, stream_id)


def _ginibre(gen: np.random.Generator, rows: int, cols: int, variance: float) -> np.ndarray:
    # real and imaginary parts independent N(0, variance/2)
    scale = np.sqrt(variance / 2.0)
    re = gen.standard_normal((rows, cols))
    im = gen.standard_normal((rows, cols))
    return scale * (re + 1j * im)


def complex_ginibre(stream: SeededStream, rows: int, cols: int, variance: float = 1.0) -> np.ndarray:
    """Matrix with i.i.d. complex Gaussian entries.

    E[A_ij] = 0 and E[|A_ij|^2] = ``variance``; real and imaginary parts are
    independent with variance/2 each.

    Returns
    -------
    (rows, cols) complex ndarray
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"dimensions must be >= 1, got {rows}x{cols}")
    if not variance > 0:
        raise ParameterError(f"variance must be positive, got {variance}")
    return _ginibre(stream.generator(), rows, cols, variance)


def _haar(gen: np.random.Generator, n: int, cols: int | None = None) -> np.ndarray:
    """QR of a Ginibre matrix with the R-diagonal phase correction.

    Plain QR output is not Haar distributed: the factorization is only unique
    up to phases.  Dividing column j of Q by the phase of R_jj fixes the
    convention R_jj > 0 and makes the law exactly the Haar measure.  When
    ``cols`` is given, only the first ``cols`` columns are produced (a Haar
    random isometry).
    """
    k = n if cols is None else cols
    z = _ginibre(gen, n, k, 1.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(stream: SeededStream, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary matrix."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return _haar(stream.generator(), n)


def random_isometry(stream: SeededStream, n: int, cols: int) -> np.ndarray:
    """First ``cols`` columns of a Haar unitary: a uniform n x cols isometry.

    The columns span a uniformly distributed ``cols``-dimensional subspace
    of C^n.
    """
    if n < 1 or cols < 1 or cols > n:
        raise ParameterError(f"need 1 <= cols <= n, got n={n}, cols={cols}")
    return _haar(stream.generator(), n, cols=cols)


def random_projector(stream: SeededStream, n: int, q: int) -> np.ndarray:
    """Uniformly rotated orthogonal projector of rank q on C^n.

    Built as U D U* with U Haar unitary and D = diag(1_q, 0), so the spectrum
    is exactly {1 (q times), 0 (n-q times)} and trace(pi) = q up to rounding.
    """
    if n < 1 or q < 1 or q > n:
        raise ParameterError(f"need 1 <= q <= n, got n={n}, q={q}")
    u = _haar(stream.generator(), n, cols=q)
    p = u @ u.conj().T
    return 0.5 * (p + p.conj().T)
