"""Seedable sampling of complex Gaussian matrices and Haar isometries.

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
from .matalg import one_blas_thread

__all__ = ["SeededStream", "random_isometry"]


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


def _ginibre(
    gen: np.random.Generator, rows: int, cols: int, variance: float, out: np.ndarray | None = None
) -> np.ndarray:
    # real and imaginary parts independent N(0, variance/2), the real part
    # drawn first; written into ``out`` (rows x cols complex) when given
    z = np.empty((rows, cols), dtype=complex) if out is None else out
    scale = np.sqrt(variance / 2.0)
    np.multiply(gen.standard_normal((rows, cols)), scale, out=z.real)
    np.multiply(gen.standard_normal((rows, cols)), scale, out=z.imag)
    return z


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar isometries from a stack of n x cols Ginibre matrices: QR of each
    with the R-diagonal phase correction.

    Plain QR output is not Haar distributed: the factorization is only unique
    up to phases.  Dividing column j of Q by the phase of R_jj fixes the
    convention R_jj > 0 and makes the law exactly the Haar measure.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_isometry(stream: SeededStream, n: int, cols: int) -> np.ndarray:
    """First ``cols`` columns of a Haar unitary: a uniform n x cols isometry.

    The columns span a uniformly distributed ``cols``-dimensional subspace
    of C^n; the QR runs at one BLAS thread, so the bits depend on ``stream`` alone.
    """
    if n < 1 or cols < 1 or cols > n:
        raise ParameterError(f"need 1 <= cols <= n, got n={n}, cols={cols}")
    with one_blas_thread():
        return _haar(_ginibre(stream.generator(), n, cols, 1.0))
