"""Seedable sampling of complex Gaussian matrices and Haar isometries.

Every operation takes a :class:`SeededStream` value and is a pure function of
it: the same (seed, stream_id) pair always reproduces the same draw, and
distinct stream_ids give statistically independent streams.  Monte Carlo
drivers give each trial its own stream_id, so a trial's draw does not depend
on which other trials run or in what order.  ``generators`` hashes a batch
of streams at once and gives the same generators as ``SeededStream.generator()``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .matalg import one_blas_thread

__all__ = ["SeededStream", "generators", "random_isometry"]

# generator() per stream costs less than the batch hash up to 4 streams (12 vs 41 us at 1, 46 vs 52 us at 4)
# and more from about 5 (95 vs 59 us at 8; best of 7 x 200 calls); no workload draws 5 to 7 streams
_BATCH_MIN = 8


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


def _hashes(value: np.ndarray, init: int, mult: int, start: int) -> np.ndarray:
    # SeedSequence's hashmix of row i of ``value`` (uint32) with hash constants start + i and start + i + 1
    c = np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(start, start + len(value) + 1)], np.uint32)
    value = (value ^ c[:-1, None]) * c[1:, None]
    return value ^ value >> 16


def _pcg64_states(seed: int, ids: np.ndarray) -> np.ndarray:
    # SeedSequence(seed, spawn_key=(id,)).generate_state(4, np.uint64) per uint32 id: the pool of the
    # seed's words (at least four, four hashes each), each pool word mixed with the id, 8 words off it
    pool = np.random.SeedSequence(seed).pool[:, None]
    done = 4 * max(4, -(-int(seed).bit_length() // 32))
    mixed = 0xCA01F9DD * pool - 0x4973F715 * _hashes(np.tile(ids, (4, 1)), 0x43B0D7E5, 0x931E8875, done)
    state = _hashes(np.tile(mixed ^ mixed >> 16, (2, 1)), 0x8B51F9DD, 0x58F38DED, 0)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@dataclass
class _GivenState:  # the SeedSequence stand-in that hands PCG64 its precomputed state words
    state: np.ndarray

    def generate_state(self, n_words, dtype=None):
        return self.state


def generators(streams: Sequence[SeededStream]) -> Iterator[np.random.Generator]:
    """``s.generator()`` for each of ``streams`` in turn, built as it is taken.

    Eight or more streams of one non-negative seed, with integer stream_ids
    in [0, 2**32), share one batch hash; any other call takes ``generator()``.
    """
    ids, seeds = np.array([s.stream_id for s in streams]), {s.seed for s in streams}
    batch = len(ids) >= _BATCH_MIN and len(seeds) == 1 and min(seeds) >= 0 and ids.dtype.kind == "i"
    if not (batch and 0 <= ids.min() and ids.max() < 2**32):
        return (s.generator() for s in streams)
    np.random.bit_generator.ISeedSequence.register(_GivenState)  # loads numpy.random here, not at import
    states = _pcg64_states(seeds.pop(), ids.astype(np.uint32))
    return (np.random.Generator(np.random.PCG64(_GivenState(state))) for state in states)


def _ginibre(gen: np.random.Generator, rows: int, cols: int, variance: float, out, work) -> np.ndarray:
    # real and imaginary parts independent N(0, variance/2): the real parts, then the imaginary
    # ones, drawn in one call into the front of the flat float ``work``, then written by one
    # multiply into ``out`` (rows x cols complex, C-contiguous)
    parts = work[: 2 * rows * cols]
    gen.standard_normal(out=parts)
    re_im = out.view(float).reshape(rows, cols, 2).transpose(2, 0, 1)
    np.multiply(parts.reshape(2, rows, cols), np.sqrt(variance / 2.0), out=re_im)
    return out


def _haar(gens: list, n: int, cols: int) -> np.ndarray:
    """Haar isometries, one n x cols per generator: QR of an n x cols Ginibre
    matrix drawn from each, with the R-diagonal phase correction.

    Plain QR output is not Haar distributed: the factorization is only unique
    up to phases.  Dividing column j of Q by the phase of R_jj fixes the
    convention R_jj > 0 and makes the law exactly the Haar measure.
    """
    z = np.empty((len(gens), n, cols), dtype=complex)
    work = np.empty(2 * n * cols)  # one factor's real, then imaginary, parts
    for i, gen in enumerate(gens):
        _ginibre(gen, n, cols, 1.0, out=z[i], work=work)
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
        return _haar([stream.generator()], n, cols)[0]
