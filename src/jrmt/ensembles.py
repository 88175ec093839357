"""Three constructions of the Jacobi unitary ensemble, plus rank normalization.

Route one compresses a fixed rank-q_tilde coordinate projector onto a
uniformly rotated rank-q subspace, which by unitary invariance has the law of
a rotated rank-q_tilde projector compressed onto a fixed rank-q one; route two
is the Wishart ratio (X + X')^{-1/2} X (X + X')^{-1/2}; route three is the
Edelman-Sutton beta-Jacobi matrix model at beta = 2 ("The beta-Jacobi matrix
model, the CS decomposition, and generalized singular value problems", FoCM
2008), whose spectrum is that of a q x q symmetric tridiagonal matrix built
from 2q - 1 independent Beta variables.  All three produce q eigenvalues in
[0, 1] and, for q <= q_tilde and q + q_tilde <= n, the same law: the Jacobi
ensemble that ``ProjectorPair.kernel_spec`` names.

Orientation of the Wishart pair: the middle factor X carries q_tilde columns
and X' carries n - q_tilde.  The scalar case pins this down: for q = 1 the
compressed projector entry is a Beta(q_tilde, n - q_tilde) variable, which is
X/(X+X') with X of shape parameter q_tilde, and which is also the
tridiagonal model's single entry c_1^2 ~ Beta(b + 1, a + 1).  The
distributional tests verify all three routes against each other.

The tridiagonal route builds its matrix from the Beta variables and hands
it straight to LAPACK, with the arguments ``scipy.linalg.eigvalsh_tridiagonal``
would pass: ``dstevd`` for the whole spectrum, and ``dstebz`` bisecting for
eigenvalue q of q in ``sample_largest``.  A draw costs its random variables
and that one call, which skips the wrapper's argument checks and lookups
(about 60 us a draw); a 1 x 1 matrix is its own eigenvalue, as in scipy.
The Wishart and tridiagonal routes read their routines from
``load("scipy.linalg.lapack")``, so no draw loads the scipy.linalg package
and importing jrmt loads no LAPACK.

``sample_spectra`` draws one spectrum per ``SeededStream``: each trial takes
all of its randomness from its own stream, and the linear algebra runs once
per stack of trials on (trials, ., .) arrays at one BLAS thread.  The stacked
LAPACK calls run the same routine on every slice, so a trial's bits depend on
its ``(seed, stream_id)`` alone: not on the stack, the thread count or the caller.
Stacks are small enough for the heap to reuse their pages, and the Wishart
route allocates its arrays once per call and refills them for every stack,
so a call's memory is mapped once, not once per stack (see ``_STACK_ENTRIES``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._scipy import load
from .cdkernel import KernelSpec
from .errors import NumericError, ParameterError
from .matalg import one_blas_thread
from .randgen import SeededStream, _ginibre, _haar

__all__ = [
    "ProjectorPair",
    "ReductionPlan",
    "projector_product",
    "reduce_ranks",
    "sample_spectra",
    "sample_spectrum",
    "sample_largest",
]


@dataclass(frozen=True)
class ProjectorPair:
    """Ambient dimension n and the ranks q and q_tilde of the two projectors.

    The compressed block is q x q.  Which projector is rotated does not
    change its law; ``projector_product`` rotates the rank-q one.
    """

    n: int
    q: int
    q_tilde: int

    def __post_init__(self):
        if not (1 <= self.q <= self.n and 1 <= self.q_tilde <= self.n):
            raise ParameterError(f"ranks must lie in 1..n, got n={self.n} and ranks {self.q}, {self.q_tilde}")

    def kernel_spec(self) -> KernelSpec:
        """The Jacobi ensemble of the block's eigenvalues lambda, read as x = 2 lambda - 1.

        Size q, weight (1-x)^a (1+x)^b, a = n - q - q_tilde and b = q_tilde - q;
        a ``ParameterError`` unless q <= q_tilde and q + q_tilde <= n.
        """
        a, b = self.n - self.q - self.q_tilde, self.q_tilde - self.q
        if a < 0 or b < 0:
            raise ParameterError(f"need q <= q_tilde and q + q_tilde <= n, got {self}")
        return KernelSpec(self.q, a, b)

    @classmethod
    def from_kernel_spec(cls, spec: KernelSpec) -> ProjectorPair:
        """The pair (a + 2n + b, n, n + b) whose ``kernel_spec`` is ``spec``, for integer a and b."""
        a, b = int(spec.a), int(spec.b)
        if (a, b) != (spec.a, spec.b):
            raise ParameterError(f"need integer a and b, got a={spec.a}, b={spec.b}")
        return cls(a + 2 * spec.n + b, spec.n, spec.n + b)


# complex Gaussian entries drawn for one stack of trials; a dense-route trial
# draws n * q of them, so a stack holds max(1, _STACK_ENTRIES // (n * q))
# trials.  At 2**15 (512 KB) the arrays a stack frees stay below glibc's trim
# threshold, so the heap keeps their pages for the next stack instead of
# returning them and faulting them in afresh.  With the Wishart workspace, a
# `spectra_mc` benchmark pass (perfbench/) took 1.7k minor faults and 4 ms of
# system time at 2**13 to 2**16, and 11.8k faults and 18-30 ms at 2**17;
# before the workspace, at 2**17, it took 25.5k and 40 ms (2-vCPU x86-64 VM,
# glibc 2.36)
_STACK_ENTRIES = 2**15


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise NumericError(f"{routine} failed with info={info}")


def _ct(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _ct_into(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # _ct(a) with its conjugate held in the front of the flat ``scratch``
    c = scratch[: a.size].reshape(a.shape)
    np.conjugate(a, out=c)
    return c.swapaxes(-1, -2)


def _hermitian_into(m: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # 0.5 (m + m^H) written over m and returned, its conjugate held in ``scratch``
    np.add(m, _ct_into(m, scratch), out=m)
    return np.multiply(0.5, m, out=m)


def _projector_blocks(gens: list, n: int, q: int, q_tilde: int) -> np.ndarray:
    # V = first q columns of a Haar unitary per generator; the block is
    # V[:q_tilde]^H V[:q_tilde], the compression of the coordinate projector
    # of rank q_tilde onto the rotated rank-q subspace
    z = np.empty((len(gens), n, q), dtype=complex)
    for i, gen in enumerate(gens):
        _ginibre(gen, n, q, 1.0, out=z[i])
    v = _haar(z)[:, :q_tilde, :]
    return _hermitian_into(_ct(v) @ v, np.empty(len(gens) * q * q, dtype=complex))


def _projector_route(n: int, q: int, q_tilde: int, spec: KernelSpec, size: int):
    return lambda gens: np.linalg.eigvalsh(_projector_blocks(gens, n, q, q_tilde))


def _wishart_route(n: int, q: int, q_tilde: int, spec: KernelSpec, size: int):
    # one workspace per call, refilled by every stack of at most ``size``
    # trials: the two Ginibre factors, the Hermitian parts x and x' (x' then
    # x + x'), and one scratch for every conjugate.  x' and x + x' share a
    # buffer: at (800, 200, 200) the traced peak is 7.07 MB, and another
    # q x q buffer (0.64 MB) would pass the memory-bound test's 7.68 MB
    w1 = np.empty((size, q, q_tilde), dtype=complex)
    w2 = np.empty((size, q, n - q_tilde), dtype=complex)
    x = np.empty((size, q, q), dtype=complex)
    y = np.empty((size, q, q), dtype=complex)
    scratch = np.empty(size * q * max(q_tilde, n - q_tilde), dtype=complex)
    hegvd = load("scipy.linalg.lapack").zhegvd

    def draw(gens: list) -> np.ndarray:
        k = len(gens)
        a, b, xk, yk = w1[:k], w2[:k], x[:k], y[:k]
        # per generator, the middle factor first: q_tilde columns, then the
        # complementary n - q_tilde
        for i, gen in enumerate(gens):
            _ginibre(gen, q, q_tilde, 1.0 / q, out=a[i])
            _ginibre(gen, q, n - q_tilde, 1.0 / q, out=b[i])
        np.matmul(a, _ct_into(a, scratch), out=xk)
        _hermitian_into(xk, scratch)
        np.matmul(b, _ct_into(b, scratch), out=yk)
        _hermitian_into(yk, scratch)
        np.add(xk, yk, out=yk)
        # scipy.linalg.eigh(x[i], y[i], eigvals_only=True) calls hegvd with these
        # arguments; calling it per slice keeps those bits and skips eigh's checks
        # and its batch wrapper, about 40 us a call
        out = np.empty((k, q))
        for i in range(k):
            out[i], _, info = hegvd(xk[i], yk[i], jobz="N")
            _check_info(info, "hegvd")
        return out

    return draw


def projector_product(stream: SeededStream, pair: ProjectorPair) -> np.ndarray:
    """Projector-route sample: the q x q block whose eigenvalues are those of
    the compression of a fixed rank-q_tilde projector onto a uniformly
    rotated rank-q subspace.

    With V the first q columns of a Haar unitary and the fixed projector
    diag(1_{q_tilde}, 0), the block is V[:q_tilde]^H V[:q_tilde].  By unitary
    invariance it has the law of the compression of a rotated rank-q_tilde
    projector onto a fixed rank-q one, at the cost of a QR of n x q rather
    than n x q_tilde.  The projector route of ``sample_spectra`` takes the
    eigenvalues of exactly this matrix, and like it the block's bits depend
    on ``stream`` alone: the QR and products run at one BLAS thread.
    """
    with one_blas_thread():
        return _projector_blocks([stream.generator()], pair.n, pair.q, pair.q_tilde)[0]


@dataclass(frozen=True)
class ReductionPlan:
    """Canonical parameters and eigenvalue map for arbitrary (n, q, q_tilde).

    ``canonical`` satisfies q <= q_tilde and q + q_tilde <= n (the density
    regime) and its fixed rank equals ``kept_count``; it is None in the
    fully degenerate case kept_count == 0 (every block eigenvalue is then a
    deterministic 0 or 1).  ``eigen_map`` says how canonical eigenvalues map
    back to the original compressed block ('identity', 'reflect' for
    x -> 1-x, or 'reflect-then-identity' when two reflections compose to
    the identity).  The remaining block eigenvalues are ``ones`` exact 1s
    (subspace overlap forced by dimension count) and ``zeros`` exact 0s.
    """

    canonical: ProjectorPair | None
    eigen_map: str
    ones: int
    zeros: int

    @property
    def kept_count(self) -> int:
        """min(q, q_tilde, n - q, n - q_tilde): the canonical rank q, or 0."""
        return 0 if self.canonical is None else self.canonical.q

    def apply(self, canonical_values: np.ndarray) -> np.ndarray:
        """Map canonical-ensemble eigenvalues to the original block spectrum."""
        vals = np.asarray(canonical_values, dtype=float)
        if vals.shape[-1] != self.kept_count:
            raise ParameterError(
                f"expected {self.kept_count} canonical eigenvalues, got {vals.shape[-1]}"
            )
        if self.eigen_map == "reflect":
            vals = 1.0 - vals
        pad_ones = np.ones(vals.shape[:-1] + (self.ones,))
        pad_zeros = np.zeros(vals.shape[:-1] + (self.zeros,))
        return np.sort(np.concatenate([vals, pad_ones, pad_zeros], axis=-1), axis=-1)


def reduce_ranks(n: int, q: int, q_tilde: int) -> ReductionPlan:
    """Normalize an arbitrary rank pair to the density regime.

    Case analysis: a rank swap conjugates the product and keeps eigenvalues;
    replacing the rotated projector by its complement (rank n - q_tilde)
    reflects the block spectrum about 1/2.  When both ranks are oversized
    the two reflections cancel, leaving the identity map onto the canonical
    pair (n-q, n-q_tilde).
    """
    ProjectorPair(n, q, q_tilde)  # validates the ranks
    if q + q_tilde <= n:
        canon = (q, q_tilde) if q <= q_tilde else (q_tilde, q)
        emap = "identity"
    elif q <= q_tilde:
        canon = (n - q_tilde, q)
        emap = "reflect"
    else:
        canon = (n - q, n - q_tilde)
        emap = "reflect-then-identity"
    cq, cqt = canon
    ones = max(0, q + q_tilde - n)
    # cq == 0: the rotated projector (or a complement) is the whole space, nothing random
    pair = ProjectorPair(n, cq, cqt) if cq >= 1 else None
    return ReductionPlan(pair, emap, ones, q - cq - ones)


def _beta_jacobi(gen, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of one Edelman-Sutton matrix at beta = 2.

    c_k^2 ~ Beta(b + k, a + k) for k = n..1 and c'_k^2 ~ Beta(k, a + b + 1 + k)
    for k = n-1..1 set the upper-bidiagonal B; the spectrum is that of B^T B.
    """
    k = np.arange(spec.n, 0, -1)
    c2 = gen.beta(spec.b + k, spec.a + k)
    cp2 = gen.beta(k[1:], spec.a + spec.b + 1 + k[1:])
    c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
    cp, sp = np.sqrt(cp2), np.sqrt(1.0 - cp2)
    d = c * np.concatenate(([1.0], sp))  # (c_q, c_{q-1} s'_{q-1}, ..., c_1 s'_1)
    e = -s[:-1] * cp  # (-s_q c'_{q-1}, ..., -s_2 c'_1)
    diag = d * d
    diag[1:] += e * e
    return diag, d[:-1] * e


def _tridiagonal_spectrum(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    if diag.size == 1:
        return diag
    w, _, info = load("scipy.linalg.lapack").dstevd(diag, off, compute_v=False)
    _check_info(info, "stevd")
    return w


def _tridiagonal_top(diag: np.ndarray, off: np.ndarray) -> float:
    q = diag.size
    if q == 1:
        return float(diag[0])
    # eigenvalue q of q by bisection, with scipy's arguments: range 2 (by
    # index), vl and vu unused, il = iu = q, tol 0 (dstebz's default), order 'E'
    _, w, _, _, info = load("scipy.linalg.lapack").dstebz(diag, off, 2, 0.0, 1.0, q, q, 0.0, "E")
    _check_info(info, "stebz")
    return float(w[0])


def _tridiagonal_route(n: int, q: int, q_tilde: int, spec: KernelSpec, size: int):
    # O(q) work per trial: nothing to gain from stacking
    return lambda gens: np.array([_tridiagonal_spectrum(*_beta_jacobi(gen, spec)) for gen in gens])


# each route builds, once per sample_spectra call, the function that draws
# one stack of at most ``size`` trials from their generators
_ROUTES = {"projector": _projector_route, "wishart": _wishart_route, "tridiagonal": _tridiagonal_route}
_DEFAULT_ROUTE = next(iter(_ROUTES))  # _ROUTES names every route of sample_spectra, the default first


def sample_spectra(
    streams: Sequence[SeededStream], n: int, q: int, q_tilde: int, route: str = _DEFAULT_ROUTE
) -> np.ndarray:
    """Sorted (ascending) eigenvalues of one draw per stream in the canonical
    regime, as a (len(streams), q) array.

    ``route`` is "projector", "wishart" or "tridiagonal".  The projector
    route takes the eigenvalues of ``projector_product``: the compression of
    a fixed rank-q_tilde projector onto a Haar-rotated rank-q subspace.  For
    the Wishart route the spectrum is computed from the definite pencil
    (X, X + X'), which has exactly the eigenvalues of the ratio matrix
    without forming the inverse square root.  The tridiagonal route costs
    O(q) random variables and one q x q symmetric tridiagonal eigenproblem.

    Row t takes all of its randomness from ``streams[t]``, in the same order
    whatever the other streams.  The linear algebra runs once per stack of
    trials: QR, matrix products and the Hermitian eigensolver on
    (trials, ., .) arrays, and one LAPACK call per slice for the Wishart
    pencil and the tridiagonal matrix.  Each slice goes through the same
    routine it would alone, and every OpenBLAS is held at one thread
    (``matalg.one_blas_thread``), so row t depends on ``streams[t]`` alone:
    not on the other streams, the stack, ``OPENBLAS_NUM_THREADS`` or the caller.
    """
    spec = ProjectorPair(n, q, q_tilde).kernel_spec()  # in the canonical regime, or ParameterError
    if route not in _ROUTES:
        raise ParameterError(f"unknown route {route!r}")
    out = np.empty((len(streams), q))
    size = max(1, _STACK_ENTRIES // (n * q))
    draw = _ROUTES[route](n, q, q_tilde, spec, min(size, len(streams)))
    with one_blas_thread():
        for lo in range(0, len(streams), size):
            out[lo : lo + size] = draw([s.generator() for s in streams[lo : lo + size]])
    return out


def sample_spectrum(
    stream: SeededStream, n: int, q: int, q_tilde: int, route: str = _DEFAULT_ROUTE
) -> np.ndarray:
    """Sorted (ascending) eigenvalues of one draw in the canonical regime.

    The one-stream case of ``sample_spectra``, which describes the routes
    (the projector route rotates the rank-q projector) and the stacked
    linear algebra.  The result depends on ``(seed, stream_id)`` alone and
    equals, bit for bit, the row that ``sample_spectra`` draws from the same
    stream in any stack.
    """
    return sample_spectra([stream], n, q, q_tilde, route)[0]


def sample_largest(stream: SeededStream, n: int, q: int, q_tilde: int) -> float:
    """Largest eigenvalue of one tridiagonal-route draw.

    Agrees with ``sample_spectrum(stream, n, q, q_tilde, "tridiagonal")[-1]``
    for the same stream up to rounding, but bisects for the top eigenvalue
    alone, in one LAPACK ``dstebz`` call: O(q) work per draw, where a dense
    route costs O(n q^2).
    """
    spec = ProjectorPair(n, q, q_tilde).kernel_spec()
    return _tridiagonal_top(*_beta_jacobi(stream.generator(), spec))
