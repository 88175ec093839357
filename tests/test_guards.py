"""Every library guard, one row each, and the exception class of every raise in src/jrmt."""

import ast
import math
import warnings

import numpy as np
import pytest

from jrmt.cdkernel import KernelSpec, kernel, local_scaling, rescaled, soft_edge
from jrmt.empirics import EmpiricalSample, ExperimentSpec, ks_against_cdf, run_experiment
from jrmt.ensembles import ProjectorPair, reduce_ranks, sample_largest, sample_spectrum
from jrmt.errors import DomainError, JrmtError, NumericError, ParameterError, RegimeError, ValidationError
from jrmt.fredholm import GapQuery, gap_probability, largest_eval_cdf
from jrmt.limits import (
    LimitProfile,
    banach_angle,
    bessel_kernel,
    edge_profile,
    free_product_density,
    limit_density,
)
from jrmt.matalg import eig_hermitian, principal_cosines
from jrmt.orthopoly import jacobi_pair, log_gamma_n
from jrmt.randgen import SeededStream, generators, random_isometry
from tests.fresh import ROOT
from tests.wkb_oracle import chi, interior_asymptotic


def _constant_two(x, y):
    return 2.0 + 0.0 * (x - y)


def _two_eigenvalues_three(x, y):
    # det(I - K) = (1 - 3)^2 = 4, which no projection kernel gives
    return 3.0 + 9.0 * (2.0 * x - 1.0) * (2.0 * y - 1.0)


def _ks_of_three_points(cdf):
    return ks_against_cdf(EmpiricalSample.from_values([-0.3, 0.1, 0.8]), cdf)


_SPEC = KernelSpec(50, 25.0, 2.0)

# The library's guard contract, one row per guarded call: (id, exception
# class, call, message fragment or "").  The one checker below holds every
# row to what the CLI needs to map a guard to exit 2 or 3 and print it as
# one "jrmt: " line: the exact class, a JrmtError, a message of one non-empty
# line that holds the fragment, and no RuntimeWarning on the way.
_GUARDS = [
    # the rank-one operator 2 on [0, 1] has det(I - K) = 1 - 2 = -1
    ("gap-below-zero", NumericError, lambda: gap_probability(GapQuery(_constant_two, (0.0, 1.0))), ""),
    ("gap-above-one", NumericError,
     lambda: gap_probability(GapQuery(_two_eigenvalues_three, (0.0, 1.0))), "above 1"),
    ("gap-kernel-inf", NumericError,
     lambda: gap_probability(GapQuery(lambda x, y: np.inf * np.ones_like(x * y), (0.0, 1.0))), ""),
    ("gap-kernel-scalar", ParameterError,
     lambda: gap_probability(GapQuery(lambda x, y: 0.0, (0.0, 1.0))), ""),
    ("gap-interval-reversed", ParameterError, lambda: GapQuery(lambda x, y: 0.0, (1.0, 0.0)), ""),
    ("gap-quad-4", ParameterError, lambda: GapQuery(lambda x, y: 0.0, (0.0, 1.0), quad_points=4), ""),
    # about 300 eigenvalues on [-0.5, 1] are more than 64 nodes resolve; the
    # determinant is near 4e20
    ("largest-unresolved", NumericError,
     lambda: largest_eval_cdf(KernelSpec(400, 200.0, 2.0), -0.5), "--quad"),
    ("density-with-atoms", RegimeError, lambda: limit_density(LimitProfile(0.5, 0.5, -0.5, 0.5), 0.0), ""),
    ("profile-alpha-negative", ParameterError, lambda: edge_profile(-0.1, 0.0), ""),
    ("profile-alpha-nan", ParameterError, lambda: edge_profile(math.nan, 0.2), ""),
    ("profile-beta-nan", ParameterError, lambda: edge_profile(0.2, math.nan), ""),
    ("profile-alpha-inf", ParameterError, lambda: edge_profile(math.inf, 0.2), ""),
    ("profile-beta-inf", ParameterError, lambda: edge_profile(0.2, math.inf), ""),
    ("free-alpha-above-one", ParameterError, lambda: free_product_density(1.2, 0.5), ""),
    ("free-alpha-nan", ParameterError, lambda: free_product_density(math.nan, 0.5), ""),
    ("free-beta-nan", ParameterError, lambda: free_product_density(0.5, math.nan), ""),
    ("free-alpha-inf", ParameterError, lambda: free_product_density(math.inf, 0.5), ""),
    ("bessel-fractional-order", ParameterError, lambda: bessel_kernel(1.5, 1.0, 2.0), ""),
    ("bessel-negative-offset", DomainError, lambda: bessel_kernel(0, -1.0, 2.0), ""),
    ("banach-zero-ratio", ParameterError, lambda: banach_angle(0.0, 0.3), ""),
    ("banach-oversized-ratios", RegimeError, lambda: banach_angle(0.6, 0.5), ""),
    ("banach-alpha-nan", ParameterError, lambda: banach_angle(math.nan, 0.3), ""),
    ("banach-beta-nan", ParameterError, lambda: banach_angle(0.3, math.nan), ""),
    # with a < 1 the turning point leaves (-1, 1): no square-root edge; with
    # a <= 1 the upper zero of chi lies at or past 1 while the lower one stays
    # inside (-1, 1), and the lower one is no soft edge
    ("soft-tiny-parameters", RegimeError, lambda: soft_edge(KernelSpec(50, 0.2, 0.1)), ""),
    ("soft-hard-upper-edge-266", RegimeError, lambda: soft_edge(KernelSpec(266, 0.0, 188.0)), ""),
    ("soft-hard-upper-edge-100", RegimeError, lambda: soft_edge(KernelSpec(100, 1.0, 20.0)), ""),
    ("kernel-x-at-one", DomainError, lambda: kernel(KernelSpec(5, 1.0, 1.0), 1.0, 0.5), ""),
    ("bulk-centre-outside-band", DomainError,
     lambda: rescaled(KernelSpec(100, 50.0, 25.0), "bulk", 0.0, 0.0, x=0.99), ""),
    # finite_profile rounds r to -1.0000000000000002, so x = -1 passes the band check
    ("bulk-density-vanishes", DomainError,
     lambda: local_scaling(KernelSpec(10, 0.7218045112781954, 0.0), "bulk", x=-1.0), "density vanishes"),
    ("hard-fractional-order", ParameterError,
     lambda: rescaled(KernelSpec(50, 25.0, 1.5), "hard", 1.0, 2.0), ""),
    ("hard-offset-zero", DomainError, lambda: rescaled(KernelSpec(50, 25.0, 1.0), "hard", 0.0, 1.0), ""),
    ("scaling-regime-wat", ParameterError, lambda: local_scaling(_SPEC, "wat"), ""),
    ("scaling-regime-onepoint", ParameterError, lambda: local_scaling(_SPEC, "onepoint"), ""),
    ("scaling-regime-Bulk", ParameterError, lambda: local_scaling(_SPEC, "Bulk"), ""),
    ("rescaled-regime-wat", ParameterError, lambda: rescaled(_SPEC, "wat", 1.0, 2.0), ""),
    ("rescaled-regime-onepoint", ParameterError, lambda: rescaled(_SPEC, "onepoint", 1.0, 2.0), ""),
    ("rescaled-regime-Bulk", ParameterError, lambda: rescaled(_SPEC, "Bulk", 1.0, 2.0), ""),
    # an edge fixes its own centre; an x there must not be dropped silently
    ("scaling-soft-centre", ParameterError, lambda: local_scaling(_SPEC, "soft", x=0.3), ""),
    ("scaling-hard-centre", ParameterError, lambda: local_scaling(_SPEC, "hard", x=0.3), ""),
    ("rescaled-soft-centre", ParameterError, lambda: rescaled(_SPEC, "soft", 1.0, 2.0, x=0.3), ""),
    ("rescaled-hard-centre", ParameterError, lambda: rescaled(_SPEC, "hard", 1.0, 2.0, x=0.3), ""),
    ("projector-rank-zero", ParameterError, lambda: ProjectorPair(10, 0, 3), ""),
    ("pair-a-0.5", ParameterError,
     lambda: ProjectorPair.from_kernel_spec(KernelSpec(5, 0.5, 1.0)), "integer a and b"),
    ("pair-b-2.5", ParameterError,
     lambda: ProjectorPair.from_kernel_spec(KernelSpec(5, 1.0, 2.5)), "integer a and b"),
    ("pair-a-1e-300", ParameterError,
     lambda: ProjectorPair.from_kernel_spec(KernelSpec(5, 1e-300, 0.0)), "integer a and b"),
    ("pair-b-4-ulps-above-1", ParameterError,
     lambda: ProjectorPair.from_kernel_spec(KernelSpec(5, 3.0, 1.0 + 2**-50)), "integer a and b"),
    ("wishart-q-above-qtilde", ParameterError,
     lambda: sample_spectrum(SeededStream(0), 10, 6, 5, route="wishart"), ""),
    ("wishart-ranks-above-n", ParameterError,
     lambda: sample_spectrum(SeededStream(0), 10, 4, 8, route="wishart"), ""),
    ("plan-q-zero", ParameterError, lambda: reduce_ranks(5, 0, 3), ""),
    ("plan-qtilde-above-n", ParameterError, lambda: reduce_ranks(5, 2, 6), ""),
    ("plan-wrong-count", ParameterError, lambda: reduce_ranks(48, 12, 18).apply([0.5] * 11), ""),
    # eight streams, enough for the batch hash, which leaves these values to generator()
    ("generators-negative-seed", ParameterError,
     lambda: list(generators([SeededStream(-1, t) for t in range(8)])), "must be >= 0"),
    ("generators-negative-stream-id", ParameterError,
     lambda: list(generators([SeededStream(3, t) for t in range(7, -1, -1)] + [SeededStream(3, -2)])),
     "must be >= 0"),
    ("largest-negative-seed", ParameterError,
     lambda: sample_largest(SeededStream(-1), 10, 2, 4), "must be >= 0"),
    ("isometry-rank-above-n", ParameterError, lambda: random_isometry(SeededStream(0), 4, 5), ""),
    ("isometry-rank-zero", ParameterError, lambda: random_isometry(SeededStream(0), 4, 0), ""),
    ("jacobi-negative-degree", ParameterError, lambda: jacobi_pair(-1, 1.0, 1.0, 0.3), ""),
    ("jacobi-a-nan", ParameterError, lambda: jacobi_pair(5, math.nan, 1.0, 0.3), ""),
    ("jacobi-b-nan", ParameterError, lambda: jacobi_pair(5, 1.0, math.nan, 0.3), ""),
    ("jacobi-a-inf", ParameterError, lambda: jacobi_pair(5, math.inf, 1.0, 0.3), ""),
    ("jacobi-b-minus-inf", ParameterError, lambda: jacobi_pair(5, 1.0, -math.inf, 0.3), ""),
    # the recurrence coefficients grow like (a + b)^3 before a division,
    # and P_1 needs a + b itself
    ("jacobi-coefficient-overflow", NumericError, lambda: jacobi_pair(5, 1e150, 0.0, 0.3), ""),
    ("jacobi-parameter-sum-overflow", NumericError, lambda: jacobi_pair(1, 1e308, 1e308, 0.0), ""),
    # finite coefficients near 1e80, but four steps between rescalings grow a row by 1e320
    ("jacobi-row-overflow", NumericError, lambda: jacobi_pair(6, 1e80, 1e80, 0.3), ""),
    ("gamma-degree-zero", ParameterError, lambda: log_gamma_n(0, 1.0, 1.0), ""),
    ("gamma-a-nan", ParameterError, lambda: log_gamma_n(5, math.nan, 1.0), ""),
    ("gamma-b-nan", ParameterError, lambda: log_gamma_n(5, 1.0, math.nan), ""),
    ("gamma-a-inf", ParameterError, lambda: log_gamma_n(5, math.inf, 1.0), ""),
    ("gamma-b-minus-inf", ParameterError, lambda: log_gamma_n(5, 1.0, -math.inf), ""),
    ("chi-at-one", DomainError, lambda: chi(5, 1.0, 1.0, 1.0), ""),
    ("interior-outside-band", DomainError, lambda: interior_asymptotic(200, 100.0, 50.0, 0.99), ""),
    ("ks-cdf-raises-on-array", ParameterError,
     lambda: _ks_of_three_points(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0))), ""),
    ("ks-cdf-returns-scalar", ParameterError, lambda: _ks_of_three_points(lambda v: 0.5), ""),
    ("sample-empty", ParameterError, lambda: EmpiricalSample.from_values([]), ""),
    ("experiment-empty-grid", ParameterError,
     lambda: run_experiment(ExperimentSpec("bulk", (20,), 0.5, 0.25)), ""),
    ("experiment-no-n", ParameterError,
     lambda: run_experiment(ExperimentSpec("onepoint", (), 0.5, 0.25)), ""),
    ("experiment-unknown-regime", ParameterError,
     lambda: run_experiment(ExperimentSpec("wat", (10,), 0.5, u_grid=(0.5,))), ""),
    ("eig-not-square", ValidationError, lambda: eig_hermitian(np.zeros((2, 3))), ""),
    ("eig-not-hermitian", ValidationError, lambda: eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])), ""),
    ("cosines-skew-basis", ValidationError,
     lambda: principal_cosines(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), np.eye(3)[:, :2]), ""),
    ("cosines-nan-basis", ValidationError,
     lambda: principal_cosines(np.full((3, 1), math.nan), np.eye(3)), ""),
    ("cosines-one-dimensional", ValidationError, lambda: principal_cosines(np.eye(3)[0], np.eye(3)), ""),
    ("cosines-row-mismatch", ValidationError,
     lambda: principal_cosines(np.eye(3)[:, :2], np.eye(4)[:, :2]), ""),
    ("cosines-no-columns", ValidationError, lambda: principal_cosines(np.eye(3)[:, :0], np.eye(3)), ""),
]


@pytest.mark.parametrize("error, call, fragment", [pytest.param(*row, id=name) for name, *row in _GUARDS])
def test_guard_raises(error, call, fragment):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as info:
            call()
    assert type(info.value) is error and issubclass(error, JrmtError)
    message = str(info.value)
    assert message.strip() and "\n" not in message
    assert fragment in message
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_every_raise_is_a_jrmt_error():
    # the CLI maps each JrmtError subclass to exit 2 or 3; a bare re-raise keeps its error
    classes = {cls.__name__ for cls in JrmtError.__subclasses__()}
    assert len(classes) == 5
    raises = [
        (path.name, node)
        for path in sorted((ROOT / "src" / "jrmt").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert raises
    for name, node in raises:
        exc = node.exc
        assert isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in classes, f"{name}:{node.lineno}"


def test_one_n_has_no_slope():
    report = run_experiment(ExperimentSpec("onepoint", (20,), 0.5, 0.25))
    assert len(report.errors) == 1 and math.isnan(report.slope)
