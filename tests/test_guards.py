"""Argument and result guards that no other test reaches, one case each."""

import math

import pytest

from jrmt.empirics import ExperimentSpec, run_experiment
from jrmt.ensembles import ProjectorPair, reduce_ranks
from jrmt.errors import DomainError, NumericError, ParameterError, RegimeError
from jrmt.fredholm import GapQuery, gap_probability
from jrmt.limits import LimitProfile, banach_angle, bessel_kernel, limit_density
from jrmt.orthopoly import jacobi_pair
from tests.wkb_oracle import chi


def _constant_two(x, y):
    return 2.0 + 0.0 * (x - y)


@pytest.mark.parametrize(
    "error, call",
    [
        # the rank-one operator 2 on [0, 1] has det(I - K) = 1 - 2 = -1
        (NumericError, lambda: gap_probability(GapQuery(_constant_two, (0.0, 1.0)))),
        (RegimeError, lambda: limit_density(LimitProfile(0.5, 0.5, -0.5, 0.5), 0.0)),
        (ParameterError, lambda: bessel_kernel(1.5, 1.0, 2.0)),
        (ParameterError, lambda: banach_angle(0.0, 0.3)),
        (ParameterError, lambda: ProjectorPair(10, 0, 3)),
        (ParameterError, lambda: reduce_ranks(48, 12, 18).apply([0.5] * 11)),
        (ParameterError, lambda: jacobi_pair(-1, 1.0, 1.0, 0.3)),
        # the recurrence coefficients grow like (a + b)^3 before a division,
        # and P_1 needs a + b itself
        (NumericError, lambda: jacobi_pair(5, 1e150, 0.0, 0.3)),
        (NumericError, lambda: jacobi_pair(1, 1e308, 1e308, 0.0)),
        (DomainError, lambda: chi(5, 1.0, 1.0, 1.0)),
        (ParameterError, lambda: run_experiment(ExperimentSpec("bulk", (20,), 0.5, 0.25))),
        (ParameterError, lambda: run_experiment(ExperimentSpec("onepoint", (), 0.5, 0.25))),
    ],
    ids=[
        "gap-below-zero",
        "density-with-atoms",
        "bessel-fractional-order",
        "banach-zero-ratio",
        "projector-rank-zero",
        "plan-wrong-count",
        "jacobi-negative-degree",
        "jacobi-coefficient-overflow",
        "jacobi-parameter-sum-overflow",
        "chi-at-one",
        "experiment-empty-grid",
        "experiment-no-n",
    ],
)
def test_guard_raises(error, call):
    with pytest.raises(error):
        call()


def test_one_n_has_no_slope():
    report = run_experiment(ExperimentSpec("onepoint", (20,), 0.5, 0.25))
    assert len(report.errors) == 1 and math.isnan(report.slope)
