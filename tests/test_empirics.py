import math

import numpy as np
import pytest

from jrmt.empirics import (
    EmpiricalSample,
    ExperimentSpec,
    ks_against_cdf,
    ks_distance,
    run_experiment,
)
from jrmt.errors import ParameterError


def test_ks_identical_samples():
    s = EmpiricalSample.from_values([0.1, 0.5, 0.9])
    assert ks_distance(s, s) == 0.0


def test_ks_disjoint_supports():
    assert ks_distance(
        EmpiricalSample.from_values([1.0]), EmpiricalSample.from_values([2.0])
    ) == pytest.approx(1.0)


def test_ks_hand_value():
    s1 = EmpiricalSample.from_values([1.0, 3.0])
    s2 = EmpiricalSample.from_values([2.0])
    assert ks_distance(s1, s2) == pytest.approx(0.5)


def test_ks_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = EmpiricalSample.from_values(rng.normal(size=40))
        b = EmpiricalSample.from_values(rng.normal(0.3, size=50))
        c = EmpiricalSample.from_values(rng.normal(-0.2, size=30))
        assert ks_distance(a, b) == ks_distance(b, a)
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-15


def test_ks_one_sample_against_own_cdf():
    rng = np.random.default_rng(3)
    s = EmpiricalSample.from_values(rng.uniform(size=10_000))
    stat = ks_against_cdf(s, lambda x: np.clip(x, 0.0, 1.0))
    assert stat < 0.02  # 1.63/sqrt(N) bound at the 1% level


def test_ks_one_sample_single_point_at_median():
    s = EmpiricalSample.from_values([0.5])
    assert ks_against_cdf(s, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "cdf",
    [lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), lambda v: 0.5],
    ids=["raises-on-array", "returns-scalar"],
)
def test_ks_one_sample_rejects_scalar_only_cdf(cdf):
    s = EmpiricalSample.from_values([-0.3, 0.1, 0.8])
    with pytest.raises(ParameterError):
        ks_against_cdf(s, cdf)


def test_empty_sample_rejected():
    with pytest.raises(ParameterError):
        EmpiricalSample.from_values([])


def test_run_experiment_onepoint_errors_decrease():
    spec = ExperimentSpec(regime="onepoint", ns=(50, 100, 200), alpha=0.5, beta=0.25)
    report = run_experiment(spec)
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.errors[2] / report.errors[0] < 0.5


def test_run_experiment_bulk_slope():
    grid = tuple(np.linspace(-2.0, 2.0, 5))
    spec = ExperimentSpec(regime="bulk", ns=(50, 100, 200), alpha=0.5, beta=0.25, u_grid=grid)
    report = run_experiment(spec)
    assert -1.4 < report.slope < -0.6


def test_run_experiment_hard_slope():
    grid = tuple(np.linspace(0.5, 16.0, 4))
    spec = ExperimentSpec(
        regime="hard", ns=(50, 100, 200), alpha=0.5, bessel_order=2, u_grid=grid
    )
    report = run_experiment(spec)
    assert -1.4 < report.slope < -0.6


def test_run_experiment_deterministic():
    grid = tuple(np.linspace(-1.0, 1.0, 3))
    spec = ExperimentSpec(regime="bulk", ns=(50, 100), alpha=0.5, beta=0.25, u_grid=grid)
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    assert r1 == r2


def test_run_experiment_rejects_unknown_regime():
    with pytest.raises(ParameterError):
        run_experiment(ExperimentSpec(regime="wat", ns=(10,), alpha=0.5, u_grid=(0.5,)))


@pytest.mark.parametrize(
    "spec, errors",
    [
        (
            ExperimentSpec(regime="onepoint", ns=(50, 100, 200), alpha=0.5, beta=0.25),
            ("0x1.0fa7c8c69f560p-6", "0x1.0ee5151433d40p-7", "0x1.0665409c83f00p-8"),
        ),
        (
            ExperimentSpec(
                regime="bulk", ns=(100, 200, 400), alpha=0.5, beta=0.25,
                u_grid=tuple(np.linspace(-2.0, 2.0, 9)),
            ),
            ("0x1.65ae828667a00p-8", "0x1.01241186faf40p-9", "0x1.9c1558a15f400p-10"),
        ),
        (
            ExperimentSpec(
                regime="soft", ns=(100, 200, 400), alpha=0.5, beta=0.25,
                u_grid=tuple(np.linspace(-3.0, 1.5, 7)),
            ),
            ("0x1.1f6cc28e48ea0p-3", "0x1.a6b9d53151ae0p-4", "0x1.29f5b899974ccp-4"),
        ),
        (
            ExperimentSpec(
                regime="hard", ns=(100, 200, 400), alpha=0.5, bessel_order=2,
                u_grid=tuple(np.linspace(0.5, 16.0, 7)),
            ),
            ("0x1.ffebb9ee1c9c0p-11", "0x1.fdab4e7fa1e80p-12", "0x1.fc8be96ac6900p-13"),
        ),
    ],
    ids=["onepoint", "bulk", "soft", "hard"],
)
def test_acceptance_report_errors_pinned(spec, errors):
    # the criteria 02-05 reports, bit for bit
    assert tuple(e.hex() for e in run_experiment(spec).errors) == errors
