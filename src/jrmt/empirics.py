"""Empirical samples, KS statistics and deterministic convergence reports.

The module draws nothing.  An ``EmpiricalSample`` holds values drawn
elsewhere, sorted, so a KS statistic does not depend on the order of the
draws.  A convergence report compares the finite-n kernel or density with
its limit and involves no randomness.  A report on a grid regime takes its
centre, scale and limit kernel from :func:`~jrmt.cdkernel.local_scaling` and
its kernel values from :func:`~jrmt.cdkernel.rescaled`; it defines no
rescaling of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cdkernel import KernelSpec, local_scaling, one_point_density, rescaled
from .errors import ParameterError
from .limits import edge_profile, limit_density

__all__ = [
    "EmpiricalSample",
    "ExperimentSpec",
    "ConvergenceReport",
    "ks_distance",
    "ks_against_cdf",
    "run_experiment",
    "worker_count",
]

# distance of the 'onepoint' x-grid from each end of the limit support
_X_MARGIN = 0.1


def worker_count() -> int:
    """Number of workers that run trials: always 1.

    Trials run serially on one worker, and every dense draw holds BLAS at
    one thread (``matalg.one_blas_thread``).  The function stays only
    for the benchmark's environment line, which reports it.
    """
    return 1


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted sample values."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        arr = np.sort(np.asarray(values, dtype=float).ravel())
        if arr.size == 0:
            raise ParameterError("empty sample")
        return cls(arr)

    def __len__(self):
        return len(self.values)


def ks_distance(s1: EmpiricalSample, s2: EmpiricalSample) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F1 - F2|."""
    a, b = s1.values, s2.values
    grid = np.concatenate([a, b])
    grid.sort()
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_against_cdf(s: EmpiricalSample, cdf: Callable) -> float:
    """One-sample KS statistic of a sorted sample against a cdf callable.

    The cdf is called once, on the array of sample values, and must return
    an array of the same shape; a cdf that takes only scalars raises
    ``ParameterError``.
    """
    x = s.values
    n = len(x)
    try:
        f = np.asarray(cdf(x), dtype=float)
    except TypeError as exc:
        raise ParameterError("cdf must accept an array of sample values") from exc
    if f.shape != x.shape:
        raise ParameterError(f"cdf gave shape {f.shape} on {x.shape} sample values; it must broadcast")
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


@dataclass(frozen=True)
class ExperimentSpec:
    """Descriptor of a kernel-convergence experiment.

    regime: 'onepoint' | 'bulk' | 'soft' | 'hard'.  ``alpha``/``beta`` are
    the a/n, b/n ratios (for 'hard', ``bessel_order`` is the constant b and
    beta is ignored).  Grids: 'onepoint' spreads ``x_points`` over the
    limit support less ``_X_MARGIN`` at each end; 'bulk'/'soft'/'hard' use
    a square (u, v) grid.  The kernel-vs-limit errors are deterministic.
    """

    regime: str
    ns: tuple[int, ...]
    alpha: float
    beta: float = 0.0
    bessel_order: int = 0
    x_points: int = 41
    u_grid: tuple[float, ...] = ()


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n sup-norm errors against the limit plus a fitted log-log slope."""

    regime: str
    ns: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float


def _sup_error_onepoint(spec: ExperimentSpec, n: int) -> float:
    prof = edge_profile(spec.alpha, spec.beta)
    xs = np.linspace(prof.r + _X_MARGIN, prof.s - _X_MARGIN, spec.x_points)
    ks = KernelSpec(n, spec.alpha * n, spec.beta * n)
    return float(np.abs(one_point_density(ks, xs) - limit_density(prof, xs)).max())


def _sup_error_grid(spec: ExperimentSpec, n: int) -> float:
    grid = np.asarray(spec.u_grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("grid regimes need a nonempty u_grid")
    u, v = grid[:, None], grid[None, :]
    b = float(spec.bessel_order) if spec.regime == "hard" else spec.beta * n
    ks = KernelSpec(n, spec.alpha * n, b)
    limit = local_scaling(ks, spec.regime)[2]
    return float(np.abs(rescaled(ks, spec.regime, u, v) - limit(u, v)).max())


def run_experiment(spec: ExperimentSpec) -> ConvergenceReport:
    """Sup-norm error between the rescaled kernel and its limit, per n.

    The error metric is the sup over the fixed published grid, so reports
    are comparable across n and machines; the slope is the least-squares
    fit of log(error) against log(n).
    """
    if len(spec.ns) < 1:
        raise ParameterError("need at least one n")
    if spec.regime == "onepoint":
        errs = [_sup_error_onepoint(spec, n) for n in spec.ns]
    else:
        errs = [_sup_error_grid(spec, n) for n in spec.ns]
    if len(spec.ns) >= 2:
        slope = float(np.polyfit(np.log(spec.ns), np.log(errs), 1)[0])
    else:
        slope = float("nan")
    return ConvergenceReport(spec.regime, tuple(spec.ns), tuple(float(e) for e in errs), slope)
