"""Monte Carlo harness: empirical spectra, KS statistics, convergence reports.

Trials are keyed by stream_id so results are reproducible independent of
worker count; aggregation is order-independent (sorted merges).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cdkernel import (
    KernelSpec,
    one_point_density,
    rescaled_bulk,
    rescaled_hard,
    rescaled_soft,
)
from .errors import ParameterError
from .limits import airy_kernel, bessel_kernel, edge_profile, limit_density, sine_kernel

__all__ = [
    "EmpiricalSample",
    "ExperimentSpec",
    "ConvergenceReport",
    "ks_distance",
    "ks_against_cdf",
    "interval_count",
    "run_experiment",
    "worker_count",
    "parallel_map",
]


def worker_count() -> int:
    """Worker cap: JRMT_THREADS if set, else the machine's CPU count."""
    env = os.environ.get("JRMT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError(f"JRMT_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def parallel_map(fn: Callable, args: Sequence) -> list:
    """Map preserving argument order, threaded when the cap allows.

    Results are collected by index, so the output is identical to a serial
    map regardless of scheduling.
    """
    workers = worker_count()
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted sample values plus provenance metadata."""

    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, values, **meta) -> "EmpiricalSample":
        arr = np.sort(np.asarray(values, dtype=float).ravel())
        if arr.size == 0:
            raise ParameterError("empty sample")
        return cls(arr, dict(meta))

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
    """One-sample KS statistic of a sorted sample against a cdf callable."""
    x = s.values
    n = len(x)
    try:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            raise TypeError
    except TypeError:
        f = np.array([float(cdf(v)) for v in x])
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def interval_count(s: EmpiricalSample, lo: float, hi: float) -> int:
    """Number of sample points in the closed interval [lo, hi]."""
    if lo > hi:
        raise ParameterError(f"need lo <= hi, got {lo} > {hi}")
    v = s.values
    return int(np.searchsorted(v, hi, side="right") - np.searchsorted(v, lo, side="left"))


@dataclass(frozen=True)
class ExperimentSpec:
    """Descriptor of a kernel-convergence experiment.

    regime: 'onepoint' | 'bulk' | 'soft' | 'hard'.  ``alpha``/``beta`` are
    the a/n, b/n ratios (for 'hard', ``bessel_order`` is the constant b and
    beta is ignored).  Grids: x-grid offsets for 'onepoint' are generated
    from margins inside the support; 'bulk'/'soft'/'hard' use a square
    (u, v) grid.  The kernel-vs-limit errors are deterministic.
    """

    regime: str
    ns: tuple[int, ...]
    alpha: float
    beta: float = 0.0
    bessel_order: int = 0
    x_margin: float = 0.1
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
    xs = np.linspace(prof.r + spec.x_margin, prof.s - spec.x_margin, spec.x_points)
    ks = KernelSpec(n, spec.alpha * n, spec.beta * n)
    errs = [abs(one_point_density(ks, float(x)) - limit_density(prof, float(x))) for x in xs]
    return max(errs)


def _sup_error_grid(spec: ExperimentSpec, n: int) -> float:
    grid = np.asarray(spec.u_grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("grid regimes need a nonempty u_grid")
    if spec.regime == "bulk":
        ks = KernelSpec(n, spec.alpha * n, spec.beta * n)
        prof = edge_profile(spec.alpha, spec.beta)
        x0 = 0.5 * (prof.r + prof.s)
        pairs = [
            (abs(rescaled_bulk(ks, x0, u, v) - sine_kernel(u, v))) for u in grid for v in grid
        ]
        return max(pairs)
    if spec.regime == "soft":
        ks = KernelSpec(n, spec.alpha * n, spec.beta * n)
        return max(
            abs(rescaled_soft(ks, u, v) - airy_kernel(u, v)) for u in grid for v in grid
        )
    if spec.regime == "hard":
        ks = KernelSpec(n, spec.alpha * n, float(spec.bessel_order))
        bo = spec.bessel_order
        return max(
            abs(rescaled_hard(ks, u, v) - bessel_kernel(bo, u, v)) for u in grid for v in grid
        )
    raise ParameterError(f"unknown regime {spec.regime!r}")


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
