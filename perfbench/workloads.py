"""Op lists, correctness gates and layer probes of the jrmt benchmark.

Every op calls the package through a public function or ``jrmt.cli.main``
and checks the output it gets.  An op that raises or fails its gate counts
as failed.  Determinants are compared with an absolute tolerance, because a
Nystrom ``det`` is only accurate in absolute terms; Monte Carlo outputs pass
statistical gates that hold at the draw count used, never bitwise ones, so
a new sampler stays comparable.

Op families give the traced run's family metrics: ``spectra``, ``angles``,
``top`` (largest-eigenvalue draws), ``tw`` and ``gap_small``.  A workload's
own op list produces some families (``home``); the traced run measures the
rest on one reference group each, because every result carries every
metric.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback
import zlib
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from jrmt import (
    EmpiricalSample,
    ExperimentSpec,
    GapQuery,
    KernelSpec,
    ProjectorPair,
    SeededStream,
    airy_kernel,
    banach_angle,
    bessel_kernel,
    eig_hermitian,
    gap_probability,
    kernel,
    ks_against_cdf,
    ks_distance,
    largest_eval_cdf,
    one_point_density,
    principal_cosines,
    projector_product,
    random_isometry,
    run_experiment,
    sample_largest,
    sample_spectrum,
    soft_edge,
    tracy_widom_cdf,
)
from jrmt.cdkernel import finite_profile
from jrmt.cli import main as cli_main
from jrmt.fredholm import gauss_legendre
from jrmt.orthopoly import jacobi_pair
from spans import RecordingKernel, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ---------------------------------------------------------------------------
# fixed problem definitions (the acceptance criteria they come from in brackets)

TRIPLES = ((48, 12, 18), (40, 10, 10), (60, 12, 30))  # [01]
ROUTES = ("projector", "wishart")
BLOCK = (800, 200, 200)
ANGLES = (200, 50, 60)  # [09]
SPEC_SMALL = KernelSpec(12, 6.0, 3.0)  # [06]
SPEC_LARGE = KernelSpec(100, 50.0, 50.0)
SPEC_EDGE = KernelSpec(400, 200.0, 200.0)  # [07]
EDGE_TRIPLE = (1200, 400, 600)  # [07]: ranks (n, n + b) in dimension a + 2n + b
TW_ANCHORS = (-6.0, -4.0, -3.0, -2.0, -1.8, -1.0, 0.0, 2.0, 4.0)
REPORTS = {  # [02]-[05]
    "onepoint": ExperimentSpec(regime="onepoint", ns=(50, 100, 200), alpha=0.5, beta=0.25),
    "bulk": ExperimentSpec(
        regime="bulk", ns=(100, 200, 400), alpha=0.5, beta=0.25,
        u_grid=tuple(np.linspace(-2.0, 2.0, 9)),
    ),
    "soft": ExperimentSpec(
        regime="soft", ns=(100, 200, 400), alpha=0.5, beta=0.25,
        u_grid=tuple(np.linspace(-3.0, 1.5, 7)),
    ),
    "hard": ExperimentSpec(
        regime="hard", ns=(100, 200, 400), alpha=0.5, bessel_order=2,
        u_grid=tuple(np.linspace(0.5, 16.0, 7)),
    ),
}
REPORT_VERDICTS = {  # the acceptance conditions of criteria 02-05
    "onepoint": lambda e, s: e[0] > e[1] > e[2] and e[2] / e[0] < 0.5,
    "bulk": lambda e, s: e[-1] < 0.05 and -1.4 <= s <= -0.6,
    "soft": lambda e, s: e[-1] < 0.1 and e[0] > e[1] > e[2],
    "hard": lambda e, s: e[-1] < 0.03 and -1.4 <= s <= -0.6,
}
DENSITY_ARGV = ("density", "--n", "50", "--a", "25", "--b", "10", "--grid=-0.9:0.9:9")
KERNEL_ARGV = ("kernel", "--regime", "soft", "--n", "100", "--a", "50", "--b", "25", "--ugrid=-3:1.5:4")
# documented outcome of each: exit 2 (usage error), no traceback
PROBES = (
    ("sample", "--n", "48", "--q", "12", "--qtilde", "18", "--seed", "-1"),
    ("sample", "--n", "48", "--q", "12", "--qtilde", "18", "--out", str(HERE / "no-such-dir" / "s.csv")),
    ("angles", "--n", "200", "--q", "50", "--qprime", "60", "--trials", "0"),
)

ATOL = 1e-9  # determinants carry absolute, not relative, accuracy
REPORT_ATOL = 1e-6
Z_KS = math.sqrt(math.log(2.0 / 1e-6) / 2.0)  # KS critical constant at p = 1e-6
TW_BIAS = 0.08  # finite-n soft-edge bias allowance, the criterion-07 bound
GAP_M = inspect.signature(largest_eval_cdf).parameters["m"].default
TW_M = inspect.signature(tracy_widom_cdf).parameters["m"].default
TW_TAIL = inspect.signature(tracy_widom_cdf).parameters["tail"].default


REF_PASS = 999_999  # pass index keying the inputs of the reference groups


def load_reference() -> dict:
    """Anchor inputs and the values recorded for them (see make_reference.py)."""
    with open(HERE / "reference.json", encoding="utf-8") as f:
        return json.load(f)


def small_anchors() -> list[float]:
    """Criterion-06 points: the finite-n soft edge of (12, 6, 3) and +-0.05."""
    s = finite_profile(SPEC_SMALL).s
    return [s - 0.05, s, s + 0.05]


def large_anchor() -> float:
    """Where the n = 100 largest-eigenvalue law is near its median (TW at -1.8)."""
    s, h = soft_edge(SPEC_LARGE)
    return s - 1.8 / h


@dataclass(frozen=True)
class Sizes:
    sample_trials: int  # per `jrmt sample` call on a criterion-01 triple
    block_trials: int  # per `jrmt sample` call on the (800, 200, 200) block
    angle_trials: int
    tw_grid: int  # t-grid points per gap_laws pass
    small_seeded: int  # seeded x points per pass, n = 12
    top_draws: int  # largest-eigenvalue draws per edge_law pass
    setup_repeats: int
    ref: dict  # sizes of the reference groups (families outside a workload's list)
    reps: float  # repeat multiplier of the layer probes


FULL = Sizes(
    sample_trials=400, block_trials=10, angle_trials=100, tw_grid=101,
    small_seeded=2, top_draws=20, setup_repeats=3,
    ref=dict(sample_trials=100, block_trials=3, angle_trials=30, top_draws=2, tw_grid=101),
    reps=1.0,
)
SMOKE = Sizes(
    sample_trials=40, block_trials=2, angle_trials=10, tw_grid=11,
    small_seeded=1, top_draws=3, setup_repeats=1,
    ref=dict(sample_trials=20, block_trials=1, angle_trials=5, top_draws=2, tw_grid=11),
    reps=0.1,
)


class GateFailure(Exception):
    pass


def require(ok, detail: str) -> None:
    if not ok:
        raise GateFailure(detail)


def child_env() -> dict:
    """The caller's environment with the checkout's sources first on the path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def run_cli(argv) -> tuple[int, str, str]:
    """``jrmt.cli.main`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> np.ndarray:
    """Data rows of a CLI CSV (after the '# {...}' line and the header)."""
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0].startswith("# "), "CSV without metadata and header")
    return np.array([[float(v) for v in line.split(",")] for line in lines[2:]])


def ks_critical(*sizes: int) -> float:
    """Two-sample (two sizes) or one-sample (one size) KS bound at p = 1e-6.

    Pooled eigenvalues of one draw repel each other, so their empirical cdf
    fluctuates less than that of as many independent points: the i.i.d.
    bound at the pooled size is conservative for spectra.
    """
    return Z_KS * math.sqrt(sum(1.0 / n for n in sizes))


class Bench:
    """State of one run: op accounting, timings, seeded inputs and digests."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.reference = load_reference()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.units: dict[str, list[int]] = defaultdict(list)  # work items per call
        self.values: dict = {}  # determinant values by input, for the trace check
        self.state: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []
        self.gates: list[tuple[str, bool]] = []
        self.probes: list[tuple[str, str, bool]] = []
        self._streams = hashlib.sha256()

    # -- inputs --------------------------------------------------------------

    def rng(self, *tags) -> np.random.Generator:
        """Generator keyed by the workload seed and string/int tags."""
        key = [zlib.crc32(t.encode()) if isinstance(t, str) else int(t) for t in tags]
        return np.random.default_rng([self.seed, *key])

    def stream_seed(self, *tags) -> int:
        return int(self.rng(*tags).integers(2**31))

    def absorb(self, values) -> None:
        """Fold drawn or seeded values into the run's stream digest."""
        self._streams.update(np.ascontiguousarray(values, dtype=float).tobytes())

    @property
    def streams(self) -> str:
        return self._streams.hexdigest()[:16]

    # -- ops and calls -------------------------------------------------------

    @contextmanager
    def op(self, name: str):
        """One gated op: a failed gate or an exception marks it failed."""
        self.attempted += 1
        self.tracer.op_id += 1
        detail = None
        try:
            with self.tracer.span("bench." + name):
                yield
        except GateFailure as e:
            detail = str(e)
        except Exception:  # a crashing op is a failed op; the run goes on
            detail = traceback.format_exc(limit=4)
        self.gates.append((name, detail is None))
        if detail is not None:
            self.failed += 1
            self.failures.append((name, detail))

    def call(self, span: str, family, fn, *args, units: int = 1):
        """Time one call into a layer, inside a span named ``<layer>.<call>``."""
        with self.tracer.span(span):
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
        for fam in (family,) if isinstance(family, str) else family:
            self.times[fam].append(dt)
            self.units[fam].append(units)
        return out

    def close_group(self, family: str, first: int) -> None:
        """Append the work items per second of the calls of ``family`` since
        call ``first`` to ``<family>.rate``: one sample over unlike calls."""
        t, u = self.times[family][first:], self.units[family][first:]
        if t:
            self.times[family + ".rate"].append(sum(u) / sum(t))

    def gap(self, family: str, spec: KernelSpec, x: float) -> float:
        """P(largest <= x); traced through a recording wrapper of the kernel."""
        if self.tracer.enabled:
            rec = RecordingKernel(self.tracer, "cdkernel.kernel", lambda s, t: kernel(spec, s, t))
            query = GapQuery(rec, (x, 1.0), quad_points=GAP_M)
            v = self.call("fredholm.gap_probability", family, gap_probability, query)
        else:
            v = self.call("fredholm.largest_eval_cdf", family, largest_eval_cdf, spec, x)
        self.values[("gap", spec.n, x)] = v
        return v

    def tw(self, family: str, t: float) -> float:
        """Tracy-Widom cdf; traced through a recording wrapper of the Airy kernel."""
        if self.tracer.enabled:
            rec = RecordingKernel(self.tracer, "limits.airy_kernel", airy_kernel)
            query = GapQuery(rec, (t, t + TW_TAIL), quad_points=TW_M)
            v = self.call("fredholm.gap_probability", family, gap_probability, query)
        else:
            v = self.call("fredholm.tracy_widom_cdf", family, tracy_widom_cdf, t)
        self.values[("tw", t)] = v
        return v

    def sample_cli(self, family: str, n: int, q: int, qt: int, route: str, trials: int, seed: int):
        argv = ["sample", "--n", n, "--q", q, "--qtilde", qt, "--route", route,
                "--trials", trials, "--seed", seed]
        code, out, err = self.call("cli.sample", family, run_cli, argv, units=trials)
        require(code == 0, f"exit {code}: {err.strip()}")
        rows = parse_csv(out)
        require(rows.shape == (trials, q), f"shape {rows.shape}, expected {(trials, q)}")
        require((np.diff(rows, axis=1) >= 0).all(), "spectrum rows not ascending")
        require(rows.min() >= -1e-9 and rows.max() <= 1 + 1e-9, "eigenvalues outside [0, 1]")
        self.absorb(rows)
        return rows


# ---------------------------------------------------------------------------
# op groups: generators that run one op per step and yield after it

Steps = Iterator[None]


def drain(steps: Steps) -> None:
    for _ in steps:
        pass


def sample_ops(b: Bench, k: int, trials: int, block_trials: int) -> Steps:
    """`jrmt sample` on the criterion-01 triples, both routes, plus the block."""
    first = len(b.times["spectra"])
    for i, (n, q, qt) in enumerate(TRIPLES):
        pooled = {}
        for route in ROUTES:
            with b.op(f"sample.{n}-{q}-{qt}.{route}"):
                pooled[route] = b.sample_cli(
                    "spectra", n, q, qt, route, trials, b.stream_seed("sample", k, i, route)
                )
            yield
        if len(pooled) < 2:
            continue
        with b.op(f"two_route_ks.{n}-{q}-{qt}"):
            p, w = (EmpiricalSample.from_values(pooled[r]) for r in ROUTES)
            d = b.call("empirics.ks_distance", "ks_distance", ks_distance, p, w)
            crit = ks_critical(len(p), len(w))
            require(d < crit, f"two-route KS {d:.4f} >= {crit:.4f}")
        yield
    n, q, qt = BLOCK
    with b.op("sample.block"):
        rows = b.sample_cli("spectra", n, q, qt, "wishart", block_trials, b.stream_seed("block", k))
        # the mean eigenvalue is the Beta(q~, n - q~) mean; its spread per draw is ~1e-3
        require(abs(rows.mean() - qt / n) < 0.01, f"block mean {rows.mean():.4f} != {qt / n}")
    b.close_group("spectra", first)
    yield


def angles_ops(b: Bench, k: int, trials: int) -> Steps:
    n, q, qp = ANGLES
    with b.op("angles"):
        argv = ["angles", "--n", n, "--q", q, "--qprime", qp, "--trials", trials,
                "--seed", b.stream_seed("angles", k)]
        code, out, err = b.call("cli.angles", "angles", run_cli, argv, units=trials)
        require(code == 0, f"exit {code}: {err.strip()}")
        mean = json.loads(out)["max_cos2"]["mean"]
        s = math.cos(banach_angle(q / n, qp / n)) ** 2
        require(s - 0.05 <= mean <= s + 0.02, f"mean max cos^2 {mean:.4f} outside criterion-09 window")
        b.absorb([mean])
    yield


def probe_ops(b: Bench) -> Steps:
    """CLI contract probes: documented exit 2; anything else is a violation."""
    for argv in PROBES:
        try:
            code, _, err = run_cli(argv)
            outcome = f"exit {code}"
            ok = code == 2 and "Traceback" not in err
        except Exception as e:  # a traceback escaping main() is the violation probed for
            outcome, ok = f"traceback ({type(e).__name__})", False
        b.probes.append((" ".join(argv), outcome, ok))
        yield


def gap_ops(b: Bench, family: str, spec: KernelSpec, points) -> Steps:
    """Determinants at (x, reference value or None) points: range, the
    reference, and monotonicity in x together with the table's anchors."""
    got = {}
    for x, ref in points:
        with b.op(family):
            v = b.gap(family, spec, x)
            require(-ATOL <= v <= 1 + ATOL, f"P(max <= {x}) = {v} outside [0, 1]")
            require(ref is None or abs(v - ref) <= ATOL, f"P(max <= {x}) = {v!r}, reference {ref!r}")
            got[x] = v
        yield
    with b.op(family + ".monotone"):
        known = {x: ref for x, ref in b.reference[family]} | got
        vals = [known[x] for x in sorted(known)]
        require(all(u <= v + ATOL for u, v in zip(vals, vals[1:])), f"not monotone in x: {vals}")
    yield


def tw_grid_ops(b: Bench, k: int, points: int, anchors: bool = True) -> Steps:
    """TW cdf on a t-grid over [-6, 4] spaced uniformly in probability (from
    the table's cdf, with a seeded offset), plus the anchor points.

    The points follow the law itself, as in a table of it.  A TW call's cost
    depends on t through the Airy evaluation path and is steady only in the
    bulk; on a grid uniform in t the median time per call sits on a cliff
    between cost plateaus.
    """
    t_tab, f_tab = np.array(b.reference["tw_table"]).T
    p = f_tab[0] + (f_tab[-1] - f_tab[0]) * (np.arange(points) + b.rng("tw_grid", k).random()) / points
    ts = np.interp(p, f_tab, t_tab)
    b.absorb(ts)
    vals = []
    for t in ts:
        with b.op("tw"):
            v = b.tw("tw", float(t))
            require(-ATOL <= v <= 1 + ATOL, f"F({t}) = {v} outside [0, 1]")
            vals.append(v)
        yield
    with b.op("tw.monotone"):
        require(all(u <= v + ATOL for u, v in zip(vals, vals[1:])), "TW cdf not monotone in t")
    for t, ref in b.reference["tw"] if anchors else ():
        with b.op("tw.anchor"):
            v = b.tw("tw", t)
            require(abs(v - ref) <= ATOL, f"F({t}) = {v!r}, reference {ref!r}")
        yield


def report_ops(b: Bench) -> Steps:
    """Criteria 02-05 convergence reports: verdicts plus the reference errors."""
    for name, spec in REPORTS.items():
        with b.op("report." + name):
            fams = ("report", f"empirics.report_s.{name}")
            r = b.call("empirics.run_experiment", fams, run_experiment, spec)
            ref = b.reference["reports"][name]
            require(REPORT_VERDICTS[name](r.errors, r.slope), f"criterion fails: {r}")
            dev = max(abs(e - f) for e, f in zip(r.errors, ref))
            require(dev <= REPORT_ATOL, f"errors {r.errors} deviate {dev:.2e} from {ref}")
        yield


def grid_cli_ops(b: Bench) -> Steps:
    """`jrmt density` and `jrmt kernel` on small fixed grids, against the reference table."""
    for argv, key in ((DENSITY_ARGV, "density"), (KERNEL_ARGV, "kernel")):
        with b.op("cli." + key):
            code, out, err = b.call("cli." + key, "cli_" + key, run_cli, argv)
            require(code == 0, f"exit {code}: {err.strip()}")
            rows = parse_csv(out)
            ref = np.array(b.reference[key])
            require(rows.shape == ref.shape, f"{key} shape {rows.shape} != {ref.shape}")
            require(np.abs(rows - ref).max() <= ATOL, f"{key} grid deviates from the reference")
        yield


def top_ops(b: Bench, k: int, draws: int, tops: list | None = None) -> Steps:
    """Largest-eigenvalue draws of criterion 07's triple, appended to ``tops``."""
    n, q, qt = EDGE_TRIPLE
    base = b.stream_seed("top", k)
    tops = [] if tops is None else tops
    for t in range(draws):
        with b.op("top_draw"):
            lam = b.call("ensembles.sample_largest", "top", sample_largest, SeededStream(base, t), n, q, qt)
            require(-1e-9 <= lam <= 1 + 1e-9, f"largest eigenvalue {lam} outside [0, 1]")
            tops.append(lam)
            b.absorb([lam])
        yield


def ks_tw_ops(b: Bench, tops: list) -> Steps:
    """Rescale draws at the soft edge and score them against TW (criterion 07)."""
    s, h = b.state["edge"]
    with b.op("ks_tw"):
        x = (2.0 * np.array(tops) - 1.0 - s) * h
        seen = {}

        def cdf(arr):  # scattered points, one TW determinant each, as in criterion 07
            out = np.array([b.tw("tw", float(v)) for v in np.atleast_1d(arr)])
            seen.update(zip(np.atleast_1d(arr).tolist(), out.tolist()))
            return out

        stat = b.call("empirics.ks_against_cdf", "ks_tw", ks_against_cdf, EmpiricalSample.from_values(x), cdf)
        require(all(-ATOL <= v <= 1 + ATOL for v in seen.values()), "TW cdf outside [0, 1]")
        crit = TW_BIAS + ks_critical(len(x))
        require(stat < crit, f"KS against TW {stat:.4f} >= {crit:.4f}")
        b.state.setdefault("scored", {}).update(seen)
    yield


def pooled_tw_gate(b: Bench) -> None:
    """KS against TW over every draw of the run, from the cdf values already computed."""
    scored = b.state.get("scored")
    if not scored:
        return
    with b.op("ks_tw.pooled"):
        sample = EmpiricalSample.from_values(list(scored))
        stat = ks_against_cdf(sample, lambda arr: np.array([scored[v] for v in arr.tolist()]))
        crit = TW_BIAS + ks_critical(len(sample))
        require(stat < crit, f"pooled KS against TW {stat:.4f} >= {crit:.4f} ({len(sample)} draws)")


# ---------------------------------------------------------------------------
# workloads


def _setup_spectra(b: Bench) -> None:
    for route in ROUTES:
        run_cli(["sample", "--n", 48, "--q", 12, "--qtilde", 18, "--route", route, "--trials", 2])
    run_cli(["angles", "--n", 20, "--q", 5, "--qprime", 6, "--trials", 2])


def _setup_gap(b: Bench) -> None:
    kernel(SPEC_SMALL, 0.1, 0.2)
    tracy_widom_cdf(0.0)
    run_experiment(ExperimentSpec(regime="onepoint", ns=(4,), alpha=0.5, beta=0.25, x_points=3))


def _setup_edge(b: Bench) -> None:
    b.state["edge"] = soft_edge(SPEC_EDGE)
    sample_largest(SeededStream(0, 0), 48, 12, 18)
    tracy_widom_cdf(0.0)


def _pass_spectra(b: Bench, k: int) -> Steps:
    sz = b.sizes
    yield from sample_ops(b, k, sz.sample_trials, sz.block_trials)
    yield from angles_ops(b, k, sz.angle_trials)
    yield from probe_ops(b)


def _pass_gap(b: Bench, k: int) -> Steps:
    sz = b.sizes
    edge = finite_profile(SPEC_SMALL).s  # seeded points stay left of 1, in the criterion-06 window
    small = sorted(b.rng("gap_small", k).uniform(edge - 0.08, edge + 0.05, sz.small_seeded).tolist())
    b.absorb(small)
    small = [*b.reference["gap_small"], *((x, None) for x in small)]
    # one n = 100 determinant per pass (seconds each): the anchor on even
    # passes, a seeded point on odd ones
    if k % 2 == 0:
        large = b.reference["gap_large"]
    else:
        s, h = soft_edge(SPEC_LARGE)
        large = [(s + b.rng("gap_large", k).uniform(-3.5, 0.5) / h, None)]
        b.absorb([large[0][0]])
    yield from gap_ops(b, "gap_small", SPEC_SMALL, small)
    yield from gap_ops(b, "gap_large", SPEC_LARGE, large)
    yield from tw_grid_ops(b, k, sz.tw_grid)
    yield from report_ops(b)
    yield from grid_cli_ops(b)


def _pass_edge(b: Bench, k: int) -> Steps:
    tops = []
    yield from top_ops(b, k, b.sizes.top_draws, tops)
    yield from ks_tw_ops(b, tops)


@dataclass(frozen=True)
class Workload:
    name: str
    home: frozenset  # op families its own op list produces
    setup: Callable[[Bench], None]
    run_pass: Callable[[Bench, int], Steps]
    finish: Callable[[Bench], None] = lambda b: None
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # Monte Carlo through the CLI; no kernel code runs, so kernel or
        # Fredholm changes must leave it flat
        Workload("spectra_mc", frozenset({"spectra", "angles"}), _setup_spectra, _pass_spectra),
        # deterministic laws; the Nystrom matrix asks m^2 kernel entries per
        # determinant, the reports only tens per n
        Workload("gap_laws", frozenset({"gap_small", "tw"}), _setup_gap, _pass_gap),
        # criterion 07 with fewer draws: sampling and TW at scattered points in
        # one result; two passes give the TW tail at least ten samples past p75
        Workload("edge_law", frozenset({"top", "tw"}), _setup_edge, _pass_edge, pooled_tw_gate, min_passes=2),
    )
}


REFERENCE_GROUPS = {  # family -> one group of its ops, keyed by a pass index
    "spectra": lambda b, k: sample_ops(b, k, b.sizes.ref["sample_trials"], b.sizes.ref["block_trials"]),
    "angles": lambda b, k: angles_ops(b, k, b.sizes.ref["angle_trials"]),
    "top": lambda b, k: top_ops(b, k, b.sizes.ref["top_draws"]),
    "tw": lambda b, k: tw_grid_ops(b, k, b.sizes.ref["tw_grid"], anchors=False),
    "gap_small": lambda b, k: gap_ops(b, "gap_small", SPEC_SMALL, b.reference["gap_small"]),
}


def reference_ops(b: Bench, workload: Workload) -> Steps:
    """One group of ops of each family outside the workload's op list."""
    for family, group in REFERENCE_GROUPS.items():
        if family not in workload.home:
            yield from group(b, REF_PASS)


# ---------------------------------------------------------------------------
# layer probes (traced run only)


class Tabulated:
    """Kernel read from a matrix precomputed on the quadrature nodes."""

    def __init__(self, nodes: np.ndarray, matrix: np.ndarray):
        self.nodes = nodes
        self.matrix = matrix

    def __call__(self, s, t):
        return self.matrix[np.searchsorted(self.nodes, s), np.searchsorted(self.nodes, t)]


def _tabulate(fn, nodes: np.ndarray) -> np.ndarray:
    # the entry order and symmetric fill of the quadrature's entry-by-entry path
    m = len(nodes)
    k = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            k[i, j] = k[j, i] = fn(nodes[i], nodes[j])
    return k


def _recorded_gap(b: Bench, name: str, fn, interval) -> tuple[float, RecordingKernel, float]:
    """One determinant through a recording kernel: value, wrapper, kernel share of the time."""
    rec = RecordingKernel(b.tracer, name, fn)
    first = len(b.tracer.spans)
    t0 = time.perf_counter()
    v = b.call("fredholm.gap_probability", (), gap_probability, GapQuery(rec, interval, quad_points=GAP_M))
    total = time.perf_counter() - t0
    inside = sum(s[2] - s[1] for s in b.tracer.spans[first:] if s[0] == name)
    return v, rec, inside / total


def layer_ops(b: Bench) -> dict[str, tuple[float, str, int]]:
    """Single-layer timings, Fredholm counts and CLI times at the workloads' sizes.

    Returns metric name -> (value, unit, sample count).
    """
    out: dict[str, tuple[float, str, int]] = {}
    base = b.stream_seed("layer")
    stream = lambda i: SeededStream(base, i)  # noqa: E731
    xs = lambda i: -0.9 + 1.8 * ((0.618034 * (i + 1)) % 1.0)  # noqa: E731

    def timed(metric: str, span: str, reps: int, fn, unit: str = "ms"):
        """Median of ``reps`` calls fn(i), i = 0, 1, ..."""
        with b.op("layer." + metric):
            for i in range(max(1, round(reps * b.sizes.reps))):
                r = b.call(span, metric, fn, i)
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        out[metric] = (float(np.median(b.times[metric])) * scale, unit, len(b.times[metric]))
        return r

    timed("randgen.stream_us", "randgen.generator", 200, lambda i: stream(i).generator(), "us")
    timed("randgen.isometry_ms", "randgen.random_isometry", 20, lambda i: random_isometry(stream(i), 200, 60))
    herm = projector_product(stream(0), ProjectorPair(48, 12, 18))
    timed("matalg.eig_hermitian_us", "matalg.eig_hermitian", 200, lambda i: eig_hermitian(herm), "us")
    b1, b2 = random_isometry(stream(1), 200, 50), random_isometry(stream(2), 200, 60)
    timed("matalg.principal_cosines_ms", "matalg.principal_cosines", 20, lambda i: principal_cosines(b1, b2))
    for route in ROUTES:
        timed(f"ensembles.spectrum_{route}_us", "ensembles.sample_spectrum", 200,
              lambda i: sample_spectrum(stream(i), 48, 12, 18, route), "us")
    timed("ensembles.spectrum_wishart_large_ms", "ensembles.sample_spectrum", 5,
          lambda i: sample_spectrum(stream(i), *BLOCK, "wishart"))
    timed("ensembles.largest_ms", "ensembles.sample_largest", 5, lambda i: sample_largest(stream(i), *EDGE_TRIPLE))
    timed("orthopoly.jacobi_pair_us.n100", "orthopoly.jacobi_pair", 50,
          lambda i: jacobi_pair(100, 50.0, 50.0, xs(i)), "us")
    timed("orthopoly.jacobi_pair_us.n400", "orthopoly.jacobi_pair", 20,
          lambda i: jacobi_pair(400, 200.0, 100.0, xs(i)), "us")
    spec400 = KernelSpec(400, 200.0, 100.0)  # the (alpha, beta) = (0.5, 0.25) reports at n = 400
    timed("cdkernel.kernel_offdiag_us.n100", "cdkernel.kernel", 20,
          lambda i: kernel(SPEC_LARGE, xs(i), 0.9 * xs(i)), "us")
    timed("cdkernel.kernel_diag_us.n100", "cdkernel.kernel", 20, lambda i: kernel(SPEC_LARGE, xs(i), xs(i)), "us")
    timed("cdkernel.kernel_offdiag_us.n400", "cdkernel.kernel", 10,
          lambda i: kernel(spec400, xs(i), 0.9 * xs(i)), "us")
    timed("cdkernel.density_us.n200", "cdkernel.one_point_density", 20,
          lambda i: one_point_density(KernelSpec(200, 100.0, 50.0), xs(i)), "us")
    timed("cdkernel.soft_edge_us", "cdkernel.soft_edge", 50, lambda i: soft_edge(SPEC_EDGE), "us")
    tt = np.meshgrid(*[gauss_legendre(TW_M, -1.8, -1.8 + TW_TAIL)[0]] * 2)
    timed("limits.airy_kernel_ms.m64", "limits.airy_kernel", 10, lambda i: airy_kernel(*tt))
    uu = np.meshgrid(*[gauss_legendre(64, 0.5, 16.0)[0]] * 2)
    timed("limits.bessel_kernel_ms.m64", "limits.bessel_kernel", 10, lambda i: bessel_kernel(2, *uu))

    # Fredholm: kernel share and entry counts through a recording wrapper, then
    # the determinant alone over a kernel tabulated in advance
    x = b.reference["gap_small"][1][0]
    fn = lambda s, t: kernel(SPEC_SMALL, s, t)  # noqa: E731
    want = largest_eval_cdf(SPEC_SMALL, x)
    x_large = b.reference["gap_large"][0][0]
    timed("gap_large_p50_ms", "fredholm.largest_eval_cdf", 1, lambda i: largest_eval_cdf(SPEC_LARGE, x_large))
    with b.op("layer.fredholm.gap"):
        v, rec, share = _recorded_gap(b, "cdkernel.kernel", fn, (x, 1.0))
        require(v == want, f"traced gap {v!r} != untraced {want!r}")
        out["fredholm.kernel_share.gap"] = (share, "ratio", 1)
        out["fredholm.kernel_calls.gap"] = (rec.calls, "count", 1)
        out["fredholm.kernel_fallbacks.gap"] = (rec.fallbacks, "count", 1)
        out["fredholm.entry_efficiency.gap"] = (GAP_M * (GAP_M + 1) / 2 / rec.entries, "ratio", 1)
    nodes = gauss_legendre(GAP_M, x, 1.0)[0]
    table = Tabulated(nodes, _tabulate(fn, nodes))
    v = timed("fredholm.det_only_ms.m64", "fredholm.gap_probability", 10,
              lambda i: gap_probability(GapQuery(table, (x, 1.0), quad_points=GAP_M)))
    with b.op("layer.fredholm.det_only"):
        require(v == want, f"tabulated-kernel gap {v!r} != {want!r}")
    with b.op("layer.fredholm.tw"):
        shares = []
        for t in (-3.0, -1.8, 0.0):
            v, rec, share = _recorded_gap(b, "limits.airy_kernel", airy_kernel, (t, t + TW_TAIL))
            require(v == tracy_widom_cdf(t), f"traced TW at {t} differs from the untraced value")
            shares.append(share)
        out["fredholm.kernel_share.tw"] = (float(np.median(shares)), "ratio", len(shares))
        out["fredholm.entry_efficiency.tw"] = (TW_M * (TW_M + 1) / 2 / rec.entries, "ratio", 1)

    # empirics
    trials = max(2, round(100 * b.sizes.reps))
    with b.op("layer.empirics.parallel_efficiency"):
        cli_s = lib_s = 0.0
        for n, q, qt in TRIPLES:
            for route in ROUTES:
                t0 = time.perf_counter()
                b.sample_cli("parallel.cli", n, q, qt, route, trials, base)
                t1 = time.perf_counter()
                for t in range(trials):
                    b.call("ensembles.sample_spectrum", (), sample_spectrum, stream(t), n, q, qt, route)
                lib_s += time.perf_counter() - t1
                cli_s += t1 - t0
        # CLI throughput over single-threaded library throughput on the same trials
        out["empirics.parallel_efficiency"] = (lib_s / cli_s, "ratio", 6 * trials)
    pooled = [
        EmpiricalSample.from_values([sample_spectrum(stream(t), 48, 12, 18, r) for t in range(trials)])
        for r in ROUTES
    ]
    timed("empirics.ks_distance_ms", "empirics.ks_distance", 10, lambda i: ks_distance(*pooled))
    scattered = EmpiricalSample.from_values(b.rng("ks_tw").normal(-1.8, 0.9, max(2, round(20 * b.sizes.reps))))
    tw_cdf = lambda arr: np.array([tracy_widom_cdf(float(v)) for v in np.atleast_1d(arr)])  # noqa: E731
    timed("empirics.ks_tw_ms", "empirics.ks_against_cdf", 1, lambda i: ks_against_cdf(scattered, tw_cdf))
    drain(report_ops(b))
    for key in [f"empirics.report_s.{name}" for name in REPORTS] + ["report"]:
        out[key] = (float(np.median(b.times[key])), "s", len(b.times[key]))
    out["report_p50_s"] = out.pop("report")

    # CLI: the library work behind the command line, and a cold interpreter
    argvs = {
        "sample": ("sample", "--n", 48, "--q", 12, "--qtilde", 18, "--route", "wishart", "--trials", 200),
        "angles": ("angles", "--n", 200, "--q", 50, "--qprime", 60, "--trials", 20),
        "gap": ("gap", "--n", 12, "--a", 6, "--b", 3, "--x", repr(x)),
        "tw": ("tw", "--t", "-1.8"),
        "density": DENSITY_ARGV,
        "kernel": KERNEL_ARGV,
    }
    for cmd, argv in argvs.items():
        code, _, err = timed(f"cli.{cmd}_ms", f"cli.{cmd}", 1 if cmd == "gap" else 3, lambda i: run_cli(argv))
        with b.op(f"layer.cli.{cmd}"):
            require(code == 0, f"exit {code}: {err.strip()}")
    cold = [sys.executable, "-m", "jrmt", "tw", "--t", "-1.8"]
    proc = timed("cli.cold_start_ms", "cli.cold_start", 3,
                 lambda i: subprocess.run(cold, env=child_env(), capture_output=True, timeout=120, cwd=ROOT))
    with b.op("layer.cli.cold_start"):
        require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode().strip()}")
    return out
