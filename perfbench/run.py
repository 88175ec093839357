"""jrmt benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload gap_laws --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures set-up time in fresh child processes,
then repeats the workload's fixed op list (a pass) until the passes have
taken ``--seconds`` of wall time, and reports the end-to-end metrics:
set-up time, CPU time per pass and peak memory.  With ``--trace 1``
it runs the first pass (two for ``edge_law``) untraced, one group of each op
family the workload's list lacks, then the first pass again traced, and the
layer probes traced.  It reports the family throughputs and latencies (from the untraced calls),
the per-layer metrics, the tracing overhead and a bitwise check that traced
determinants equal untraced ones; spans go to ``perfbench/out/``.
``--smoke`` shrinks every size for the self-test.

The package is imported from ``src/`` of the checkout.  The environment is
passed through untouched: thread defaults (``JRMT_THREADS``, BLAS) are part
of what is measured.  The last line of stdout is the result object; the
lines before it, prefixed '# ', carry the environment, every metric with
its unit and sample count, the probe outcomes and any failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("bench", "cli", "randgen", "matalg", "ensembles", "orthopoly", "cdkernel", "limits", "fredholm", "empirics")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["spectra_mc", "gap_laws", "edge_law"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="shrunken sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    from jrmt.empirics import worker_count

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "JRMT_THREADS": os.environ.get("JRMT_THREADS"),
        "worker_count": worker_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def metric(value, unit: str, n: int, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def run_e2e(w, b, args) -> dict:
    import workloads as wl

    setup = []
    for _ in range(b.sizes.setup_repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)] + ["--smoke"] * args.smoke
        with b.op("setup"):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=wl.child_env(), cwd=ROOT, capture_output=True, timeout=170)
            setup.append(time.perf_counter() - t0)
            wl.require(proc.returncode == 0, f"set-up exit {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    # CPU time excludes the time the host takes the virtual CPUs away (steal),
    # which on a shared machine moves wall time per pass by a quarter or more
    passes, cpu = [], []
    while len(passes) < w.min_passes or sum(passes) < args.seconds:
        t0, c0 = time.perf_counter(), time.process_time()
        wl.drain(w.run_pass(b, len(passes)))
        passes.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
    w.finish(b)
    print(f"# passes {len(passes)}: median wall {statistics.median(passes)!r} s, cpu {statistics.median(cpu)!r} s")
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "cpu_s": metric(statistics.median(cpu), "s", len(cpu)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def family_metrics(b, tail_n: int) -> dict:
    """Throughputs and latencies of the op families, from untraced calls."""
    import numpy as np

    t = b.times
    med = lambda fam, scale=1.0: float(np.median(t[fam])) * scale  # noqa: E731
    # work items per second: the median over calls, or over groups of unlike calls
    rate = lambda fam: metric(float(np.median(np.divide(b.units[fam], t[fam]))), "1/s", len(t[fam]))  # noqa: E731
    pct = tail_percentile(tail_n)
    return {
        "spectra_per_s": metric(med("spectra.rate"), "1/s", len(t["spectra.rate"])),
        "angle_trials_per_s": rate("angles"),
        "top_draws_per_s": rate("top"),
        "tw_p50_ms": metric(med("tw", 1e3), "ms", len(t["tw"])),
        "tw_tail_ms": metric(float(np.percentile(t["tw"], pct)) * 1e3, "ms", len(t["tw"]), percentile=pct),
        "gap_small_p50_ms": metric(med("gap_small", 1e3), "ms", len(t["gap_small"])),
    }


def run_traced(w, b, args) -> dict:
    import workloads as wl

    t0 = time.perf_counter()
    wl.drain(w.run_pass(b, 0))
    plain_s = time.perf_counter() - t0
    plain = dict(b.values)
    for k in range(1, w.min_passes):
        wl.drain(w.run_pass(b, k))
    tail_n = len(b.times["tw"])
    wl.drain(wl.reference_ops(b, w))
    out = family_metrics(b, tail_n if "tw" in w.home else b.sizes.ref["tw_grid"])

    b.values = {}
    b.tracer.enabled = True
    t0 = time.perf_counter()
    wl.drain(w.run_pass(b, 0))
    traced_s = time.perf_counter() - t0
    with b.op("trace.equal"):
        wl.require(plain.keys() == b.values.keys(), "traced pass evaluated other inputs")
        differ = [k for k, v in plain.items() if v.hex() != b.values[k].hex()]
        wl.require(not differ, f"traced values differ from untraced ones at {differ[:5]}")
    out |= {name: metric(v, unit, n) for name, (v, unit, n) in wl.layer_ops(b).items()}
    b.tracer.enabled = False
    w.finish(b)

    self_s = b.tracer.self_times()
    for layer in LAYERS:
        out[f"self_s.{layer}"] = metric(self_s.get(layer, 0.0), "s", len(b.tracer.spans))
    out["wall_s.untraced_pass"] = metric(plain_s, "s", 1)
    out["trace.overhead_s"] = metric(traced_s - plain_s, "s", 1)
    out["trace.overhead_share"] = metric((traced_s - plain_s) / plain_s, "ratio", 1)
    out["trace.values_compared"] = metric(len(plain), "count", 1)
    violations = sum(not ok for _, _, ok in b.probes)
    out["cli.contract_violations"] = metric(violations, "count", len(b.probes))
    out["error_rate"] = metric(
        (b.failed + violations) / (b.attempted + len(b.probes)), "ratio", b.attempted + len(b.probes)
    )
    (HERE / "out").mkdir(exist_ok=True)
    b.tracer.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jrmt" / "__init__.py").is_file():
        print(f"perfbench: no jrmt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from spans import Tracer

    w = wl.WORKLOADS[args.workload]
    b = wl.Bench(args.seed, wl.SMOKE if args.smoke else wl.FULL, Tracer(False))
    w.setup(b)
    if args.setup_only:
        return 0

    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    metrics = (run_traced if args.trace else run_e2e)(w, b, args)
    for argv_text, outcome, ok in b.probes:
        print(f"# probe {argv_text!r}: {outcome}" + ("" if ok else " (contract violation: documented exit 2)"))
    for name, detail in b.failures:
        print(f"perfbench: op {name} failed: {detail}", file=sys.stderr)
    print(f"# gates {b.attempted - b.failed}/{b.attempted} passed; streams {b.streams}")
    for name, m in metrics.items():
        extra = f" p{m['percentile']}" if "percentile" in m else ""
        print(f"# metric {name} = {m['value']!r} {m['unit']} (n={m['n']}{extra})")
    gates: dict[str, list[int]] = {}
    for name, ok in b.gates:
        gates.setdefault(name, [0, 0])[0 if ok else 1] += 1
    print("# detail " + json.dumps({"metrics": metrics, "gates": gates, "streams": b.streams}))
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
