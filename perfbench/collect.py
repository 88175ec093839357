"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads gap_laws ...] [--trace 1] [--out FILE]

Each run is a fresh process, as the benchmark requires.  For every workload
and metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, the quartile distance as a share of the median, next
to the metric's bound from BENCHMARK.json.  ``--out`` writes the summary and
every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(cmd: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable if a == "python3" else a for a in argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail "))
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    return {"seed": seed, "result": result, "detail": detail, "env": env}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run(bench["command"], workload, seed, bench["run_seconds"], args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        rows = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": runs[0]["result"]["metrics"][name]["unit"], "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{flag}", flush=True)
        summary[workload] = {"metrics": rows, "env": runs[0]["env"], "seeds": args.seeds}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
