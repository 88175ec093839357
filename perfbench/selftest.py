"""Smoke self-test of the benchmark (a few minutes):

    python3 perfbench/selftest.py

Runs every workload once in ``--smoke`` mode, untraced with two seeds and
traced with one, and checks that

- each run exits 0 and ends with the result object, all gates passed;
- the metrics are exactly those BENCHMARK.json names for the mode, each a
  finite number with the declared unit and a sample count;
- another seed gives other Monte Carlo streams (and seeded inputs) but the
  same gate outcomes;
- a directory holding only BENCHMARK.json and the benchmark's files makes
  the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)


def expect(ok, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(proc: subprocess.CompletedProcess, trace: int, label: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{label}: failed ops\n{proc.stderr[-3000:]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    detail = next(json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail "))
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    expect(got == set(declared), f"{label}: missing {set(declared) - got}, undeclared {got - set(declared)}")
    for name, unit in declared.items():
        m, d = result["metrics"][name], detail["metrics"][name]
        expect(m["unit"] == unit == d["unit"], f"{label}: {name} unit {m['unit']} != {unit}")
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name}")
        expect(isinstance(d["n"], int) and d["n"] >= 0, f"{label}: {name} without a sample count")
    return detail


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(BENCH["workloads"][0]["name"], 1, 0, cwd=bare)
        expect(proc.returncode != 0, "bare directory: exit 0")
        expect(not proc.stdout.strip(), f"bare directory printed {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)


def main() -> None:
    for w in BENCH["workloads"]:
        name = w["name"]
        runs = [check_run(run(name, s, 0), 0, f"{name} seed {s}") for s in SEEDS]
        expect(runs[0]["streams"] != runs[1]["streams"], f"{name}: seed does not change the streams")
        expect(runs[0]["gates"] == runs[1]["gates"], f"{name}: gate outcomes depend on the seed")
        check_run(run(name, SEEDS[0], 1), 1, f"{name} traced")
        print(f"ok {name}: {sum(c for c, _ in runs[0]['gates'].values())} gated ops per run", flush=True)
    check_bare_directory()
    print("ok bare directory: non-zero exit, no result")


if __name__ == "__main__":
    main()
