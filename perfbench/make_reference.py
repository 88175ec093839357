"""Write reference.json: the anchor inputs of gap_laws and their values.

The table was recorded at the commit that introduced the benchmark; the
benchmark compares later commits against it.  Rerun only when a change
is meant to alter these numbers, and say so in the change:

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from jrmt import largest_eval_cdf, run_experiment, tracy_widom_cdf  # noqa: E402


def main() -> None:
    table = {
        "gap_small": [[x, largest_eval_cdf(w.SPEC_SMALL, x)] for x in w.small_anchors()],
        "gap_large": [[x, largest_eval_cdf(w.SPEC_LARGE, x)] for x in [w.large_anchor()]],
        "tw": [[t, tracy_widom_cdf(t)] for t in w.TW_ANCHORS],
        # the cdf on [-6, 4], from which gap_laws spaces its t-grid in probability
        "tw_table": [[t, tracy_widom_cdf(t)] for t in np.linspace(-6.0, 4.0, 201).tolist()],
        "reports": {name: list(run_experiment(spec).errors) for name, spec in w.REPORTS.items()},
    }
    for key, argv in (("density", w.DENSITY_ARGV), ("kernel", w.KERNEL_ARGV)):
        code, out, err = w.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{key}: exit {code}: {err}")
        table[key] = np.asarray(w.parse_csv(out)).tolist()
    with open(w.HERE / "reference.json", "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
