import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrmt.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _read_csv(path):
    meta = None
    rows = []
    header = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta = json.loads(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


def test_sample_shape_and_determinism(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = [
        "sample", "--n", "48", "--q", "12", "--qtilde", "18",
        "--route", "wishart", "--trials", "10", "--seed", "7",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = _read_csv(out1)
    assert rows.shape == (10, 12)
    assert header[0] == "lambda_1"
    assert meta["seed"] == 7 and meta["route"] == "wishart"
    assert (rows >= -1e-10).all() and (rows <= 1 + 1e-10).all()


def test_sample_applies_rank_reduction(tmp_path):
    out = tmp_path / "s.csv"
    assert main(
        ["sample", "--n", "10", "--q", "4", "--qtilde", "8", "--route", "wishart",
         "--trials", "5", "--seed", "1", "--out", str(out)]
    ) == 0
    meta, _, rows = _read_csv(out)
    assert rows.shape == (5, 4)
    assert meta["plan"]["eigen_map"] == "reflect"
    assert meta["plan"]["canonical"] == [2, 4]
    # two unit eigenvalues are forced by the dimension count
    assert (np.abs(rows[:, -2:] - 1.0) < 1e-12).all()


def test_sample_tridiagonal_route(tmp_path):
    out1, out2, out3 = (tmp_path / f"t{i}.csv" for i in range(3))
    args = [
        "sample", "--n", "48", "--q", "12", "--qtilde", "18",
        "--route", "tridiagonal", "--trials", "10", "--seed", "5",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, _, rows = _read_csv(out1)
    assert rows.shape == (10, 12) and meta["route"] == "tridiagonal"
    assert (np.diff(rows, axis=1) >= 0).all()
    assert (rows >= 0.0).all() and (rows <= 1.0).all()
    # the reflected triple goes through reduce_ranks and keeps its forced 1s
    assert main(
        ["sample", "--n", "10", "--q", "4", "--qtilde", "8", "--route", "tridiagonal",
         "--trials", "5", "--seed", "1", "--out", str(out3)]
    ) == 0
    meta, _, rows = _read_csv(out3)
    assert rows.shape == (5, 4) and meta["plan"]["eigen_map"] == "reflect"
    assert (np.abs(rows[:, -2:] - 1.0) < 1e-12).all()
    assert (rows[:, :2] < 1.0).all()


def test_sample_rejects_zero_rank():
    assert main(["sample", "--n", "10", "--q", "0", "--qtilde", "5"]) == 2


def test_density_grid(tmp_path):
    out = tmp_path / "d.csv"
    assert main(
        ["density", "--n", "50", "--a", "25", "--b", "10",
         "--grid=-0.9:0.9:37", "--out", str(out)]
    ) == 0
    meta, header, rows = _read_csv(out)
    assert rows.shape == (37, 3)
    assert header == ["x", "finite_n_density", "limit_f"]
    # the limit column carries most of the unit mass (the grid clips the
    # square-root tails outside [-0.9, 0.9])
    xs, limit = rows[:, 0], rows[:, 2]
    mass = float((0.5 * (limit[1:] + limit[:-1])) @ np.diff(xs))
    assert 0.85 < mass <= 1.0


def test_density_malformed_grid():
    assert main(["density", "--n", "10", "--a", "1", "--b", "1", "--grid", "0.5:0.1"]) == 2
    assert main(["density", "--n", "10", "--a", "1", "--b", "1", "--grid=-2:2:10"]) == 2


def test_kernel_bulk_shape_and_symmetry(tmp_path):
    out = tmp_path / "k.csv"
    assert main(
        ["kernel", "--regime", "bulk", "--n", "80", "--a", "40", "--b", "20",
         "--ugrid=-1:1:3", "--out", str(out)]
    ) == 0
    _, header, rows = _read_csv(out)
    assert header == ["u", "v", "rescaled_kernel", "limit_kernel"]
    assert rows.shape == (9, 4)
    table = {(round(r[0], 6), round(r[1], 6)): r[2] for r in rows}
    for (u, v), val in table.items():
        assert val == pytest.approx(table[(v, u)], abs=1e-10)


def test_kernel_hard_requires_integer_b():
    assert main(
        ["kernel", "--regime", "hard", "--n", "50", "--a", "25", "--b", "1.5",
         "--ugrid", "1:4:3"]
    ) == 2


def test_kernel_soft_runs(tmp_path):
    out = tmp_path / "ks.csv"
    assert main(
        ["kernel", "--regime", "soft", "--n", "100", "--a", "50", "--b", "25",
         "--ugrid=-2:1:4", "--out", str(out)]
    ) == 0
    meta, _, rows = _read_csv(out)
    assert rows.shape == (16, 4)
    assert meta["scale"] > 0


def test_gap_json(tmp_path, capsys):
    assert main(["gap", "--n", "12", "--a", "6", "--b", "3", "--x", "0.95", "--quad", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["gap"] <= 1.0
    assert payload["config"]["n"] == 12


def test_tw_tail(capsys):
    assert main(["tw", "--t", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tw_cdf"] > 0.9999


def test_angles_output(capsys):
    assert main(
        ["angles", "--n", "60", "--q", "15", "--qprime", "18", "--trials", "40", "--seed", "3"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["max_cos2"]
    assert 0.0 < stats["min"] <= stats["mean"] <= stats["max"] <= 1.0
    assert 0.0 < payload["predicted_cos2"] < 1.0


def test_angles_rejects_bad_ranks():
    assert main(["angles", "--n", "10", "--q", "11", "--qprime", "2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--seed", "-1"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--trials", "-2"],
        ["angles", "--n", "200", "--q", "50", "--qprime", "60", "--trials", "0"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--out", "{missing}/s.csv"],
        ["gap", "--n", "12", "--a", "6", "--b", "3", "--x", "0.9", "--quad", "100000"],
        ["tw", "--t", "0", "--quad", "2049"],
    ],
)
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "no-such-dir") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jrmt: ")
    assert "Traceback" not in captured.err


def test_usage_error_exit_code():
    assert main(["sample", "--n", "10"]) == 2  # missing required flags


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "800", "--q", "200", "--qtilde", "200", "--route", "wishart",
         "--trials", "3", "--seed", "4"],
        ["angles", "--n", "200", "--q", "50", "--qprime", "60", "--trials", "50", "--seed", "3"],
    ],
    ids=["sample", "angles"],
)
def test_output_independent_of_blas_threads(argv):
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "jrmt", *argv], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


_small = st.integers(min_value=-2, max_value=12)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["sample", "angles"]),
    n=_small,
    q=_small,
    other=_small,
    trials=st.integers(min_value=-1, max_value=3),
    seed=st.integers(min_value=-1, max_value=3),
    route=st.sampled_from(["projector", "wishart", "tridiagonal"]),
)
def test_sample_and_angles_argv_never_trace_back(command, n, q, other, trials, seed, route):
    argv = [command, "--n", n, "--q", q, "--trials", trials, "--seed", seed]
    if command == "sample":
        argv += ["--qtilde", other, "--route", route]
    else:
        argv += ["--qprime", other]
    # an exception escaping main() fails the test by itself
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
