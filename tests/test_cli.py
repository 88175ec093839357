import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrmt.cli import build_parser, main

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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["kernel", "--regime", "bulk", "--n", "80", "--a", "40", "--b", "20", "--ugrid=-1:1:3"],
         "9ae533af65266283de90f2408d49df0b4a931c420a16d5772d9dfd6c4c1afcf9"),
        (["kernel", "--regime", "bulk", "--n", "80", "--a", "40", "--b", "20", "--x", "0.1",
          "--ugrid=-1:1:3", "--vgrid=-0.5:0.5:2"],
         "da55c3f04cca30ecf1e32ac7aafddf8a150dee4b425caef335fc85d3935e23d8"),
        (["kernel", "--regime", "soft", "--n", "100", "--a", "50", "--b", "25", "--ugrid=-2:1:4"],
         "a6eaf5e4866d07b267676eb78282db2b3cd6d88dce5fac63689413d5aba3559e"),
        (["kernel", "--regime", "hard", "--n", "100", "--a", "50", "--b", "2", "--ugrid", "1:4:3"],
         "55d66fa6a610f3231842185714a1bfa8b255d857233926eecf0b4c41e5411b91"),
        (["density", "--n", "12", "--a", "6", "--b", "3", "--grid=-0.5:0.5:5"],
         "30d46c56b1abfd23c31b5e3e0dcd37cd8d0cab1f207384fb944f27964bec8337"),
    ],
    ids=["kernel-bulk", "kernel-bulk-x", "kernel-soft", "kernel-hard", "density"],
)
def test_kernel_and_density_stdout_pinned(argv, digest, capsys):
    # the exact bytes of these outputs, config line included, are pinned
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("regime, b", [("soft", "25"), ("hard", "2")])
def test_kernel_rejects_x_at_an_edge(regime, b, capsys):
    # --x sets the bulk centre; an edge fixes its own and must not drop the value
    argv = ["kernel", "--regime", regime, "--n", "100", "--a", "50", "--b", b, "--x", "0.3",
            "--ugrid", "1:2:2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jrmt: ")


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


def test_kernel_soft_with_a_hard_upper_edge_is_a_usage_error(capsys):
    argv = ["kernel", "--regime", "soft", "--n", "266", "--a", "0", "--b", "188", "--ugrid=0:0.65:2"]
    assert main(argv) == 2
    assert "turning point" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "12", "--a", "nan", "--b", "3", "--grid=-0.5:0.5:3"],
        ["gap", "--n", "12", "--a", "nan", "--b", "3", "--x", "0.5"],
        ["gap", "--n", "12", "--a", "6", "--b", "inf", "--x", "0.5"],
        ["tw", "--t", "0", "--tail", "inf"],
        ["kernel", "--regime", "soft", "--n", "100", "--a", "inf", "--b", "25", "--ugrid=-3:1.5:4"],
        ["density", "--n", "12", "--a", "6", "--b", "3", "--grid=-inf:0.5:3"],
        ["kernel", "--regime", "bulk", "--n", "80", "--a", "40", "--b", "20", "--ugrid=nan:1:3"],
        ["kernel", "--regime", "bulk", "--n", "80", "--a", "40", "--b", "20", "--ugrid=-1e308:1e308:3"],
    ],
    ids=["density-a-nan", "gap-a-nan", "gap-b-inf", "tw-tail-inf", "kernel-a-inf", "density-grid-inf",
         "kernel-ugrid-nan", "kernel-ugrid-span-overflows"],
)
def test_nonfinite_parameters_are_usage_errors(argv):
    # rejected before any arithmetic: no NaN output and no numpy warning
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("jrmt: ")
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, resolved",
    [
        (["sample", "--n", "20", "--q", "5", "--qtilde", "8", "--route", "tridiagonal"],
         {"plan", "note"}),
        (["density", "--n", "12", "--a", "6", "--b", "3", "--grid=-0.5:0.5:3"], {"support"}),
        (["kernel", "--regime", "bulk", "--n", "40", "--a", "20", "--b", "10", "--ugrid=-1:1:2"],
         {"vgrid", "x"}),
        (["kernel", "--regime", "bulk", "--n", "40", "--a", "20", "--b", "10", "--x", "0.1",
          "--ugrid=-1:1:2", "--vgrid=0:1:2"], {"vgrid", "x"}),
        (["kernel", "--regime", "soft", "--n", "40", "--a", "20", "--b", "10", "--ugrid=-1:1:2"],
         {"vgrid", "edge", "scale"}),
        (["kernel", "--regime", "hard", "--n", "40", "--a", "20", "--b", "2", "--ugrid=1:2:2"],
         {"vgrid", "scale"}),
        (["gap", "--n", "12", "--a", "6", "--b", "3", "--x", "0.5", "--quad", "16"], set()),
        (["tw", "--t", "0", "--quad", "16"], set()),
        (["angles", "--n", "20", "--q", "4", "--qprime", "5", "--trials", "3"], set()),
    ],
    ids=["sample", "density", "kernel-bulk", "kernel-bulk-x-vgrid", "kernel-soft", "kernel-hard",
         "gap", "tw", "angles"],
)
def test_config_holds_every_set_option_and_the_resolved_keys(argv, resolved, capsys):
    # a new flag must reach the config of every output without a hand-kept list
    given = {k: v for k, v in vars(build_parser().parse_args(argv)).items() if v is not None}
    del given["func"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    config = json.loads(out[1:].split("\n")[0]) if out.startswith("#") else json.loads(out)["config"]
    assert set(config) == set(given) | resolved
    assert all(config[k] == v for k, v in given.items() if k not in resolved)


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "5", "--a", "1", "--b", "1", "--grid=-0.5:0.5:100000000000000000"],
        ["kernel", "--regime", "bulk", "--n", "5", "--a", "1", "--b", "1",
         "--ugrid=-1:1:100000000000000000"],
        ["sample", "--n", "100000000000000000", "--q", "1", "--qtilde", "1"],
    ],
    ids=["density", "kernel", "sample"],
)
def test_a_size_beyond_memory_is_a_usage_error(argv, capsys):
    # 10^17 doubles exceed any address space, so the allocation is refused at once
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


def test_unresolved_gap_is_a_numeric_failure(capsys):
    # at the default 64 nodes the determinant is near 4e20, not a probability
    assert main(["gap", "--n", "400", "--a", "200", "--b", "2", "--x", "-0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jrmt: numeric failure: ")
    assert "--quad" in captured.err
    assert "Traceback" not in captured.err


_real = st.one_of(st.floats(min_value=-40.0, max_value=40.0), st.sampled_from(["nan", "inf", "-inf"]))


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["gap", "tw"]),
    n=st.integers(min_value=-2, max_value=400),
    a=st.one_of(st.integers(min_value=-2, max_value=400), _real),
    b=st.one_of(st.integers(min_value=-2, max_value=400), _real),
    x=st.one_of(st.floats(min_value=-1.5, max_value=1.5), _real),
    t=_real,
    tail=_real,
    quad=st.integers(min_value=-2, max_value=96),
)
def test_gap_and_tw_argv_never_trace_back(command, n, a, b, x, t, tail, quad):
    if command == "gap":
        argv = ["gap", "--n", n, "--a", a, "--b", b, "--x", x, "--quad", quad]
    else:
        argv = ["tw", "--t", t, "--tail", tail, "--quad", quad]
    # "=" keeps a negative value from reading as a flag
    argv = [argv[0]] + [f"{k}={v}" for k, v in zip(argv[1::2], argv[2::2])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        value = json.loads(out.getvalue())["gap" if command == "gap" else "tw_cdf"]
        assert -1e-8 <= value <= 1.0 + 1e-8, (argv, value)


def _grid(lo, hi):
    """lo:hi:count with ends drawn from [lo, hi] or NaN and infinities, in
    sorted order so that most finite grids reach the kernel."""
    ends = st.tuples(*[st.one_of(st.floats(min_value=lo, max_value=hi), _real)] * 2)
    ends = ends.map(lambda e: sorted(e, key=float))
    return st.builds(lambda e, c: f"{e[0]}:{e[1]}:{c}", ends, st.integers(min_value=1, max_value=6))


_param = st.one_of(st.integers(min_value=-2, max_value=400), st.floats(min_value=0.0, max_value=400.0), _real)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["density", "kernel"]),
    regime=st.sampled_from(["bulk", "soft", "hard"]),
    n=st.integers(min_value=-2, max_value=400),
    a=_param,
    b=_param,
    x=st.one_of(st.none(), st.floats(min_value=-1.5, max_value=1.5), _real),
    grid=_grid(-1.2, 1.2),
    ugrid=_grid(-40.0, 40.0),
    vgrid=st.one_of(st.none(), _grid(-40.0, 40.0)),
)
def test_density_and_kernel_argv_never_trace_back(command, regime, n, a, b, x, grid, ugrid, vgrid):
    argv = ["--n", n, "--a", a, "--b", b]
    if command == "density":
        argv += ["--grid", grid]
    else:
        argv += ["--regime", regime, "--ugrid", ugrid]
        # only the bulk takes a centre (an edge with --x is a tested usage error)
        argv += ["--x", x] if regime == "bulk" and x is not None else []
        argv += [] if vgrid is None else ["--vgrid", vgrid]
    # "=" keeps a negative value from reading as a flag
    argv = [command] + [f"{k}={v}" for k, v in zip(argv[::2], argv[1::2])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
