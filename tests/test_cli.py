import argparse
import contextlib
import hashlib
import io
import json
import math
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
from jrmt.empirics import EmpiricalSample, ks_distance
from jrmt.ensembles import sample_largest
from jrmt.matalg import principal_cosines
from jrmt.randgen import SeededStream, random_isometry

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
         "fbcf3e47aa491846f8e3025c84017da44df9056e481082920050328ba6b59679"),
        (["kernel", "--regime", "bulk", "--n", "80", "--a", "40", "--b", "20", "--x", "0.1",
          "--ugrid=-1:1:3", "--vgrid=-0.5:0.5:2"],
         "ed75cb46707a2ac090840ec7fd054823f9f73249ee3bf3c4544b30ce0db8d396"),
        (["kernel", "--regime", "soft", "--n", "100", "--a", "50", "--b", "25", "--ugrid=-2:1:4"],
         "db82a9152429507f463053295dcab9b36961a5f42c203769c9dd22d0941e41fe"),
        (["kernel", "--regime", "hard", "--n", "100", "--a", "50", "--b", "2", "--ugrid", "1:4:3"],
         "0ae35283252b5f3c379a770055fdee2fd9df886fd790346e7c66cfe6eb429396"),
        (["density", "--n", "12", "--a", "6", "--b", "3", "--grid=-0.5:0.5:5"],
         "8fb987a24be327b3287838bf6bb9eed4346c9a7914ce7a0837668f0b3165aaa3"),
    ],
    ids=["kernel-bulk", "kernel-bulk-x", "kernel-soft", "kernel-hard", "density"],
)
def test_kernel_and_density_stdout_pinned(argv, digest, capsys):
    # the exact bytes of these outputs, config line included, are pinned
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--n 48 --q 12 --qtilde 18 --route wishart --trials 20 --seed 7",
         "15497a21bf4f9da2def36aa2c859dc9525de787bf76ea5f93fd05eba9a0bc261"),
        ("--n 10 --q 4 --qtilde 8 --route wishart --trials 5 --seed 1",
         "afe9e3baa681e7039437237501bb5565b457ea94f5c8af29b9292cd96807d93f"),
        ("--n 48 --q 12 --qtilde 18 --route tridiagonal --trials 20 --seed 7",
         "406aa9386fee567c756868a5dfc72ccd78aa2b18c927599e131feb1061da112f"),
        ("--n 48 --q 12 --qtilde 18 --route projector --trials 20 --seed 7",
         "8e730d4208a1ce203f3a7c0b65444753e5a2f93b3833fc8504f8ad35641cc953"),
    ],
    ids=["wishart", "wishart-reflected", "tridiagonal", "projector"],
)
def test_sample_stdout_pinned(argv, digest, capsys):
    # the exact bytes of `jrmt sample`, config line included, are pinned
    assert main(["sample", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_angles_stdout_pinned(capsys):
    argv = ["angles", "--n", "200", "--q", "50", "--qprime", "60", "--trials", "50", "--seed", "3"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3fa7dd73ae70a62001c4662ac73a4ef07f4256bb0520b38b69b398a06d68d985"


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


def test_angles_prints_the_free_law_edge_itself(capsys):
    # at ratios (0.1, 0.2) the top edge r+ is exactly 1/2; cos(acos(sqrt(r+)))**2
    # would print 0.5000000000000001
    assert main(["angles", "--n", "10", "--q", "1", "--qprime", "2", "--trials", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicted_cos2"] == 0.5


def test_angles_is_symmetric_in_the_two_ranks(capsys):
    payloads = []
    for q, qp in [("50", "60"), ("60", "50")]:
        assert main(["angles", "--n", "200", "--q", q, "--qprime", qp, "--trials", "30"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    for key in ("max_cos2", "predicted_cos2"):
        assert json.dumps(payloads[0][key]) == json.dumps(payloads[1][key])


@pytest.mark.parametrize("n, q, qp", [(200, 50, 60), (60, 15, 18)])
def test_angles_draws_match_the_geometric_principal_angles_in_law(n, q, qp, capsys):
    # the CLI's per-trial draw is the top eigenvalue of the compressed projector
    # block; the geometric route takes the largest principal cosine of two Haar
    # subspaces.  Same law: a two-sample KS below its p = 1e-6 bound.
    trials, seed = 400, 41
    argv = ["angles", "--n", n, "--q", q, "--qprime", qp, "--trials", trials, "--seed", seed]
    assert main([str(a) for a in argv]) == 0
    stats = json.loads(capsys.readouterr().out)["max_cos2"]
    tops = np.array([sample_largest(SeededStream(seed, t), n, q, qp) for t in range(trials)])
    assert (stats["min"], stats["max"], stats["mean"]) == (tops.min(), tops.max(), tops.mean())
    geometric = [
        principal_cosines(
            random_isometry(SeededStream(42, 2 * t), n, q),
            random_isometry(SeededStream(42, 2 * t + 1), n, qp),
        )[0] ** 2
        for t in range(trials)
    ]
    d = ks_distance(EmpiricalSample.from_values(tops), EmpiricalSample.from_values(geometric))
    assert d < math.sqrt(math.log(2 / 1e-6) / 2) * math.sqrt(2 / trials)


def test_kernel_soft_with_a_hard_upper_edge_is_a_usage_error(capsys):
    argv = ["kernel", "--regime", "soft", "--n", "266", "--a", "0", "--b", "188", "--ugrid=0:0.65:2"]
    assert main(argv) == 2
    assert "turning point" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernel", "--regime", "soft", "--n", "100", "--a", "50", "--b", "25", "--ugrid=-3:40:4"],
         "jrmt: u=11.333333333333334 outside the soft window (-252.621, 8.64431) that maps into (-1, 1)\n"),
        (["kernel", "--regime", "hard", "--n", "100", "--a", "50", "--b", "2", "--ugrid=1:2:2",
          "--vgrid=0:1:2"],
         "jrmt: v=0.0 outside the hard window (0, 60000) that maps into (-1, 1)\n"),
    ],
    ids=["soft-u", "hard-v"],
)
def test_kernel_names_the_grid_value_outside_its_window(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_kernel_names_an_offset_inside_its_window_that_rounds_out(capsys):
    # u = 1 lies inside (0, 4e22), but -1 + u/h rounds to -1 at h = 2e22
    argv = ["kernel", "--regime", "hard", "--n", "100", "--a", "1e20", "--b", "1", "--ugrid=1:2:2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jrmt: u=1.0 is inside the hard window (0, 4e+22), but its abscissa "
        "-1 + u/2e+22 rounds to -1, outside (-1, 1)\n"
    )


def test_angles_rejects_bad_ranks():
    assert main(["angles", "--n", "10", "--q", "11", "--qprime", "2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--seed", "-1"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--trials", "-2"],
        ["angles", "--n", "200", "--q", "50", "--qprime", "60", "--trials", "0"],
        ["angles", "--n", "10", "--q", "0", "--qprime", "2"],
        ["angles", "--n", "10", "--q", "11", "--qprime", "2"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--out", "{missing}/s.csv"],
        ["gap", "--n", "12", "--a", "6", "--b", "3", "--x", "0.9", "--quad", "100000"],
        ["tw", "--t", "0", "--quad", "2049"],
        ["tw", "--t", "0", "--out", "{dir}"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--out", "{dir}"],
        # a name longer than the file system allows fails at the rename
        ["tw", "--t", "0", "--out", "{dir}/" + "x" * 300 + ".json"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--out", "{dir}/" + "x" * 300 + ".json"],
        # the kernel resolves missing/.. only if missing exists
        ["tw", "--t", "0", "--out", "{missing}/../o.json"],
        ["sample", "--n", "48", "--q", "12", "--qtilde", "18", "--out", "{missing}/../o.json"],
    ],
)
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "no-such-dir", dir=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jrmt: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # the CLI names its ranks --qtilde and --qprime, not the library's field
    assert "q_tilde" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "20", "--q", "5", "--qtilde", "8", "--trials", "2"],
        ["density", "--n", "12", "--a", "6", "--b", "3", "--grid=-0.5:0.5:3"],
        ["kernel", "--regime", "bulk", "--n", "40", "--a", "20", "--b", "10", "--ugrid=-1:1:2"],
        ["gap", "--n", "12", "--a", "6", "--b", "3", "--x", "0.5", "--quad", "16"],
        ["tw", "--t", "0", "--quad", "16"],
        ["angles", "--n", "20", "--q", "4", "--qprime", "5", "--trials", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_holds_the_bytes_of_stdout(argv, tmp_path, capsys):
    out = tmp_path / "o.txt"
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    assert list(tmp_path.iterdir()) == [out]


def test_each_subcommand_keeps_its_options():
    # declaring shared options once must neither drop nor add one
    expected = {
        "sample": ["--n", "--q", "--qtilde", "--route", "--trials", "--seed", "--out"],
        "density": ["--n", "--a", "--b", "--grid", "--out"],
        "kernel": ["--regime", "--n", "--a", "--b", "--x", "--ugrid", "--vgrid", "--out"],
        "gap": ["--n", "--a", "--b", "--x", "--quad", "--out"],
        "tw": ["--t", "--quad", "--tail", "--out"],
        "angles": ["--n", "--q", "--qprime", "--trials", "--seed", "--out"],
    }
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: sorted(s for a in p._actions for s in a.option_strings) for name, p in sub.choices.items()
    }
    assert accepted == {name: sorted(opts + ["-h", "--help"]) for name, opts in expected.items()}


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
        (["angles", "--n", "20", "--q", "4", "--qprime", "5", "--trials", "3"], {"note"}),
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


def test_main_calls_share_one_parser_and_keep_their_output(monkeypatch, capsys):
    # the parser is built once per process: no call, a usage error
    # included, may leave anything in it that changes what a later call prints
    kernel = ["kernel", "--regime", "bulk", "--n", "20", "--a", "10", "--b", "5", "--ugrid=-1:1:3"]
    argvs = [
        kernel + ["--x", "0.1"],
        kernel,
        ["sample", "--n", "10"],
        ["tw", "--t", "-1.5", "--tail", "10"],
        ["tw", "--t", "-1.5"],
        ["angles", "--n", "40", "--q", "5", "--qprime", "8", "--trials", "3"],
    ]
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args", lambda self, *a: parsers.append(self) or parse_args(self, *a)
    )

    def run(argv):
        code = main(argv)
        return code, *capsys.readouterr()

    build_parser.cache_clear()
    first = [run(argv) for argv in argvs]
    assert first == [run(argv) for argv in argvs]
    assert [code for code, *_ in first] == [0, 0, 2, 0, 0, 0]
    assert len(parsers) == 2 * len(argvs) and all(p is parsers[0] for p in parsers)


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


_SPECIAL, _LAPACK = ["scipy.special._special_ufuncs"], ["scipy.linalg._flapack"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, []),
        (["tw", "--t", "0", "--quad", "16"], _SPECIAL),
        (["gap", "--n", "12", "--a", "6", "--b", "3", "--x", "0.5", "--quad", "16"], []),
        (["density", "--n", "12", "--a", "6", "--b", "3", "--grid=-0.5:0.5:3"], []),
        (["kernel", "--regime", "hard", "--n", "40", "--a", "20", "--b", "2", "--ugrid=1:2:2"], _SPECIAL),
        (["sample", "--n", "20", "--q", "5", "--qtilde", "8", "--route", "wishart", "--trials", "2"], _LAPACK),
        (["sample", "--n", "20", "--q", "5", "--qtilde", "8", "--route", "tridiagonal", "--trials", "2"],
         _LAPACK),
        (["sample", "--n", "20", "--q", "5", "--qtilde", "8", "--route", "projector", "--trials", "2"], _LAPACK),
        (["angles", "--n", "20", "--q", "4", "--qprime", "5", "--trials", "3"], _LAPACK),
    ],
    ids=["import", "tw", "gap", "density", "kernel", "sample-wishart", "sample-tridiagonal", "sample-projector",
         "angles"],
)
def test_each_entry_point_loads_only_the_scipy_submodule_it_uses(argv, loaded):
    # a fresh process: no entry point loads the scipy package, scipy.special
    # or scipy.linalg; importing jrmt and the finite-n kernel load no scipy
    # module, the limit kernels the compiled special functions alone, and
    # every draw (the projector route through its BLAS hold) LAPACK alone
    script = "import contextlib, io, json, sys\nimport jrmt\n"
    if argv is not None:
        script += (
            "from jrmt.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
        )
    script += "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == loaded


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


def test_gap_never_prints_a_negative_probability(capsys):
    # the 64-node determinant here is -4.2e-13, inside the -1e-8 tolerance;
    # the true value is 2.78e-16
    assert main(["gap", "--n", "12", "--a", "0.5", "--b", "3", "--x", "0.6"]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["gap"] <= 2.78e-16


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "3", "--a", "3e305", "--b", "0", "--grid=-0.5:0.5:3"],
        ["density", "--n", "3", "--a", "0", "--b", "1e308", "--grid=-0.5:0.5:3"],
        ["gap", "--n", "3", "--a", "1e308", "--b", "0", "--x", "0.5"],
        ["gap", "--n", "3", "--a", "1e20", "--b", "0", "--x", "0.5"],
        ["density", "--n", "3", "--a", "1e20", "--b", "0", "--grid=-0.5:0.5:3"],
        ["density", "--n", "3", "--a", "2e305", "--b", "0", "--grid=-0.5:0.5:3"],
        ["density", "--n", "3", "--a", "1e308", "--b", "1e308", "--grid=-0.5:0.5:3"],
    ],
    ids=[
        "density-a-3e305",
        "density-b-1e308",
        "gap-a-1e308",
        "gap-a-1e20",
        "density-a-1e20",
        "density-a-2e305",
        "density-sum-overflows",
    ],
)
def test_huge_finite_parameters_are_numeric_failures(argv, capsys):
    # finite, so past the parameter checks, but the parameter sum a + b of
    # the norm table overflows, or the recurrence coefficients do, or the
    # log-scales of the finite-n kernel leave the range of _split's integer
    # exponents; the finite-n density fails before the regime check, whose
    # A + B rounds to 1 at such ratios
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jrmt: numeric failure: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "1", "--a", "1e17", "--b", "1", "--grid=-0.5:0.5:3"],
        ["kernel", "--regime", "bulk", "--n", "1", "--a", "1e17", "--b", "1", "--ugrid=0:1:2"],
    ],
    ids=["density", "kernel-bulk"],
)
def test_a_profile_factor_that_rounds_below_zero_is_no_traceback(argv, capsys):
    # at a/n = 1e17 and b/n = 1 the factor 1 - A - B of the edge profile
    # rounds below 0; it is clamped, and the regime checks report the case
    assert main(argv) in (2, 3)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jrmt: ")
    assert "Traceback" not in captured.err


def test_an_overflowed_chi_numerator_is_a_numeric_failure(capsys):
    # c1^2 of chi's numerator overflows at a ~ 1e77, but its discriminant,
    # formed without it, stays finite; the soft edge, about 4n/a above -1,
    # rounds to -1, and that is no soft edge outside (-1, 1)
    argv = ["kernel", "--regime", "soft", "--n", "400", "--a", "1e80", "--b", "3", "--ugrid=0:1:2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("jrmt: numeric failure: the soft edge rounds to -1")
    assert "Traceback" not in captured.err


def test_an_overflowed_chi_discriminant_is_a_numeric_failure(capsys):
    argv = ["kernel", "--regime", "soft", "--n", "400", "--a", "1e160", "--b", "3", "--ugrid=0:1:2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("jrmt: numeric failure: chi's discriminant overflows")
    assert "Traceback" not in captured.err


def test_kernel_soft_finds_the_edge_at_a_far_above_n(tmp_path):
    # c1^2 - 4 c2 c0 cancels to below 0 here; the discriminant in closed form
    # has two real zeros, and the edge sits 3.2e-9 above -1
    out = tmp_path / "k.csv"
    argv = ["kernel", "--regime", "soft", "--n", "400", "--a", "1e12", "--b", "3", "--ugrid=-1:1:3"]
    assert main(argv + ["--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert -1.0 < meta["edge"] < -0.999999996 and meta["scale"] > 0
    assert np.isfinite(rows).all()


def test_an_overflowed_hard_edge_scale_is_a_numeric_failure(capsys):
    # 2 n^2 (1 + a/n) overflows to inf; it is no window (nan, inf) of a usage error
    argv = ["kernel", "--regime", "hard", "--n", "3", "--a", "1e308", "--b", "1", "--ugrid=1:2:2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jrmt: numeric failure: the hard-edge scale overflows for n=3, a=1e+308\n"


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
