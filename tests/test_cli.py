import json

import numpy as np
import pytest

from jrmt.cli import main


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


def test_output_independent_of_worker_count(tmp_path, monkeypatch):
    args = [
        "sample", "--n", "20", "--q", "5", "--qtilde", "8",
        "--route", "projector", "--trials", "6", "--seed", "11",
    ]
    out1 = tmp_path / "w1.csv"
    monkeypatch.setenv("JRMT_THREADS", "1")
    assert main(args + ["--out", str(out1)]) == 0
    out2 = tmp_path / "w4.csv"
    monkeypatch.setenv("JRMT_THREADS", "4")
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
