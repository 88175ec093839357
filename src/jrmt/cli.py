"""Command-line front end: sampling, densities, kernels, gaps, angles.

Scalar results are emitted as JSON, grids and spectra as CSV.  Every output
embeds the fully resolved configuration: JSON outputs carry a ``config``
field, CSV outputs start with '# ...' metadata lines followed by the column
header.  Floats are serialized with 17 significant digits; files are written
atomically (temp file, then rename).  Exit codes: 0 success, 2 bad usage or
parameters, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .cdkernel import KernelSpec, finite_profile, local_scaling, one_point_density, rescaled
from .ensembles import reduce_ranks, sample_spectrum
from .errors import JrmtError, NumericError, ParameterError
from .fredholm import largest_eval_cdf, tracy_widom_cdf
from .limits import banach_angle, limit_density
from .matalg import one_blas_thread, principal_cosines
from .randgen import SeededStream, random_isometry

USAGE_EXIT = 2
NUMERIC_EXIT = 3
MAX_QUAD = 2048  # the Nystrom matrix is quad x quad: quad^2 kernel entries, an O(quad^3) det
# config keys of `jrmt kernel` that report the (centre, scale) of its regime
_SCALING_KEYS = {"bulk": ("x", None), "soft": ("edge", "scale"), "hard": (None, "scale")}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _csv_text(config: dict, header: list[str], rows: list[list[float]]) -> str:
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(config: dict, result: dict) -> str:
    return json.dumps({"config": config, **result}, sort_keys=True) + "\n"


def _parse_grid(text: str, what: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ParameterError(f"malformed {what} {text!r}; expected lo:hi:count")
    # a finite span keeps every grid point finite; NaN fails lo <= hi
    if count < 1 or not lo <= hi or not math.isfinite(hi - lo):
        raise ParameterError(f"bad {what} {text!r}")
    return np.linspace(lo, hi, count)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ParameterError(f"--trials must be >= 1, got {trials}")


def _check_quad(quad: int) -> None:
    if quad > MAX_QUAD:
        raise ParameterError(f"--quad must be <= {MAX_QUAD}, got {quad}")


def _check_out(path: str | None) -> None:
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ParameterError(f"--out directory does not exist: {path}")


def _config(args, **resolved) -> dict:
    """Every parsed option that is set, bar ``func`` and ``out``, plus the resolved entries."""
    given = {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}
    return {**given, **resolved}


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> None:
    _check_trials(args.trials)
    plan = reduce_ranks(args.n, args.q, args.qtilde)
    config = _config(
        args,
        plan={
            "canonical": None
            if plan.canonical is None
            else [plan.canonical.q, plan.canonical.q_tilde],
            "eigen_map": plan.eigen_map,
            "kept": plan.kept_count,
            "ones": plan.ones,
            "zeros": plan.zeros,
        },
        note="eigenvalues of the compressed q x q block, ascending, support [0, 1]",
    )

    def one_trial(t: int) -> np.ndarray:
        stream = SeededStream(args.seed, t)
        if plan.canonical is None:
            vals = np.empty(0)
        else:
            vals = sample_spectrum(
                stream, args.n, plan.canonical.q, plan.canonical.q_tilde, route=args.route
            )
        return plan.apply(vals)

    with one_blas_thread():
        rows = [one_trial(t) for t in range(args.trials)]
    header = [f"lambda_{i+1}" for i in range(args.q)]
    _emit(args.out, _csv_text(config, header, [list(r) for r in rows]))


def cmd_density(args) -> None:
    xs = _parse_grid(args.grid, "--grid")
    if xs[0] <= -1.0 or xs[-1] >= 1.0:
        raise ParameterError("--grid must lie strictly inside (-1, 1)")
    spec = KernelSpec(args.n, args.a, args.b)
    prof = finite_profile(spec)
    config = _config(args, support=[prof.r, prof.s])
    rows = np.column_stack([xs, one_point_density(spec, xs), limit_density(prof, xs)])
    _emit(args.out, _csv_text(config, ["x", "finite_n_density", "limit_f"], rows))


def cmd_kernel(args) -> None:
    us = _parse_grid(args.ugrid, "--ugrid")
    vs = _parse_grid(args.vgrid, "--vgrid") if args.vgrid else us
    spec = KernelSpec(args.n, args.a, args.b)
    centre, scale, limit = local_scaling(spec, args.regime, args.x)
    scaling = {k: val for k, val in zip(_SCALING_KEYS[args.regime], (centre, scale)) if k}
    config = _config(args, vgrid=args.vgrid or args.ugrid, **scaling)
    u, v = us[:, None], vs[None, :]
    values = rescaled(spec, args.regime, u, v, args.x), limit(u, v)
    rows = np.column_stack([g.ravel() for g in np.broadcast_arrays(u, v, *values)])
    _emit(args.out, _csv_text(config, ["u", "v", "rescaled_kernel", "limit_kernel"], rows))


def cmd_gap(args) -> None:
    _check_quad(args.quad)
    spec = KernelSpec(args.n, args.a, args.b)
    value = largest_eval_cdf(spec, args.x, m=args.quad)
    _emit(args.out, _json_text(_config(args), {"gap": value}))


def cmd_tw(args) -> None:
    _check_quad(args.quad)
    value = tracy_widom_cdf(args.t, m=args.quad, tail=args.tail)
    _emit(args.out, _json_text(_config(args), {"tw_cdf": value}))


def cmd_angles(args) -> None:
    _check_trials(args.trials)
    if not (1 <= args.q <= args.n and 1 <= args.qprime <= args.n):
        raise ParameterError("need 1 <= q, qprime <= n")
    alpha = args.q / args.n
    beta = args.qprime / args.n
    theta = banach_angle(alpha, beta)
    predicted = math.cos(theta) ** 2

    def one_trial(t: int) -> float:
        b1 = random_isometry(SeededStream(args.seed, 2 * t), args.n, args.q)
        b2 = random_isometry(SeededStream(args.seed, 2 * t + 1), args.n, args.qprime)
        return float(principal_cosines(b1, b2)[0] ** 2)

    with one_blas_thread():
        cos2 = np.array([one_trial(t) for t in range(args.trials)])
    result = {
        "predicted_cos2": predicted,
        "predicted_angle": theta,
        "max_cos2": {
            "mean": float(cos2.mean()),
            "min": float(cos2.min()),
            "max": float(cos2.max()),
            "std": float(cos2.std()),
        },
    }
    _emit(args.out, _json_text(_config(args), result))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jrmt", description=__doc__)
    p.add_argument("--version", action="version", version=f"jrmt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="draw ensemble spectra (CSV, one row per trial)")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--qtilde", type=int, required=True)
    ps.add_argument("--route", choices=["projector", "wishart", "tridiagonal"], default="projector")
    ps.add_argument("--trials", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sample)

    pd = sub.add_parser("density", help="finite-n and limiting spectral density on a grid")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--a", type=float, required=True)
    pd.add_argument("--b", type=float, required=True)
    pd.add_argument("--grid", required=True, help="lo:hi:count inside (-1,1)")
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=cmd_density)

    pk = sub.add_parser("kernel", help="rescaled kernel vs its limit on a (u,v) grid")
    pk.add_argument("--regime", choices=["bulk", "soft", "hard"], required=True)
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--a", type=float, required=True)
    pk.add_argument("--b", type=float, required=True)
    pk.add_argument("--x", type=float, default=None, help="bulk center (default: band midpoint)")
    pk.add_argument("--ugrid", required=True, help="lo:hi:count")
    pk.add_argument("--vgrid", default=None, help="lo:hi:count (default: same as --ugrid)")
    pk.add_argument("--out", default=None)
    pk.set_defaults(func=cmd_kernel)

    pg = sub.add_parser("gap", help="P(largest point <= x) via a Fredholm determinant")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--a", type=float, required=True)
    pg.add_argument("--b", type=float, required=True)
    pg.add_argument("--x", type=float, required=True)
    pg.add_argument("--quad", type=int, default=64)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gap)

    pt = sub.add_parser("tw", help="limiting edge distribution at t")
    pt.add_argument("--t", type=float, required=True)
    pt.add_argument("--quad", type=int, default=64)
    pt.add_argument("--tail", type=float, default=12.0)
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_tw)

    pa = sub.add_parser("angles", help="principal angles between random subspaces")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--q", type=int, required=True)
    pa.add_argument("--qprime", type=int, required=True)
    pa.add_argument("--trials", type=int, default=100)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_angles)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        _check_out(args.out)
        args.func(args)
    except NumericError as e:
        print(f"jrmt: numeric failure: {e}", file=sys.stderr)
        return NUMERIC_EXIT
    except JrmtError as e:
        print(f"jrmt: {e}", file=sys.stderr)
        return USAGE_EXIT
    except MemoryError as e:
        print(f"jrmt: size does not fit in memory: {e}", file=sys.stderr)
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
