"""Command-line front end: sampling, densities, kernels, gaps, angles.

Scalar results are emitted as JSON, grids and spectra as CSV.  Every output
embeds the fully resolved configuration: JSON outputs carry a ``config``
field, CSV outputs start with '# ...' metadata lines followed by the column
header.  Floats are serialized with 17 significant digits.  Each subcommand
returns its text, and ``main`` writes it once: to stdout, or atomically to
``--out`` (temp file beside it, then rename).  Exit codes: 0 success, 2 bad
usage or parameters or an ``--out`` that cannot be written, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .cdkernel import KernelSpec, finite_profile, local_scaling, one_point_density, rescaled
from .ensembles import _DEFAULT_ROUTE, _ROUTES, reduce_ranks, sample_largest, sample_spectra
from .errors import JrmtError, NumericError, ParameterError
from .fredholm import QUAD_POINTS, TW_TAIL, largest_eval_cdf, tracy_widom_cdf
from .limits import banach_angle, free_product_density, limit_density
from .randgen import SeededStream

USAGE_EXIT = 2
NUMERIC_EXIT = 3
MAX_QUAD = 2048  # the Nystrom matrix is quad x quad: quad^2 kernel entries, an O(quad^3) det
# config keys of `jrmt kernel` that report the (centre, scale) of its regime
_SCALING_KEYS = {"bulk": ("x", None), "soft": ("edge", "scale"), "hard": (None, "scale")}


def _write(path: str | None, text: str) -> None:
    """text to stdout, or to a temp file beside ``path`` renamed onto it.

    An OSError on the way is a usage error, and no temp file is left behind.
    """
    tmp = None
    try:
        if not path:
            sys.stdout.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise ParameterError(f"cannot write {path or 'stdout'}: {e.strerror or e}") from None
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _csv_text(config: dict, header: list[str], rows: np.ndarray) -> str:
    row_format = ",".join(["%.17g"] * len(header)) + "\n"  # the bytes of f"{v:.17g}" per value
    head = "# " + json.dumps(config, sort_keys=True) + "\n" + ",".join(header) + "\n"
    return head + "".join([row_format] * len(rows)) % tuple(rows.ravel().tolist())


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
    # the directory as given, as the kernel resolves it when _write creates the file
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ParameterError(f"--out directory does not exist: {path}")
    if path and os.path.isdir(path):
        raise ParameterError(f"--out names a directory, not a file: {path}")


def _config(args, **resolved) -> dict:
    """Every parsed option that is set, bar ``func`` and ``out``, plus the resolved entries."""
    given = {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}
    return {**given, **resolved}


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> str:
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
    if plan.canonical is None:
        vals = np.empty((args.trials, 0))
    else:
        streams = [SeededStream(args.seed, t) for t in range(args.trials)]
        vals = sample_spectra(streams, args.n, plan.canonical.q, plan.canonical.q_tilde, route=args.route)
    header = [f"lambda_{i+1}" for i in range(args.q)]
    return _csv_text(config, header, plan.apply(vals))


def cmd_density(args) -> str:
    xs = _parse_grid(args.grid, "--grid")
    if xs[0] <= -1.0 or xs[-1] >= 1.0:
        raise ParameterError("--grid must lie strictly inside (-1, 1)")
    spec = KernelSpec(args.n, args.a, args.b)
    prof = finite_profile(spec)
    config = _config(args, support=[prof.r, prof.s])
    rows = np.column_stack([xs, one_point_density(spec, xs), limit_density(prof, xs)])
    return _csv_text(config, ["x", "finite_n_density", "limit_f"], rows)


def cmd_kernel(args) -> str:
    us = _parse_grid(args.ugrid, "--ugrid")
    vs = _parse_grid(args.vgrid, "--vgrid") if args.vgrid else us
    spec = KernelSpec(args.n, args.a, args.b)
    centre, scale, limit = local_scaling(spec, args.regime, args.x)
    scaling = {k: val for k, val in zip(_SCALING_KEYS[args.regime], (centre, scale)) if k}
    config = _config(args, vgrid=args.vgrid or args.ugrid, **scaling)
    u, v = us[:, None], vs[None, :]
    values = rescaled(spec, args.regime, u, v, args.x), limit(u, v)
    rows = np.column_stack([g.ravel() for g in np.broadcast_arrays(u, v, *values)])
    return _csv_text(config, ["u", "v", "rescaled_kernel", "limit_kernel"], rows)


def cmd_gap(args) -> str:
    _check_quad(args.quad)
    spec = KernelSpec(args.n, args.a, args.b)
    value = largest_eval_cdf(spec, args.x, m=args.quad)
    return _json_text(_config(args), {"gap": value})


def cmd_tw(args) -> str:
    _check_quad(args.quad)
    value = tracy_widom_cdf(args.t, m=args.quad, tail=args.tail)
    return _json_text(_config(args), {"tw_cdf": value})


def cmd_angles(args) -> str:
    _check_trials(args.trials)
    pair = reduce_ranks(args.n, args.q, args.qprime).canonical
    # banach_angle admits only q + q' < n, where the plan only orders the ranks;
    # cos^2 is the law's top edge itself, not cos(theta)**2 an ulp off it
    alpha, beta = args.q / args.n, args.qprime / args.n
    theta = banach_angle(alpha, beta)
    streams = [SeededStream(args.seed, t) for t in range(args.trials)]
    cos2 = np.array([sample_largest(s, pair.n, pair.q, pair.q_tilde) for s in streams])
    config = _config(
        args,
        note="max cos^2 is the top eigenvalue of the compressed projector block, "
        "drawn from the tridiagonal beta = 2 model on streams (seed, t)",
    )
    result = {
        "predicted_cos2": free_product_density(alpha, beta).support[1],
        "predicted_angle": theta,
        "max_cos2": {
            "mean": float(cos2.mean()),
            "min": float(cos2.min()),
            "max": float(cos2.max()),
            "std": float(cos2.std()),
        },
    }
    return _json_text(config, result)


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Parsing does not change it, so in-process ``main`` calls share it.
    """
    p = argparse.ArgumentParser(prog="jrmt", description=__doc__)
    p.add_argument("--version", action="version", version=f"jrmt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    nab = argparse.ArgumentParser(add_help=False)
    nab.add_argument("--n", type=int, required=True)
    nab.add_argument("--a", type=float, required=True)
    nab.add_argument("--b", type=float, required=True)
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--quad", type=int, default=QUAD_POINTS)

    ps = sub.add_parser("sample", parents=[out], help="draw ensemble spectra (CSV, one row per trial)")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--qtilde", type=int, required=True)
    ps.add_argument("--route", choices=list(_ROUTES), default=_DEFAULT_ROUTE)
    ps.add_argument("--trials", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=cmd_sample)

    pd = sub.add_parser(
        "density", parents=[out, nab], help="finite-n and limiting spectral density on a grid"
    )
    pd.add_argument("--grid", required=True, help="lo:hi:count inside (-1,1)")
    pd.set_defaults(func=cmd_density)

    pk = sub.add_parser("kernel", parents=[out, nab], help="rescaled kernel vs its limit on a (u,v) grid")
    pk.add_argument("--regime", choices=["bulk", "soft", "hard"], required=True)
    pk.add_argument("--x", type=float, default=None, help="bulk center (default: band midpoint)")
    pk.add_argument("--ugrid", required=True, help="lo:hi:count")
    pk.add_argument("--vgrid", default=None, help="lo:hi:count (default: same as --ugrid)")
    pk.set_defaults(func=cmd_kernel)

    pg = sub.add_parser(
        "gap", parents=[out, nab, quad], help="P(largest point <= x) via a Fredholm determinant"
    )
    pg.add_argument("--x", type=float, required=True)
    pg.set_defaults(func=cmd_gap)

    pt = sub.add_parser("tw", parents=[out, quad], help="limiting edge distribution at t")
    pt.add_argument("--t", type=float, required=True)
    pt.add_argument("--tail", type=float, default=TW_TAIL)
    pt.set_defaults(func=cmd_tw)

    pa = sub.add_parser("angles", parents=[out], help="principal angles between random subspaces")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--q", type=int, required=True)
    pa.add_argument("--qprime", type=int, required=True)
    pa.add_argument("--trials", type=int, default=100)
    pa.add_argument("--seed", type=int, default=0)
    pa.set_defaults(func=cmd_angles)

    # a value may start with "-" and a digit, "." or "inf" (--t -1e1): no jrmt option starts so
    for parser in sub.choices.values():
        parser._negative_number_matcher = re.compile(r"-(\d|\.|inf)")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        _check_out(args.out)
        _write(args.out, args.func(args))
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
