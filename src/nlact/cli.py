"""Command-line interface: parameter sweeps, threshold tables, the fixed-ancilla
check, and the superactivation copy-count map.

CSV and text output print numbers with 12 significant digits; JSON output
prints each float as its shortest round-trip repr (``json.dumps``), so a
last-bit change in a value shows there.  Output uses LF line endings, and
files are written atomically (temp file plus rename), so identical
configurations produce byte-identical artifacts.  Exit codes: 0 success,
1 check failed, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .activation import DEFAULT_OPTIONS, ancilla_R, verify_ancilla
from .linalg import PSD_TOL, min_eig, partial_transpose_mat
from .measures import k_factor
from .sdp import SdpOptions
from .states import FAMILIES, FamilySpec, wi_state
from .sweep import PROPERTIES, TABLE_FAMILIES, build_table, sample_curve

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

ANCILLA_GRID_LO = 0.6569
ANCILLA_GRID_HI = 1.0


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nlact-")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sdp_options(args: argparse.Namespace) -> SdpOptions:
    given = {"max_iters": args.sdp_max_iters, "tol_objective": args.sdp_tol}
    return replace(DEFAULT_OPTIONS, **{k: v for k, v in given.items() if v is not None})


# the flags of a 1-D sweep, with their defaults; a 2-D sweep spans [0, 1] x [0, 1] and takes none of them
_LINE_FLAGS = {"pmin": 0.0, "pmax": 1.0, "steps": 101, "q": 1.0}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.p_grid is not None or args.q_grid is not None:
        given = [f"--{name}" for name in _LINE_FLAGS if getattr(args, name) is not None]
        given += ["--format json"] if args.format == "json" else []  # a 2-D sweep writes CSV only
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --p-grid/--q-grid")
        return _sweep_grid2d(args)
    pmin, pmax, steps, q = (
        default if getattr(args, name) is None else getattr(args, name) for name, default in _LINE_FLAGS.items()
    )
    # an infinite end would reach np.linspace, whose inf * 0 warns
    if not np.isfinite([pmin, pmax]).all():
        raise ValueError(f"--pmin and --pmax must be finite, got {pmin} and {pmax}")
    if not pmin < pmax:
        raise ValueError("--pmin must be below --pmax")
    if steps < 2:
        raise ValueError("--steps must be at least 2")
    spec = FamilySpec(family=args.family, d=args.d, q=q)
    grid = np.linspace(pmin, pmax, steps)
    curve = sample_curve(spec, args.property, grid, _sdp_options(args))

    if args.format == "json":
        rows = []
        for i, p in enumerate(curve.grid):
            row: dict = {"p": p, "value": curve.values[i], "indicator": curve.indicators[i]}
            if i in curve.failures:
                row["error"] = curve.failures[i]
            rows.append(row)
        doc = {"family": spec.family, "d": spec.d, "property": args.property, "rows": rows}
        _write_output(json.dumps(doc, indent=2) + "\n", args.out)
        return EXIT_OK

    buf = io.StringIO()
    buf.write("p,value,indicator\n")
    for i, p in enumerate(curve.grid):
        value = curve.values[i]
        indicator = curve.indicators[i]
        buf.write(
            f"{_fmt(p)},{'' if value is None else _fmt(value)},"
            f"{'' if indicator is None else int(indicator)}\n"
        )
    _write_output(buf.getvalue(), args.out)
    return EXIT_OK


def _sweep_grid2d(args: argparse.Namespace) -> int:
    if args.family != "hirsch2":
        raise ValueError("--p-grid/--q-grid sweeps are for the two-parameter hirsch2 family")
    np_pts = 41 if args.p_grid is None else args.p_grid
    nq_pts = 41 if args.q_grid is None else args.q_grid
    if np_pts < 2 or nq_pts < 2:
        raise ValueError("grid sizes must be at least 2")
    sdp_options = _sdp_options(args)
    buf = io.StringIO()
    buf.write("p,q,value\n")
    for q in np.linspace(0.0, 1.0, nq_pts):
        spec = FamilySpec(family="hirsch2", d=args.d, q=float(q))
        curve = sample_curve(spec, args.property, np.linspace(0.0, 1.0, np_pts), sdp_options)
        for i, p in enumerate(curve.grid):
            value = curve.values[i]
            buf.write(f"{_fmt(p)},{_fmt(q)},{'' if value is None else _fmt(value)}\n")
    _write_output(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    table = build_table(args.family, d_max=args.dmax, sdp_options=_sdp_options(args))
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("d,name,value,tolerance,provenance\n")
        for row in table["rows"]:
            for name, entry in row["thresholds"].items():
                value = entry.get("value")
                marker = entry.get("marker")
                shown = marker if value is None else _fmt(value)
                tol = entry.get("tolerance")
                buf.write(
                    f"{row['d']},{name},{shown},"
                    f"{'' if tol is None else _fmt(tol)},{entry['provenance']}\n"
                )
        _write_output(buf.getvalue(), args.out)
        return EXIT_OK
    _write_output(json.dumps(table, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_check_ancilla(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    grid = np.linspace(ANCILLA_GRID_LO, ANCILLA_GRID_HI, args.points + 2)[1:-1]
    points = [float(p) for p in (grid if args.p is None else [args.p])]
    states = [wi_state(p) for p in points]  # every p is checked before the first line is printed
    rho = ancilla_R()
    failures = []
    trace_err = abs(rho.mat.trace().real - 1.0)
    psd = min_eig(rho.mat)
    ppt = min_eig(partial_transpose_mat(rho.mat, rho.dims, (0, 1)))
    print(f"ancilla trace error: {_fmt(trace_err)}")
    print(f"ancilla min eigenvalue: {_fmt(psd)}")
    print(f"ancilla partial-transpose min eigenvalue: {_fmt(ppt)}")
    if trace_err > PSD_TOL or psd < -PSD_TOL or ppt < -PSD_TOL:
        failures.append("ancilla feasibility (PSD/PPT/trace) out of tolerance")

    for p, state in zip(points, states):
        value, activated = verify_ancilla(state, rho)
        print(f"p={_fmt(p)} trace={_fmt(value)} {'activated' if activated else 'NOT activated'}")
        if not activated:
            failures.append(f"trace value not negative at p={_fmt(p)}")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_kfactor(args: argparse.Namespace) -> int:
    if args.dmin < 2 or args.dmax < args.dmin:
        raise ValueError("need 2 <= dmin <= dmax")
    if args.fsteps < 2 or not 0.0 <= args.fmin < args.fmax <= 1.0:
        raise ValueError("need 0 <= fmin < fmax <= 1 and fsteps >= 2")
    buf = io.StringIO()
    buf.write("d,f,k\n")
    for d in range(args.dmin, args.dmax + 1):
        for f in np.linspace(args.fmin, args.fmax, args.fsteps):
            k = k_factor(d, float(f))
            buf.write(f"{d},{_fmt(f)},{'' if k is None else k}\n")
    _write_output(buf.getvalue(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlact",
        description="Nonlocality-related properties and activation thresholds of two-qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output file (stdout when omitted)")
        budget = "Newton-step or pivot budget of every SDP solve"
        p.add_argument("--sdp-max-iters", type=int, default=None, help=budget)
        p.add_argument("--sdp-tol", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="sample one property over a parameter grid")
    p_sweep.add_argument("--family", required=True, choices=FAMILIES)
    p_sweep.add_argument("--property", required=True, choices=PROPERTIES)
    p_sweep.add_argument("--d", type=int, default=2, help="local dimension (werner/isotropic)")
    p_sweep.add_argument("--q", type=float, default=None, help="hirsch2 mixing weight (default 1)")
    p_sweep.add_argument("--pmin", type=float, default=None, help="first grid point (default 0)")
    p_sweep.add_argument("--pmax", type=float, default=None, help="last grid point (default 1)")
    p_sweep.add_argument("--steps", type=int, default=None, help="grid points (default 101)")
    p_sweep.add_argument("--p-grid", type=int, default=None, help="2D sweep: points along p")
    p_sweep.add_argument("--q-grid", type=int, default=None, help="2D sweep: points along q")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="reproduce one family's threshold table")
    p_table.add_argument("--family", required=True, choices=TABLE_FAMILIES)
    p_table.add_argument("--dmax", type=int, default=6)
    p_table.add_argument("--format", choices=("csv", "json"), default="json")
    add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_check = sub.add_parser("check-ancilla", help="verify the fixed Pauli-string ancilla")
    p_check.add_argument("--p", type=float, default=None, help="single mixing parameter to test")
    p_check.add_argument("--points", type=int, default=20)
    p_check.set_defaults(func=cmd_check_ancilla)

    p_k = sub.add_parser("kfactor", help="superactivation copy-count map as d,f,k CSV")
    p_k.add_argument("--dmin", type=int, default=2)
    p_k.add_argument("--dmax", type=int, default=5)
    p_k.add_argument("--fmin", type=float, default=0.0)
    p_k.add_argument("--fmax", type=float, default=1.0)
    p_k.add_argument("--fsteps", type=int, default=101)
    p_k.add_argument("--out", default=None)
    p_k.set_defaults(func=cmd_kfactor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
