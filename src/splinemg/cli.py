"""Experiment command-line driver.

``splinemg table`` writes the iteration-count tables of
:func:`splinemg.solver.run_table` as CSV or markdown; ``splinemg verify``
prints one PASS/FAIL/SKIP line per check of
:func:`splinemg.verify.run_verify`. This module parses the arguments, prints
the results and picks the exit code. Each subcommand's epilog (``--help``)
states its exit codes; the ``table`` epilog also says when a cell reads ``-``
and up to which degree the solvers converge.
"""
from __future__ import annotations

import argparse
import csv
import os
import re
import sys

from .smoother import damping
from .solver import ExperimentConfig, TableResult, run_table
from .verify import CheckResult, run_verify

__all__ = [
    "write_table",
    "write_timings",
    "format_verify_report",
    "main",
]


def _write_csv(stream, result: TableResult, rows: list[list[str]]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["level/degree"] + [str(p) for p in result.degrees])
    writer.writerows([str(level)] + row
                     for level, row in zip(result.levels, rows))


def write_table(result: TableResult, stream, fmt: str = "csv") -> None:
    """Write the grid as CSV or markdown to a text stream."""
    if fmt == "csv":
        return _write_csv(stream, result, result.cells)
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")
    header = ["level/degree"] + [str(p) for p in result.degrees]
    stream.write("| " + " | ".join(header) + " |\n")
    stream.write("|" + "|".join("---" for _ in header) + "|\n")
    for level, row in zip(result.levels, result.cells):
        stream.write("| " + " | ".join([str(level)] + row) + " |\n")


def write_timings(result: TableResult, stream) -> None:
    _write_csv(stream, result, [["-" if t is None else f"{t:.6f}" for t in trow]
                                for trow in result.timings])


def format_verify_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        head = f"{r.name:<34} p={r.degree:<3} l={r.level:<3} "
        if r.note:
            lines.append(f"{head}{r.status} ({r.note})")
        else:
            rel = "<=" if r.kind == "upper" else ">="
            lines.append(f"{head}value={r.value:12.6f} {rel} "
                         f"{r.bound:10.6f}  {r.status}")
    counts = [sum(r.status == status for r in results)
              for status in ("PASS", "FAIL", "SKIP")]
    lines.append("{} passed, {} failed, {} skipped".format(*counts))
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> list[int]:
    """Parse "3", "1-15" or "1,2,5" into a list of ints, naming a bad token."""
    out: list[int] = []
    for part in filter(None, (s.strip() for s in text.split(","))):
        match = re.fullmatch(r"([+-]?\d+)(?:-([+-]?\d+))?", part)
        if not match:
            raise ValueError(f"malformed range token {part!r}")
        lo, hi = int(match[1]), int(match[2] or match[1])
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"empty range {text!r}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinemg",
        description="Iteration tables and spectral verification for the "
                    "boundary-corrected mass smoother multigrid solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser(
        "table", help="run an iteration-count table",
        epilog="exit codes: 0 every cell converged, 1 a cell ran out of "
               "--max-iter (>N), 2 configuration error (degree < 1, level or "
               "--coarse < 0, malformed range token, cg-mg with --pre != "
               "--post, --coarse with two-grid, unwritable --out; found before "
               "any setup or output file; only these exit 2), 3 a cell's "
               "setup lost "
               "definiteness (not-spd@0) or its solve stopped early "
               "(non-finite@k, breakdown@k); 3 wins over 1. A cell reads - "
               "when build_hierarchy rejects its levels (two-grid: level - 1 "
               "and level). Degrees: mg and cg-mg converge in 1D up to p=39 "
               "at l=9, in 2D up to p=30 and at p=32/33 at l=6.")
    t.add_argument("--dim", type=int, default=1, choices=(1, 2))
    t.add_argument("--degrees", default="1-15",
                   help="degree range, e.g. 1-15 or 2,3,5")
    t.add_argument("--levels", default="10-12",
                   help="fine-level range, e.g. 10-12")
    t.add_argument("--coarse", default="auto",
                   help="coarse level (integer) or 'auto'")
    t.add_argument("--cycle", default="v", choices=("two-grid", "v", "w"))
    t.add_argument("--pre", type=int, default=1, help="pre-smoothing steps")
    t.add_argument("--post", type=int, default=1, help="post-smoothing steps")
    t.add_argument("--tau", type=float, default=None,
                   help=f"damping parameter (default {damping(1)} in 1D, "
                        f"{damping(2)} in 2D)")
    t.add_argument("--solver", default="mg", choices=("mg", "cg-mg"))
    t.add_argument("--tol", type=float, default=1e-8)
    t.add_argument("--max-iter", type=int, default=500,
                   help="iteration budget, which also bounds the V-cycles; "
                        "a >N cg-mg cell can hide a breakdown that only an "
                        "iteration after N would meet")
    t.add_argument("--format", dest="fmt", default="csv",
                   choices=("csv", "markdown"))
    t.add_argument("--out", default=None, help="output path (default stdout)")

    v = sub.add_parser("verify", help="run the spectral verification suite",
                       epilog="exit codes: 0 no check failed, 1 a check "
                       "failed (a breakdown reads FAIL with its cause, such as "
                       "'mass matrix M not SPD'), 2 configuration error "
                       "only.")
    v.add_argument("--dim", type=int, default=1, choices=(1, 2))
    v.add_argument("--degrees", default="1-8")
    v.add_argument("--levels", default="4")
    v.add_argument("--tau", type=float, default=None)
    return parser


def _run(args) -> int:
    """Run the parsed command and return its exit code."""
    degrees, levels = _parse_range(args.degrees), _parse_range(args.levels)
    if args.command == "verify":
        results = run_verify(degrees, levels, d=args.dim, tau=args.tau)
        sys.stdout.write(format_verify_report(results))
        return 1 if any(r.status == "FAIL" for r in results) else 0
    config = ExperimentConfig(
        dim=args.dim, degrees=degrees, levels=levels, coarse=args.coarse,
        cycle=args.cycle, pre_smooth=args.pre, post_smooth=args.post,
        tau=args.tau, solver=args.solver, tol=args.tol, max_iter=args.max_iter)
    paths = ((args.out, os.path.splitext(args.out)[0] + ".timing.csv")
             if args.out else ())
    for path in paths:                  # writable? (append truncates nothing)
        open(path, "a", encoding="utf-8").close()
    result = run_table(config)
    if paths:
        with open(paths[0], "w", encoding="utf-8") as fh:
            write_table(result, fh, args.fmt)
        with open(paths[1], "w", encoding="utf-8") as fh:
            write_timings(result, fh)
    else:
        write_table(result, sys.stdout, args.fmt)
    return 3 if result.early_stop else 1 if result.any_failure else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
