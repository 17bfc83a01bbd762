"""Experiment command-line driver.

``splinemg table`` reproduces the iteration-count tables (multigrid or
multigrid-preconditioned CG over ranges of degrees and levels) and writes
them as CSV or markdown; ``splinemg verify`` runs the spectral checks and
reports one PASS/FAIL/SKIP line per check.

Exit codes: 0 on success, 1 when any verification check fails (a numerical
breakdown is its check's FAIL line, with the cause) or any requested table
cell runs out of its iterations, 2 only on configuration errors (a degree <
1, a level < 0, a malformed range token, cg-mg with pre != post, --coarse
with two-grid, an unwritable --out; all found before any setup or output
file), 3 when any table cell's setup broke down (``not-spd@0``) or its solve
stopped early (``non-finite@k``, ``breakdown@k``). A table cell reads ``-``
exactly when ``build_hierarchy`` rejects its levels (for two-grid: level - 1
and level).
With the defaults the 1D table converges at l=9 up to p=38 (``not-spd@0``
from p=39), the 2D table at l=6 up to p=30 and at p=32/33.
"""
from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import time
from dataclasses import dataclass

from .assembly import assemble_load
from .linalg import NotSPDError
from .smoother import damping
from .solver import CycleConfig, InadmissibleLevels, build_hierarchy, \
    experiment_initial_guess, min_smoother_level, solve_mg, solve_pcg
from .splines import SpaceSizeError, as_integer, build_space
from .verify import APPROX_BOUND, INVERSE_BOUND, ConstraintRankError, \
    dense_space, measure_CA, measure_smoothing_constant, \
    smoother_energy_norm, smoother_pencil, verify_approximation_constant, \
    verify_counterexample, verify_inverse_inequality

__all__ = [
    "ExperimentConfig",
    "TableResult",
    "CheckResult",
    "run_table",
    "run_verify",
    "write_table",
    "format_verify_report",
    "main",
]


@dataclass
class ExperimentConfig:
    """Parameters of one table run."""

    dim: int
    degrees: list[int]
    levels: list[int]
    coarse: int | str = "auto"          # fixed level or "auto"
    cycle: str = "v"                    # "v" | "w" | "two-grid"
    pre_smooth: int = 1
    post_smooth: int = 1
    tau: float | None = None
    solver: str = "mg"                  # "mg" | "cg-mg"
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        self.tau = damping(self.dim, self.tau)
        if not self.degrees or not self.levels:
            raise ValueError("degree and level ranges must be non-empty")
        self.degrees = [as_integer("degree", p) for p in self.degrees]
        self.levels = [as_integer("level", lv) for lv in self.levels]
        # build_space owns p >= 1 and level >= 0 (probed on one interval)
        build_space(min(self.degrees), min(0, *self.levels))
        if self.solver not in ("mg", "cg-mg"):
            raise ValueError(f"unknown solver {self.solver!r}")
        cfg = self.cycle_config()
        if self.solver == "cg-mg":
            cfg.require_symmetric()
        if self.coarse != "auto":
            if self.cycle == "two-grid":
                raise ValueError("the two-grid method coarsens each cell to "
                                 "level - 1; coarse must be 'auto'")
            try:                        # an integer or its text
                self.coarse = as_integer("coarse", int(self.coarse) if
                                         isinstance(self.coarse, str)
                                         else self.coarse)
            except ValueError:
                raise ValueError("coarse level must be an integer or 'auto', "
                                 f"got {self.coarse!r}") from None

    def cycle_config(self) -> CycleConfig:
        cycle = "v" if self.cycle == "two-grid" else self.cycle
        return CycleConfig(cycle=cycle, pre_smooth=self.pre_smooth,
                           post_smooth=self.post_smooth, tol=self.tol,
                           max_iter=self.max_iter)


@dataclass
class TableResult:
    """Iteration-count grid plus per-cell wall times."""

    degrees: list[int]
    levels: list[int]                   # descending, one row each
    cells: list[list[str]]              # counts, "-", ">N" or "reason@it"
    timings: list[list[float | None]]

    @property
    def early_stop(self) -> bool:
        """A cell's setup or solve stopped early (not-spd@0, reason@k)."""
        return any("@" in c for row in self.cells for c in row)

    @property
    def any_failure(self) -> bool:
        """A cell ran out of its iterations (>N) or stopped early."""
        return any(c[0] == ">" or "@" in c for row in self.cells for c in row)


@dataclass
class CheckResult:
    """One verification check outcome."""

    name: str
    degree: int
    level: int
    value: float
    bound: float
    kind: str                           # "upper" | "lower"
    status: str                         # "PASS" | "FAIL" | "SKIP"
    note: str = ""


def _coarse_for(config: ExperimentConfig, p: int, level: int) -> int:
    if config.cycle == "two-grid":
        return level - 1
    if config.coarse == "auto":
        return min_smoother_level(p) - 1
    return config.coarse


def run_table(config: ExperimentConfig) -> TableResult:
    """Solve every (level, degree) cell and collect counts; a cell whose
    levels ``build_hierarchy`` rejects reads "-" and has no wall time."""
    cfg = config.cycle_config()
    solve = solve_pcg if config.solver == "cg-mg" else solve_mg
    result = TableResult(sorted(set(config.degrees)),
                         sorted(set(config.levels), reverse=True), [], [])
    for level in result.levels:
        row, trow = [], []
        for p in result.degrees:
            start = time.perf_counter()
            try:
                hier = build_hierarchy(config.dim, p,
                                       _coarse_for(config, p, level), level,
                                       config.tau)
            except InadmissibleLevels:
                row.append("-")
            except NotSPDError:
                row.append("not-spd@0")
            else:
                f = assemble_load(hier.finest.space, config.dim)
                _, report = solve(hier, cfg, f,
                                  experiment_initial_guess(len(f)))
                if report.converged:
                    row.append(str(report.iterations))
                elif report.stop_reason == "max_iter":
                    row.append(f">{cfg.max_iter}")
                else:
                    row.append(f"{report.stop_reason}@{report.iterations}")
            trow.append(None if row[-1] == "-"
                        else time.perf_counter() - start)
        result.cells.append(row)
        result.timings.append(trow)
    return result


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


# ------------------------------------------------------------------ verify


def run_verify(degrees: list[int], levels: list[int], d: int = 1,
               tau: float | None = None) -> list[CheckResult]:
    """Run the spectral verification suite over ranges of (p, level). A
    check the library refuses with :class:`SpaceSizeError` or whose
    constraint basis loses rank (:class:`ConstraintRankError`) reads SKIP;
    one whose matrix loses definiteness (:class:`NotSPDError`) reads FAIL
    with the error's message. Other errors propagate."""
    tau = damping(d, tau)
    if not degrees or not levels:
        raise ValueError("degree and level ranges must be non-empty")
    results: list[CheckResult] = []

    def check(name, p, level, measure, bound=None, kind="upper", note=""):
        """``measure()``, and its PASS/FAIL line unless ``bound`` is None;
        or None after one SKIP line (``note`` on a size refusal, else the
        rank message) or FAIL line (the :class:`NotSPDError` message)."""
        try:
            value = measure()
        except (SpaceSizeError, ConstraintRankError, NotSPDError) as exc:
            results.append(CheckResult(
                name, p, level, float("nan"), float("nan"), kind,
                "FAIL" if isinstance(exc, NotSPDError) else "SKIP",
                note if isinstance(exc, SpaceSizeError) else str(exc)))
            return None
        if bound is not None:
            ok = value <= bound if kind == "upper" else value >= bound
            results.append(CheckResult(name, p, level, float(value), bound,
                                       kind, "PASS" if ok else "FAIL"))
        return value

    for level in sorted(set(levels)):
        ca_values: dict[int, float] = {}
        for p in sorted(set(degrees)):
            if check("verification-suite", p, level,
                     lambda: dense_space(p, level, d),
                     note="size beyond dense limit") is None:
                continue
            if d == 1:
                res = check("inverse-inequality", p, level,
                            lambda: verify_inverse_inequality(p, level),
                            note="interior block empty")
                for part in ("constrained", "interior") if res else ():
                    check(f"inverse-inequality-{part}", p, level,
                          lambda: getattr(res, part), INVERSE_BOUND + 1e-8)
                check("counterexample-growth", p, level,
                      lambda: verify_counterexample(p, level), float(p),
                      "lower")
                check("approximation-constant", p, level,
                      lambda: verify_approximation_constant(p, level),
                      APPROX_BOUND + 0.01,
                      note="proxy space beyond dense limit")
            pencil = check("smoothing-constant", p, level,
                           lambda: smoother_pencil(p, level, d, tau),
                           note="no valid coarse/fine smoother pair")
            if pencil is None:
                continue
            check("smoothing-constant", p, level,
                  lambda: max(measure_smoothing_constant(pencil, nu)
                              for nu in range(1, 9)), 1.0 / tau + 1e-8)
            check("smoother-energy-norm", p, level,
                  lambda: smoother_energy_norm(pencil), 1.0)
            if (ca := check("approximation-property-ratio", p, level,
                            lambda: measure_CA(pencil))) is not None:
                ca_values[p] = ca
        if ca_values:
            # any p that fits here makes p = 1 fit too; its errors propagate
            ref = ca_values[1] if 1 in ca_values else measure_CA(
                smoother_pencil(1, level, d=d, tau=tau))
            check("approximation-property-ratio", max(ca_values), level,
                  lambda: max(ca_values.values()) / ref, 3.0)
    return results


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


# -------------------------------------------------------------------- CLI


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
               "--max-iter (>N), 2 configuration error (degree < 1, level < "
               "0, malformed range token, cg-mg with --pre != --post, --coarse "
               "with two-grid, unwritable --out; found before any setup or "
               "output file; only these exit 2), 3 a cell's setup lost "
               "definiteness (not-spd@0) or its solve stopped early "
               "(non-finite@k, breakdown@k); 3 wins over 1. A cell reads - "
               "when build_hierarchy rejects its "
               "levels (two-grid: level - 1 and level). Degrees: 1D converges "
               "up to p=38 at l=9, 2D up to p=30 and at p=32/33 at l=6.")
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
