"""Experiment command-line driver.

``splinemg table`` reproduces the iteration-count tables (multigrid or
multigrid-preconditioned CG over ranges of degrees and levels) and writes
them as CSV or markdown; ``splinemg verify`` runs the spectral checks and
reports one PASS/FAIL/SKIP line per check.

Exit codes: 0 on success, 1 when any verification check fails or any
requested table cell runs out of its iterations, 2 on configuration errors
(an unwritable ``--out`` among them, found before any cell is solved), 3
when any table cell's setup or solve stopped early (not-spd, non-finite or
breakdown).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass

from .assembly import assemble_load
from .linalg import NotSPDError
from .smoother import damping
from .solver import CycleConfig, build_hierarchy, experiment_initial_guess, \
    min_smoother_level, solve_mg, solve_pcg
from .verify import APPROX_BOUND, INVERSE_BOUND, PROXY_LEVELS, dense_limit, \
    measure_CA, measure_smoothing_constant, smoother_energy_norm, \
    smoother_pencil, verify_approximation_constant, verify_counterexample, \
    verify_inverse_inequality

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
    fmt: str = "csv"                    # "csv" | "markdown"
    out: str | None = None

    def __post_init__(self):
        self.tau = damping(self.dim, self.tau)
        if not self.degrees or not self.levels:
            raise ValueError("degree and level ranges must be non-empty")
        self.cycle_config()
        if self.solver not in ("mg", "cg-mg"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.fmt not in ("csv", "markdown"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.coarse != "auto":
            self.coarse = int(self.coarse)

    def cycle_config(self) -> CycleConfig:
        cycle = "v" if self.cycle == "two-grid" else self.cycle
        return CycleConfig(cycle=cycle, pre_smooth=self.pre_smooth,
                           post_smooth=self.post_smooth, tol=self.tol,
                           max_iter=self.max_iter)


@dataclass
class TableResult:
    """Iteration-count grid plus per-cell wall times."""

    config: ExperimentConfig
    degrees: list[int]
    levels: list[int]                   # descending, one row each
    cells: list[list[str]]              # counts, "-", ">N" or "reason@it"
    timings: list[list[float | None]]
    any_failure: bool = False
    #: a setup broke down (not-spd@0) or a solve stopped early (non-finite
    #: residual or CG breakdown)
    early_stop: bool = False


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


def _coarse_for(config: ExperimentConfig, p: int) -> int:
    if config.coarse == "auto":
        return min_smoother_level(p) - 1
    return int(config.coarse)


def _cell_feasible(config: ExperimentConfig, p: int, level: int) -> bool:
    coarse = _coarse_for(config, p)
    return level > coarse and coarse >= min_smoother_level(p) - 1


def run_table(config: ExperimentConfig) -> TableResult:
    """Solve every feasible (level, degree) cell and collect counts."""
    cfg = config.cycle_config()
    levels = sorted(set(config.levels), reverse=True)
    degrees = sorted(set(config.degrees))
    cells, timings = [], []
    any_failure = early_stop = False
    for level in levels:
        row, trow = [], []
        for p in degrees:
            if not _cell_feasible(config, p, level):
                row.append("-")
                trow.append(None)
                continue
            start = time.perf_counter()
            coarse = (level - 1 if config.cycle == "two-grid"
                      else _coarse_for(config, p))
            try:
                hier = build_hierarchy(config.dim, p, coarse, level,
                                       config.tau)
            except NotSPDError:
                row.append("not-spd@0")
                trow.append(time.perf_counter() - start)
                any_failure = early_stop = True
                continue
            f = assemble_load(hier.finest.space, config.dim)
            u0 = experiment_initial_guess(f.shape[0])
            solve = solve_pcg if config.solver == "cg-mg" else solve_mg
            _, report = solve(hier, cfg, f, u0)
            trow.append(time.perf_counter() - start)
            if report.converged:
                row.append(str(report.iterations))
            elif report.stop_reason == "max_iter":
                row.append(f">{cfg.max_iter}")
                any_failure = True
            else:
                row.append(f"{report.stop_reason}@{report.iterations}")
                any_failure = early_stop = True
        cells.append(row)
        timings.append(trow)
    return TableResult(config=config, degrees=degrees, levels=levels,
                       cells=cells, timings=timings, any_failure=any_failure,
                       early_stop=early_stop)


def write_table(result: TableResult, stream, fmt: str | None = None) -> None:
    """Write the grid as CSV or markdown to a text stream."""
    fmt = fmt or result.config.fmt
    header = ["level/degree"] + [str(p) for p in result.degrees]
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for level, row in zip(result.levels, result.cells):
            writer.writerow([str(level)] + row)
    else:
        stream.write("| " + " | ".join(header) + " |\n")
        stream.write("|" + "|".join("---" for _ in header) + "|\n")
        for level, row in zip(result.levels, result.cells):
            stream.write("| " + " | ".join([str(level)] + row) + " |\n")


def write_timings(result: TableResult, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["level/degree"] + [str(p) for p in result.degrees])
    for level, trow in zip(result.levels, result.timings):
        writer.writerow([str(level)] +
                        ["-" if t is None else f"{t:.6f}" for t in trow])


# ------------------------------------------------------------------ verify


def _skip(name, p, level, note) -> CheckResult:
    return CheckResult(name, p, level, float("nan"), float("nan"),
                       "upper", "SKIP", note)


def _check(name, p, level, value, bound, kind) -> CheckResult:
    ok = value <= bound if kind == "upper" else value >= bound
    return CheckResult(name, p, level, float(value), float(bound), kind,
                       "PASS" if ok else "FAIL")


def run_verify(degrees: list[int], levels: list[int], d: int = 1,
               tau: float | None = None) -> list[CheckResult]:
    """Run the spectral verification suite over ranges of (p, level)."""
    tau = damping(d, tau)
    if not degrees or not levels:
        raise ValueError("degree and level ranges must be non-empty")
    results: list[CheckResult] = []
    for level in sorted(set(levels)):
        n = 2**level
        ca_values: dict[int, float] = {}
        for p in sorted(set(degrees)):
            m = n + p
            if m > dense_limit(d):
                results.append(_skip("verification-suite", p, level,
                                     "size beyond dense limit"))
                continue
            if d == 1:
                if n > p:
                    res = verify_inverse_inequality(p, level)
                    results.append(_check("inverse-inequality-constrained",
                                          p, level, res.constrained,
                                          INVERSE_BOUND + 1e-8, "upper"))
                    results.append(_check("inverse-inequality-interior",
                                          p, level, res.interior,
                                          INVERSE_BOUND + 1e-8, "upper"))
                else:
                    results.append(_skip("inverse-inequality", p, level,
                                         "interior block empty"))
                results.append(_check("counterexample-growth", p, level,
                                      verify_counterexample(p, level),
                                      float(p), "lower"))
                proxy_dim = n * 2**PROXY_LEVELS + p
                if proxy_dim <= dense_limit():
                    results.append(_check(
                        "approximation-constant", p, level,
                        verify_approximation_constant(p, level),
                        APPROX_BOUND + 0.01, "upper"))
                else:
                    results.append(_skip("approximation-constant", p, level,
                                         "proxy space beyond dense limit"))
            if n <= p:
                results.append(_skip("smoothing-constant", p, level,
                                     "no valid coarse/fine smoother pair"))
                continue
            pencil = smoother_pencil(p, level, d=d, tau=tau)
            worst = max(measure_smoothing_constant(pencil, nu)
                        for nu in range(1, 9))
            results.append(_check("smoothing-constant", p, level, worst,
                                  1.0 / tau + 1e-8, "upper"))
            results.append(_check("smoother-energy-norm", p, level,
                                  smoother_energy_norm(pencil), 1.0, "upper"))
            ca_values[p] = measure_CA(pencil)
        if ca_values:
            # any p that fits here makes p = 1 fit too
            ref = ca_values[1] if 1 in ca_values else measure_CA(
                smoother_pencil(1, level, d=d, tau=tau))
            results.append(_check("approximation-property-ratio",
                                  max(ca_values), level,
                                  max(ca_values.values()) / ref, 3.0, "upper"))
    return results


def format_verify_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        if r.status == "SKIP":
            lines.append(f"{r.name:<34} p={r.degree:<3} l={r.level:<3} "
                         f"SKIP ({r.note})")
        else:
            rel = "<=" if r.kind == "upper" else ">="
            lines.append(f"{r.name:<34} p={r.degree:<3} l={r.level:<3} "
                         f"value={r.value:12.6f} {rel} {r.bound:10.6f}  "
                         f"{r.status}")
    npass = sum(r.status == "PASS" for r in results)
    nfail = sum(r.status == "FAIL" for r in results)
    nskip = sum(r.status == "SKIP" for r in results)
    lines.append(f"{npass} passed, {nfail} failed, {nskip} skipped")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- CLI


def _parse_range(text: str) -> list[int]:
    """Parse "3", "1-15", or "1,2,5" into a list of ints."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
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
               "--max-iter (>N), 2 configuration error (an unwritable --out "
               "included, found before any cell is solved), 3 a cell's setup "
               "lost definiteness (not-spd@0) or its solve stopped early "
               "(non-finite@k or breakdown@k); 3 wins over 1. --cycle "
               "two-grid is a V-cycle on the hierarchy from level - 1; "
               "--coarse only decides which of its cells are feasible")
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
    t.add_argument("--max-iter", type=int, default=500)
    t.add_argument("--format", dest="fmt", default="csv",
                   choices=("csv", "markdown"))
    t.add_argument("--out", default=None, help="output path (default stdout)")

    v = sub.add_parser("verify", help="run the spectral verification suite")
    v.add_argument("--dim", type=int, default=1, choices=(1, 2))
    v.add_argument("--degrees", default="1-8")
    v.add_argument("--levels", default="4")
    v.add_argument("--tau", type=float, default=None)
    return parser


def _timing_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".timing.csv"


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
        tau=args.tau, solver=args.solver, tol=args.tol,
        max_iter=args.max_iter, fmt=args.fmt, out=args.out)
    if config.out:                      # writable? (append truncates nothing)
        for path in (config.out, _timing_path(config.out)):
            open(path, "a", encoding="utf-8").close()
    result = run_table(config)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            write_table(result, fh)
        with open(_timing_path(config.out), "w", encoding="utf-8") as fh:
            write_timings(result, fh)
    else:
        write_table(result, sys.stdout)
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
