"""Benchmark of the splinemg solver: time to a 1e-8 solution, split into
setup and solve, on three workloads, plus a traced run split per layer.

Run from the repository root:

    python3 bench/run.py --workload mg2d --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``mg1d_verify``, ``mg2d``, ``pcg2d``. The seed draws the uniform(0, 1) initial guess of every solve;
seed 0 is the guess the acceptance tables were measured from. The process
pins the BLAS to one thread before numpy is imported and records that
setting.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it measures half its time untraced and half with every public library
function wrapped in a span, and prints the per-layer metrics. Every solve is
gated on convergence, on the residual the benchmark recomputes and on the
acceptance-table count; the verification report must have no FAIL line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with
the environment goes to ``bench/results/``. Exit codes: 0 when every gate
held, 1 when a gate failed, 2 when the library cannot be found or the
arguments are wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import envinfo

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

#: V-cycles run by the thread probe (an mg2d p=8 l=7 solve, ungated)
PROBE_CYCLES = 20


def pin_blas_threads() -> dict[str, str | None]:
    """Pin every BLAS/OpenMP pool to one thread; returns the prior values.
    Takes effect only when called before numpy is imported."""
    before = envinfo.thread_env()
    for name in envinfo.THREAD_VARS:
        os.environ[name] = "1"
    return before


def import_library(root: Path):
    """Import splinemg from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "splinemg" / "__init__.py").is_file():
        raise ImportError(f"no splinemg sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import splinemg
    import splinemg.cli  # noqa: F401  (run_verify is reached as sm.cli)

    if Path(splinemg.__file__).resolve().parent != (src / "splinemg").resolve():
        raise ImportError(f"splinemg imported from {splinemg.__file__}, "
                          f"not from {src}")
    return splinemg


def parse_args(argv):
    from workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long cases, for the self-tests")
    parser.add_argument("--thread-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.thread_probe:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def thread_probe_p50_us(sm) -> float:
    """Median Cholesky-solve call time of a short traced mg2d p=8 l=7 solve
    at the thread count in effect in this process."""
    import harness
    import tracing
    from workloads import Case

    case = Case("mg", 2, 8, 7, sm.min_smoother_level(8) - 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_case(sm, case, 0, 0, tracer, max_iter=PROBE_CYCLES,
                         gate=False)
    finally:
        tracer.uninstall()
    return tracing.solve_call_p50_us(tracer.spans)


def probe_default_threads() -> dict:
    """Run the thread probe in a child process with no thread variable set."""
    env = {k: v for k, v in os.environ.items()
           if k not in envinfo.THREAD_VARS}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--thread-probe"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=90)
    if proc.returncode != 0:
        raise RuntimeError(f"thread probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(sm, cases, seed: int, seconds: float):
    """Half the time untraced, half traced, then the thread probe at one
    thread and, in a child process, at the default thread count; returns
    (samples, per-layer metrics, detail for the record)."""
    import harness
    import tracing

    untraced, _ = harness.measure(sm, cases, seed, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, wall = harness.measure(sm, cases, seed, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    runs = [sum(1 for s in traced if s.case == c) for c in range(len(cases))]
    rounds = len(traced) / len(cases)
    metrics = tracing.layer_metrics(tracer.spans, runs)
    e2e_off = harness.end_to_end(cases, untraced)
    e2e_on = harness.end_to_end(cases, traced)
    metrics["solver.cycles"] = (e2e_on["cycles"]["median"], "count")
    metrics["solver.contraction"] = (harness.contraction(traced), "ratio")
    metrics["bench.trace_overhead"] = (
        e2e_on["time_to_solution_s"]["median"]
        / e2e_off["time_to_solution_s"]["median"] - 1.0, "ratio")
    metrics["bench.unattributed_s"] = (
        (wall - tracing.covered_time(tracer.spans)) / rounds, "s")
    for name in ("solve_s", "time_to_solution_s", "reference_ms"):
        metrics[f"bench.{name}"] = (e2e_off[name]["median"],
                                    e2e_off[name]["unit"])
    child = probe_default_threads()
    metrics["linalg.probe_solve_p50_us.t1"] = (thread_probe_p50_us(sm), "us")
    metrics["linalg.probe_solve_p50_us.tdefault"] = (child["p50_us"], "us")
    return untraced + traced, metrics, {"untraced": e2e_off,
                                        "traced": e2e_on,
                                        "probe_child": child}


def main(argv=None, thread_env_before=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        sm = import_library(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness
    import workloads

    if args.thread_probe:
        p50 = thread_probe_p50_us(sm)
        print(json.dumps({"p50_us": p50,
                          "blas_threads": envinfo.blas_threads_in_effect()}))
        return 0

    def auto_coarse(p):
        return sm.min_smoother_level(p) - 1

    cases = workloads.build_cases(args.workload, auto_coarse, args.smoke)
    # warm-up: lazy imports, and the first run of a case, which runs up to
    # half again as long while the process's heap grows, stay untimed
    for index, case in enumerate(cases):
        harness.run_case(sm, case, index, args.seed, gate=False)

    if args.trace:
        samples, layer, detail = traced_run(sm, cases, args.seed, args.seconds)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
    else:
        samples, _ = harness.measure(sm, cases, args.seed, args.seconds)
        detail = harness.end_to_end(cases, samples)
        detail["peak_rss_mb"] = {
            "median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
        metrics = {name: {"value": detail[name]["median"],
                          "unit": detail[name]["unit"]}
                   for name in ("setup_s", "solve_rel", "time_to_solution_rel",
                                "cycles", "peak_rss_mb")}

    failed = [s for s in samples if s.failures]
    environment = envinfo.describe(ROOT, thread_env_before or {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment,
        "cases": [c.name for c in cases],
        "runs_per_case": [sum(1 for s in samples if s.case == i)
                          for i in range(len(cases))],
        "cycles_per_case": [next(s.cycles for s in samples if s.case == i)
                            for i in range(len(cases))],
        "times_per_case": [[[s.setup_s, s.solve_s, s.verify_s, s.ref_s,
                             s.solve_ref_s]
                            for s in samples if s.case == i]
                           for i in range(len(cases))],
        "failures": [f"{cases[s.case].name}: {'; '.join(s.failures)}"
                     for s in failed],
        "detail": detail, "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = RESULTS / f"{stem}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {environment['blas_threads']}  "
          f"commit {environment['git_commit']}")
    for line in record["failures"]:
        print(f"FAIL {line}")
    if not args.trace:
        for name, stats in detail.items():
            extra = "  ".join(f"{k}={v:.6g}" for k, v in stats.items()
                              if k not in ("median", "unit"))
            print(f"{name} = {stats['median']:.6g} {stats['unit']}  {extra}")
    else:
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        print(f"thread probe child BLAS threads "
              f"{detail['probe_child']['blas_threads']}")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    before = None if "--thread-probe" in sys.argv else pin_blas_threads()
    sys.exit(main(thread_env_before=before))
