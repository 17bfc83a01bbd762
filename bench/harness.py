"""Closed-loop measurement of one workload, its correctness gates and metrics.

The library is reached only through its public API (``sm`` is the imported
``splinemg`` package); every call looks the function up on the package at
call time, so a traced run sees the tracer's wrappers and an untraced run the
library's own functions.

Before the setup and before the solve of every timed case run,
:meth:`Reference.time_s` times a fixed computation that uses no library
code. The host's speed drifts by tens of percent within a minute and moves
every code path alike, so a phase's time divided by the reference time
measured just before it repeats far better than the time alone; a change
to the library moves the ratio as it moves the time.
"""
from __future__ import annotations

import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from workloads import Case


@dataclass
class Sample:
    """One run of one case."""

    case: int
    setup_s: float = 0.0           # build_hierarchy + assemble_load
    solve_s: float = 0.0           # solve_mg / solve_pcg
    verify_s: float = 0.0          # run_verify
    ref_s: float = 0.0             # reference time before setup / verify
    solve_ref_s: float = 0.0       # reference time before the solve
    cycles: int = 0
    contraction: float | None = None
    failures: list[str] = field(default_factory=list)


class Reference:
    """Inputs of the reference computation, built once per process."""

    def __init__(self):
        n = 100_000
        offsets = list(range(-4, 5))
        self.sparse = scipy.sparse.diags(
            [np.full(n - abs(k), 1.0 / (1 + abs(k))) for k in offsets],
            offsets, format="csr")
        self.vector = np.random.default_rng(0).uniform(0.0, 1.0, n)
        # diagonally dominant, so symmetric positive definite
        self.band = np.full((5, 20_000), 0.1)
        self.band[0] = 4.0

    def time_s(self) -> float:
        """Wall time of a fixed mix of the work the solver does: interpreted
        loops, small-array numpy calls, sparse products, a banded Cholesky."""
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        y = self.vector
        for _ in range(5):
            y = self.sparse @ y
        scipy.linalg.cholesky_banded(self.band, lower=True)
        head = self.vector[:64]
        for _ in range(300):
            total += float(np.dot(head, head)) + float(np.sum(head))
        return time.perf_counter() - start


def initial_guess(seed: int, n: int) -> np.ndarray:
    """uniform(0, 1) start vector; seed 0 is the library's experiment guess."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, n)


def check_solve(case: Case, h, cfg, f, u0, u, report) -> list[str]:
    """Correctness gate of one solve, on residuals the benchmark recomputes."""
    A = h.finest.disc.A if case.dim == 1 else h.finest.op
    r0 = float(np.linalg.norm(f - A.apply(u0)))
    r = float(np.linalg.norm(f - A.apply(u)))
    failures = []
    if not report.converged:
        failures.append(f"not converged after {report.iterations} cycles")
    if not r <= cfg.tol * r0:
        failures.append(f"residual reduction {r / r0:.3e} above tol {cfg.tol}")
    if case.reference is not None and \
            abs(report.iterations - case.reference) > case.cycle_tolerance():
        failures.append(f"{report.iterations} cycles, reference "
                        f"{case.reference} +- {case.cycle_tolerance():g}")
    return failures


def run_case(sm, case: Case, index: int, seed: int, tracer=None,
             max_iter: int | None = None, gate: bool = True,
             reference: Reference | None = None) -> Sample:
    """Run one case, timing ``reference`` (if given) before each phase; the
    gate runs with tracing suspended."""
    quiet = tracer.suspended() if tracer is not None else nullcontext()
    sample = Sample(case=index)
    if reference is not None:
        sample.ref_s = reference.time_s()
    if case.kind == "verify":
        start = time.perf_counter()
        results = sm.cli.run_verify(list(range(1, case.degree + 1)),
                                    [case.level], d=case.dim)
        sample.verify_s = time.perf_counter() - start
        sample.failures = [f"{r.name} p={r.degree} l={r.level}: {r.value:g} "
                           f"vs {r.bound:g} FAIL"
                           for r in results if r.status == "FAIL"]
        if not any(r.status == "PASS" for r in results):
            sample.failures.append("no verification check passed")
        return sample

    cfg = sm.CycleConfig() if max_iter is None else \
        sm.CycleConfig(max_iter=max_iter)
    start = time.perf_counter()
    h = sm.build_hierarchy(case.dim, case.degree, case.coarse, case.level)
    f = sm.assemble_load(h.finest.space, case.dim)
    sample.setup_s = time.perf_counter() - start
    u0 = initial_guess(seed, f.shape[0])
    solve = sm.solve_pcg if case.kind == "pcg" else sm.solve_mg
    if reference is not None:
        sample.solve_ref_s = reference.time_s()
    start = time.perf_counter()
    u, report = solve(h, cfg, f, u0)
    sample.solve_s = time.perf_counter() - start
    sample.cycles = report.iterations
    history = report.residual_history
    if report.iterations and history[0] > 0 and history[-1] > 0:
        sample.contraction = (history[-1] / history[0]) ** (1 / report.iterations)
    if gate:
        with quiet:
            sample.failures = check_solve(case, h, cfg, f, u0, u, report)
    return sample


def measure(sm, cases: list[Case], seed: int, seconds: float,
            tracer=None) -> tuple[list[Sample], float]:
    """Run the cases round-robin, one after another, until ``seconds`` have
    passed and every case has run at least once; returns the samples and
    the wall time taken. A case that raises is recorded as failed."""
    reference = Reference()
    samples = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        index = i % len(cases)
        if tracer is not None:
            tracer.case = index
        try:
            samples.append(run_case(sm, cases[index], index, seed, tracer,
                                    reference=reference))
        except Exception as exc:  # a case that raises is a failed case
            traceback.print_exc()
            samples.append(Sample(case=index, failures=[
                f"raised {type(exc).__name__}: {exc}"]))
        i += 1
    return samples, time.perf_counter() - start


def per_case(samples: list[Sample], n_cases: int, attr: str) -> list[list]:
    out: list[list] = [[] for _ in range(n_cases)]
    for s in samples:
        out[s.case].append(getattr(s, attr))
    return out


def distribution(values: list[list[float]]) -> dict:
    """Median, run count and the highest percentile with at least ten runs
    beyond it (the maximum when there are fewer than eleven), each summed
    over cases."""
    n = min(len(v) for v in values)
    out = {"median": float(sum(statistics.median(v) for v in values)),
           "runs_per_case": n}
    if n > 10:
        q = 100.0 * (1.0 - 10.0 / n)
        out[f"p{q:.0f}"] = float(sum(np.percentile(v, q) for v in values))
    else:
        out["max"] = float(sum(max(v) for v in values))
    return out


def _relative(s: Sample) -> tuple[float, float]:
    """(solve, whole run) of one case run, each phase divided by the
    reference time measured before it; 0 for a phase that did not run."""
    def ratio(t, ref):
        return t / ref if ref > 0 else 0.0
    solve = ratio(s.solve_s, s.solve_ref_s)
    return solve, solve + ratio(s.setup_s + s.verify_s, s.ref_s)


def end_to_end(cases: list[Case], samples: list[Sample]) -> dict[str, dict]:
    """End-to-end figures: times as sums over cases of per-case medians;
    ``*_rel`` are in units of the reference time (see :func:`_relative`)."""
    n = len(cases)
    setup = per_case(samples, n, "setup_s")
    solve = per_case(samples, n, "solve_s")
    verify = per_case(samples, n, "verify_s")
    total = [[a + b + c for a, b, c in zip(*runs)]
             for runs in zip(setup, solve, verify)]
    relative = [[_relative(s) for s in samples if s.case == c]
                for c in range(n)]
    cycles = per_case(samples, n, "cycles")
    out = {
        "setup_s": dict(distribution(setup), unit="s"),
        "solve_s": dict(distribution(solve), unit="s"),
        "time_to_solution_s": dict(distribution(total), unit="s"),
        "solve_rel": dict(distribution([[r[0] for r in runs]
                                        for runs in relative]), unit="ratio"),
        "time_to_solution_rel": dict(distribution([[r[1] for r in runs]
                                                   for runs in relative]),
                                     unit="ratio"),
        "reference_ms": {"median": 1e3 * float(statistics.median(
            [s.ref_s for s in samples if s.ref_s > 0] or [0.0])),
            "unit": "ms"},
        "cycles": {"median": float(sum(statistics.median(c) for c in cycles)),
                   "unit": "count"},
    }
    failed = sum(1 for s in samples if s.failures)
    out["failed_fraction"] = {"median": failed / len(samples),
                              "unit": "fraction"}
    return out


def contraction(samples: list[Sample]) -> float:
    """Geometric mean over solves of the per-cycle residual reduction."""
    values = [s.contraction for s in samples if s.contraction is not None]
    if not values:
        return 0.0
    return float(np.exp(np.mean(np.log(values))))
