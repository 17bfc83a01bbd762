"""Span tracing of the library from outside it, and the per-layer metrics.

A :class:`Tracer` replaces the public functions and methods of the library
that callers use with wrappers recording one span per call: name, start,
end, parent span and the case being run. Functions are replaced under every
module name they are bound to, so calls between library modules are traced
too. Spans stay in memory; :func:`layer_metrics` turns them into self and
inclusive times per layer once the run is over. Nothing is replaced until
:meth:`Tracer.install` runs, and :meth:`Tracer.uninstall` puts every
original back.

The work of Cholesky solves and of the 2D operator apply is computed from
array shapes (flops and bytes, labelled as computed); no memory bandwidth is
measured.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "splinemg"

#: levels with their own metrics (the levels the 2D level-7 cases smooth on)
PER_LEVEL = (3, 4, 5, 6, 7)


def _band_nnz(mat) -> int:
    n, b = mat.order, mat.bandwidth
    return (2 * b + 1) * n - b * (b + 1)


def _solve_work(factor, rhs):
    """(right-hand sides, flops, bytes) of a forward plus a back substitution."""
    n = factor.order
    shape = np.shape(rhs)
    k = 1 if len(shape) == 1 else shape[1]
    if factor.kind == "banded":
        b = factor.factor.shape[0] - 1
        flops = 2 * k * n * (2 * b + 1)
        factor_bytes = 8 * (b + 1) * n
    else:
        flops = 2 * k * n * n
        factor_bytes = 4 * n * (n + 1)
    # each substitution reads the factor and the right-hand sides once and
    # writes the solution once
    return k, flops, 2 * (factor_bytes + 16 * n * k)


def _op_apply_work(op, v):
    """(1, flops, bytes) of K(x)M + M(x)K + M(x)M applied as four sparse
    products with an m x m block and two additions."""
    m = op.disc.space.dim
    nnz = _band_nnz(op.disc.K) + _band_nnz(op.disc.M)
    return 1, 4 * m * nnz + 2 * m * m, 24 * nnz + 112 * m * m


def _cycle_level(h, cfg, idx, *args, **kwargs):
    return h.coarse_level + idx, h.coarse_level


def _solve_extra(self, rhs, *args, **kwargs):
    return _solve_work(self, rhs)


def _op_extra(self, v, *args, **kwargs):
    return _op_apply_work(self, v)


#: (module, function or Class.method, argument digest recorded on the span)
TRACED = (
    ("splines", "build_space", None),
    ("splines", "eval_basis", None),
    ("splines", "eval_basis_derivatives", None),
    ("splines", "eval_spline", None),
    ("splines", "index_split", None),
    ("linalg", "cholesky", None),
    ("linalg", "CholeskyFactor.solve", _solve_extra),
    ("linalg", "BandedSymMatrix.apply", None),
    ("linalg", "BandedSymMatrix.principal_submatrix", None),
    ("linalg", "BandedSymMatrix.rectangular_block", None),
    ("linalg", "BandedSymMatrix.toarray", None),
    ("linalg", "kron_apply", None),
    ("linalg", "generalized_eig_max", None),
    ("linalg", "operator_norm", None),
    ("assembly", "assemble_1d", None),
    ("assembly", "operator_2d", None),
    ("assembly", "apply_operator_2d", None),
    ("assembly", "assemble_load", None),
    ("assembly", "Operator2D.apply", _op_extra),
    ("transfer", "build_prolongation", None),
    ("transfer", "prolong", None),
    ("transfer", "restrict", None),
    ("transfer", "prolong_2d", None),
    ("transfer", "restrict_2d", None),
    ("smoother", "build_smoother_1d", None),
    ("smoother", "build_smoother_2d", None),
    ("smoother", "apply_Linv_1d", None),
    ("smoother", "apply_Linv_2d", None),
    ("smoother", "smooth_1d", None),
    ("smoother", "smooth_2d", None),
    ("smoother", "smooth_step_1d", None),
    ("smoother", "smooth_step_2d", None),
    ("smoother", "Smoother1D.step_direction", None),
    ("solver", "build_hierarchy", None),
    ("solver", "mg_cycle", _cycle_level),
    ("solver", "solve_mg", None),
    ("solver", "solve_pcg", None),
    ("verify", "build_constraint_basis", None),
    ("verify", "verify_inverse_inequality", None),
    ("verify", "verify_counterexample", None),
    ("verify", "verify_approximation_constant", None),
    ("verify", "measure_CA", None),
    ("verify", "measure_smoothing_constant", None),
    ("verify", "smoother_energy_norm", None),
    ("cli", "run_verify", None),
)

#: verification check families and the functions that measure them
VERIFY_FAMILIES = {
    "inverse_inequality": "verify.verify_inverse_inequality",
    "counterexample": "verify.verify_counterexample",
    "approximation_constant": "verify.verify_approximation_constant",
    "approximation_property": "verify.measure_CA",
    "smoothing_constant": "verify.measure_smoothing_constant",
    "energy_norm": "verify.smoother_energy_norm",
}

# span fields
NAME, START, END, PARENT, CASE, EXTRA = range(6)


class Tracer:
    """Records spans of traced library calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = -1                     # index of the case being run
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._recording = False

    def _wrap(self, name: str, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case,
                    extra(*args, **kwargs) if extra else None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every traced function and method with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        try:
            for module, qualname, extra in TRACED:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                name = f"{module}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(name, original, extra))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(name, original, extra)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise
        self._recording = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced function and method back."""
        self._recording = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        before, self._recording = self._recording, False
        try:
            yield
        finally:
            self._recording = before


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(values, q))


def layer_metrics(spans: list[list], case_runs: list[int]) -> dict[str, tuple]:
    """Per-layer metrics as (value, unit), each per pass over the cases.

    ``case_runs[c]`` is how often case ``c`` ran while tracing; a span of
    case ``c`` contributes ``1 / case_runs[c]`` of its time or count, so the
    figures do not depend on how many passes fit into the run.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    children = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, children)]
    weight = [1.0 / case_runs[s[CASE]] for s in spans]

    # level of the innermost enclosing cycle; solves called by a cycle
    # directly are coarse-grid solves
    level: list[int | None] = [None] * n
    coarse = [False] * n
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if s[NAME] == "solver.mg_cycle":
            level[i] = s[EXTRA][0]
        elif parent >= 0:
            level[i] = level[parent]
            if spans[parent][NAME] == "solver.mg_cycle" and \
                    s[NAME] == "linalg.CholeskyFactor.solve":
                coarse[i] = True
                level[i] = spans[parent][EXTRA][1]

    def members(names) -> list[int]:
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def outermost(names) -> list[int]:
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for i in members(names):
            parent = spans[i][PARENT]
            while parent >= 0 and spans[parent][NAME] not in names:
                parent = spans[parent][PARENT]
            if parent < 0:
                out.append(i)
        return out

    def wsum(idx, values) -> float:
        return float(sum(weight[i] * values[i] for i in idx))

    def calls(idx) -> float:
        # a whole number whenever every run of a case does the same work
        return float(round(sum(weight[i] for i in idx), 6))

    def incl(names) -> float:
        return wsum(outermost(names), dur)

    def layer_self(layer: str) -> float:
        return wsum([i for i, s in enumerate(spans)
                     if s[NAME].startswith(layer + ".")], self_time)

    def work(idx, field: int) -> float:
        return float(sum(weight[i] * spans[i][EXTRA][field] for i in idx))

    def rate(flops: float, seconds: float) -> float:
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    m: dict[str, tuple] = {}
    evals = members(("splines.eval_basis", "splines.eval_basis_derivatives"))
    m["splines.eval_calls"] = (calls(evals), "count")
    m["splines.eval_s"] = (incl(("splines.eval_basis",
                                 "splines.eval_basis_derivatives")), "s")
    m["splines.self_s"] = (layer_self("splines"), "s")

    op_spans = members("assembly.Operator2D.apply")
    op_s = wsum(op_spans, dur)
    m["assembly.assemble_s"] = (incl("assembly.assemble_1d"), "s")
    m["assembly.load_s"] = (incl("assembly.assemble_load"), "s")
    m["assembly.op_apply_calls"] = (calls(op_spans), "count")
    m["assembly.op_apply_s"] = (op_s, "s")
    m["assembly.op_apply_flop_computed"] = (work(op_spans, 1), "flop")
    m["assembly.op_apply_byte_computed"] = (work(op_spans, 2), "B")
    m["assembly.op_apply_gflops"] = (rate(work(op_spans, 1), op_s), "GFLOP/s")
    m["assembly.self_s"] = (layer_self("assembly"), "s")

    restricts = members(("transfer.restrict", "transfer.restrict_2d"))
    prolongs = members(("transfer.prolong", "transfer.prolong_2d"))
    m["transfer.build_s"] = (incl("transfer.build_prolongation"), "s")
    m["transfer.restrict_calls"] = (calls(restricts), "count")
    m["transfer.restrict_s"] = (wsum(restricts, dur), "s")
    m["transfer.prolong_calls"] = (calls(prolongs), "count")
    m["transfer.prolong_s"] = (wsum(prolongs, dur), "s")
    m["transfer.self_s"] = (layer_self("transfer"), "s")

    factors = members("linalg.cholesky")
    solves = members("linalg.CholeskyFactor.solve")
    solve_s = wsum(solves, dur)
    solve_us = [dur[i] * 1e6 for i in solves]
    m["linalg.factor_calls"] = (calls(factors), "count")
    m["linalg.factor_s"] = (wsum(factors, dur), "s")
    m["linalg.solve_calls"] = (calls(solves), "count")
    m["linalg.solve_rhs"] = (work(solves, 0), "count")
    m["linalg.solve_s"] = (solve_s, "s")
    m["linalg.solve_call_p50_us"] = (_percentile(solve_us, 50), "us")
    m["linalg.solve_call_p99_us"] = (_percentile(solve_us, 99), "us")
    m["linalg.solve_flop_computed"] = (work(solves, 1), "flop")
    m["linalg.solve_byte_computed"] = (work(solves, 2), "B")
    m["linalg.solve_gflops"] = (rate(work(solves, 1), solve_s), "GFLOP/s")
    m["linalg.band_apply_s"] = (incl("linalg.BandedSymMatrix.apply"), "s")
    m["linalg.block_s"] = (incl(("linalg.BandedSymMatrix.rectangular_block",
                                 "linalg.BandedSymMatrix.principal_submatrix")),
                           "s")
    m["linalg.eig_s"] = (incl(("linalg.generalized_eig_max",
                               "linalg.operator_norm")), "s")
    m["linalg.self_s"] = (layer_self("linalg"), "s")

    smooths = members(("smoother.smooth_1d", "smoother.smooth_2d"))
    m["smoother.build_s"] = (incl(("smoother.build_smoother_1d",
                                   "smoother.build_smoother_2d")), "s")
    m["smoother.smooth_calls"] = (calls(smooths), "count")
    m["smoother.smooth_s"] = (wsum(smooths, self_time), "s")
    m["smoother.self_s"] = (layer_self("smoother"), "s")

    top_cycles = outermost("solver.mg_cycle")
    cycle_count = calls(top_cycles)
    m["solver.cycle_ms"] = (wsum(top_cycles, dur) / cycle_count * 1e3
                            if cycle_count else 0.0, "ms")
    m["solver.self_s"] = (layer_self("solver"), "s")
    m["solver.coarse_solve_s"] = (wsum([i for i in solves if coarse[i]], dur),
                                  "s")

    for family, name in VERIFY_FAMILIES.items():
        m[f"verify.check_s.{family}"] = (incl(name), "s")
    m["verify.self_s"] = (layer_self("verify"), "s")
    m["cli.verify_self_s"] = (layer_self("cli"), "s")

    m["bench.spans"] = (calls(range(n)), "count")

    for lv in PER_LEVEL:
        at = [i for i in range(n) if level[i] == lv]
        at_set = set(at)
        m[f"smoother.smooth_s.l{lv}"] = (
            wsum([i for i in smooths if i in at_set], self_time), "s")
        m[f"linalg.solve_s.l{lv}"] = (
            wsum([i for i in solves if i in at_set], dur), "s")
        m[f"transfer.restrict_s.l{lv}"] = (
            wsum([i for i in restricts if i in at_set], dur), "s")
        m[f"transfer.prolong_s.l{lv}"] = (
            wsum([i for i in prolongs if i in at_set], dur), "s")
    return m


def covered_time(spans: list[list]) -> float:
    """Total duration of root spans (time spent inside any traced layer)."""
    return float(sum(s[END] - s[START] for s in spans if s[PARENT] < 0))


def solve_call_p50_us(spans: list[list]) -> float:
    us = [(s[END] - s[START]) * 1e6 for s in spans
          if s[NAME] == "linalg.CholeskyFactor.solve"]
    return _percentile(us, 50)
