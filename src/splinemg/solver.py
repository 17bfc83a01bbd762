"""Multigrid hierarchy, V/W cycles (one recursion for d = 1 and d = 2; the
two-grid method is a V-cycle on a two-level hierarchy), and V-cycle
preconditioned CG. Both solvers share one start (the checked f and u0, the
first residual, the history and the first stop reason) and one report.
:func:`run_table` solves a grid of (level, degree) cells with either one.

Every 1D level is held in the coordinates of its mirror butterfly G (see
:func:`~splinemg.linalg.butterfly`): iterates and corrections are primal,
u = G y, loads and residuals dual, r~ = G^T r. The level operator is the
band G^T A G, the coarsest factor that of G_c^T A_c G_c, the prolongation
G_f^-1 P G_c and the restriction its transpose, so a cycle runs no
transform; a solve folds f and u0 in once and u out once, and measures
||r|| as (r~^T D^2 r~)^1/2, D^2 = (G^T G)^-1. 2D coordinates are the
identity."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import Discretization1D, Operator2D, assemble_1d, \
    assemble_load, operator_2d
from .linalg import BandedSymMatrix, CholeskyFactor, KronSumSolver, \
    NotSPDError, butterfly, butterfly_T, butterfly_weight, cholesky, \
    parity_band
from .smoother import TAU_DEFAULT, Smoother1D, Smoother2D, \
    build_smoother_1d, build_smoother_2d, damping, smooth_1d, smooth_2d
from .splines import SplineSpace, as_integer, build_space
from .transfer import Embedding, parity_embedding, prolong, prolong_2d, \
    restrict, restrict_2d, window_embedding

__all__ = [
    "Level",
    "MgHierarchy",
    "CycleConfig",
    "SolveReport",
    "InadmissibleLevels",
    "TAU_DEFAULT",
    "experiment_initial_guess",
    "min_smoother_level",
    "build_hierarchy",
    "mg_cycle",
    "solve_mg",
    "solve_pcg",
    "ExperimentConfig",
    "TableResult",
    "run_table",
]

def experiment_initial_guess(n: int) -> np.ndarray:
    """Deterministic pseudo-random start vector for iteration-count runs.

    The model right-hand side has a very smooth solution; starting from zero,
    the first cycle wipes out almost the entire error and the count says
    little about the contraction rate. A fixed-seed random start excites the
    whole spectrum, so counts reflect the asymptotic rate while staying
    byte-reproducible.
    """
    return np.random.default_rng(0).uniform(0.0, 1.0, n)


@dataclass
class Level:
    """Grid level: operators plus smoother and transfer, or a direct solver."""

    space: SplineSpace
    disc: Discretization1D
    op: BandedSymMatrix | Operator2D       # in 1D G^T A G, A = disc.A
    smoother: Smoother1D | Smoother2D | None = None
    # embedding from the next coarser level in the levels' coordinates,
    # held with its transpose
    P: Embedding | None = None
    direct: CholeskyFactor | KronSumSolver | None = field(default=None, repr=False)


@dataclass
class MgHierarchy:
    """Grid levels ordered coarse to fine, smoothers on all but the coarsest."""

    dim: int
    degree: int
    coarse_level: int
    fine_level: int
    levels: list[Level]

    @property
    def finest(self) -> Level:
        return self.levels[-1]


@dataclass
class CycleConfig:
    """Cycle shape and stopping parameters (the damping parameter is baked
    into the hierarchy's smoothers)."""

    cycle: str = "v"              # "v" | "w"
    pre_smooth: int = 1
    post_smooth: int = 1
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.cycle == "two-grid":
            raise ValueError(
                "the two-grid method is a 'v' cycle on a two-level hierarchy "
                "(coarse_level = fine_level - 1)")
        if self.cycle not in ("v", "w"):
            raise ValueError(f"unknown cycle type {self.cycle!r}")
        for name in ("pre_smooth", "post_smooth", "max_iter"):
            setattr(self, name, as_integer(name, getattr(self, name)))
        if self.pre_smooth < 0 or self.post_smooth < 0:
            raise ValueError("smoothing step counts must be non-negative")
        if self.pre_smooth + self.post_smooth < 1:
            raise ValueError("at least one smoothing step is required")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")

    def require_symmetric(self) -> None:
        """ValueError unless pre_smooth == post_smooth: CG needs an SPD cycle."""
        if self.pre_smooth != self.post_smooth:
            raise ValueError(
                "preconditioner must be symmetric: pre_smooth == post_smooth "
                f"(got {self.pre_smooth}, {self.post_smooth})")


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    ``max_iter`` bounds the iterations and the top-level cycles alike: a
    stop at ``max_iter`` has run ``max_iter`` of each, so in CG it can hide
    a breakdown that only a later iteration would meet.
    """

    iterations: int
    residual_history: list[float]
    #: "converged", "max_iter", "non-finite" (a residual or a CG scalar is
    #: NaN or infinite) or "breakdown" (CG met r^T z <= 0 or p^T A p <= 0)
    stop_reason: str
    wall_time: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class InadmissibleLevels(ValueError):
    """Coarse/fine levels that admit no hierarchy; raised before any setup."""


def min_smoother_level(p: int) -> int:
    """Smallest level whose space admits the smoother (n >= p + 1)."""
    return as_integer("degree", p).bit_length()


def _min_coarse_level(p: int) -> int:
    """Coarsest level a degree-``p`` hierarchy admits (its direct solve)."""
    return min_smoother_level(p) - 1


def build_hierarchy(d: int, p: int, coarse_level: int, fine_level: int,
                    tau: float | None = None) -> MgHierarchy:
    """Build spaces, operators, smoothers and transfers for the given levels.

    Every level above the coarsest must have at least p+1 intervals so that
    its interior block is nonempty; the coarsest level itself only needs a
    direct solve and may be one step below that threshold. Any other pair of
    levels raises :class:`InadmissibleLevels`, and a non-integer d, p or
    level a ValueError naming it.
    """
    tau = damping(d, tau)
    p, coarse_level, fine_level = (as_integer(name, v) for name, v in (
        ("degree", p), ("coarse_level", coarse_level),
        ("fine_level", fine_level)))
    if fine_level <= coarse_level:
        raise InadmissibleLevels(
            f"fine level {fine_level} must exceed coarse level {coarse_level}")
    min_admissible = _min_coarse_level(p)
    if coarse_level < min_admissible:
        raise InadmissibleLevels(
            f"coarse level {coarse_level} too coarse for degree {p}: "
            f"level {coarse_level + 1} has {2**(coarse_level + 1)} < {p + 1} "
            f"intervals; minimal admissible coarse level is {min_admissible}")

    levels: list[Level] = []
    for lv in range(coarse_level, fine_level + 1):
        space = build_space(p, lv)
        disc = assemble_1d(space)
        lvl = Level(space, disc, parity_band(disc.A, "1D system matrix")
                    if d == 1 else operator_2d(disc))
        if not levels and d == 1:       # the coarsest level: a direct solver
            lvl.direct = cholesky(lvl.op, "coarse system matrix")
            lvl.direct.upper            # in setup, not at the first solve
        elif not levels:                # of M (x) B + B (x) M, B = K + M/2
            M = disc.M.toarray()
            lvl.direct = KronSumSolver.build(M, disc.K.toarray() + M / 2.0,
                                             "2D system matrix")
        elif d == 1:            # in setup, not at the first apply or solve
            lvl.op.sparse
            lvl.smoother = build_smoother_1d(disc, tau)
            lvl.smoother.L_eff_solver.upper
            lvl.P = parity_embedding(levels[-1].space, space)
        else:
            lvl.smoother = build_smoother_2d(lvl.op, tau)
            lvl.P = window_embedding(levels[-1].space, space)
        levels.append(lvl)
    return MgHierarchy(dim=d, degree=p, coarse_level=coarse_level,
                       fine_level=fine_level, levels=levels)


def mg_cycle(h: MgHierarchy, cfg: CycleConfig, idx: int, u: np.ndarray,
             f: np.ndarray) -> np.ndarray:
    """One multigrid cycle at level index ``idx`` (0 = coarsest) for the
    level's operator: A u = f in 2D. In 1D ``u``, ``f`` and the result are
    in the level's coordinates, y = G^-1 u = D^2 G^T u and f~ = G^T f, for
    (G^T A G) y = f~; map vectors with :func:`~splinemg.linalg.butterfly_T`
    and :func:`~splinemg.linalg.butterfly_weight`, and the result back with
    :func:`~splinemg.linalg.butterfly`."""
    lvl = h.levels[idx]
    if idx == 0:
        return lvl.direct.solve(f)
    # module globals read per call, so a tracer that wraps them sees each one
    smooth, down, up = ((smooth_1d, restrict, prolong) if h.dim == 1
                        else (smooth_2d, restrict_2d, prolong_2d))
    A = lvl.op
    u, r = smooth(lvl.smoother, A, u, f - A.apply(u), cfg.pre_smooth)
    rc = down(lvl.P, r)
    ec = np.zeros_like(rc)
    # a W-cycle corrects twice, except above the coarsest level's exact solve
    for _ in range(2 if cfg.cycle == "w" and idx > 1 else 1):
        ec = mg_cycle(h, cfg, idx - 1, ec, rc)
    d = up(lvl.P, ec)
    u = u + d
    if cfg.post_smooth:
        u, r = smooth(lvl.smoother, A, u, r - A.apply(d), cfg.post_smooth)
    return u


def _norm(v: np.ndarray, weight: np.ndarray | None = None) -> float:
    """||v||, or (v^T D^2 v)^1/2 for the ``weight`` D^2 of 1D coordinates."""
    return math.sqrt(float(v @ v if weight is None else v @ (weight * v)))


def _residual_stop(res: float, target: float) -> str | None:
    """Stop reason after a residual norm, or None to go on."""
    if res <= target:
        return "converged"
    return None if math.isfinite(res) else "non-finite"


def _cg_scalar_stop(value: float) -> str | None:
    """Stop reason for a CG scalar (r^T z or p^T A p) that an SPD operator
    and preconditioner keep positive and finite, or None when it is."""
    if 0.0 < value < math.inf:
        return None
    return "breakdown" if math.isfinite(value) else "non-finite"


def _report(history: list[float], stop: str | None,
            start: float) -> SolveReport:   # an iteration per later residual
    return SolveReport(len(history) - 1, history, stop or "max_iter",
                       time.perf_counter() - start)


def _start(h: MgHierarchy, f, u0) -> tuple:
    """``f`` and ``u0`` (zero when None) as float vectors in the finest
    level's coordinates (1D: G^T f and D^2 G^T u0), the weight of its
    residual norm (1D: D^2, 2D: None), the first residual, a history
    holding its norm, and the first stop reason. ValueError naming ``f`` or
    ``u0`` unless it has the level's order and finite entries."""
    A, weight = h.finest.op, None
    n, checked = A.shape[0], []
    for name, v in (("f", f), ("u0", np.zeros(n) if u0 is None else u0)):
        v = np.array(v, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has non-finite entries")
        checked.append(v)
    f, u = checked
    if h.dim == 1:
        weight = butterfly_weight(n)
        f, u = butterfly_T(f), weight * butterfly_T(u)
    r = f - A.apply(u)
    history = [_norm(r, weight)]
    return f, u, r, weight, history, _residual_stop(history[0], 0.0)


def _physical(h: MgHierarchy, u: np.ndarray) -> np.ndarray:
    """The iterate u of the finest level's coordinates as a vector: G u in
    1D."""
    return butterfly(u) if h.dim == 1 else u


# a blow-up runs on without numpy warnings until stop_reason reports it
@np.errstate(over="ignore", invalid="ignore")
def solve_mg(h: MgHierarchy, cfg: CycleConfig, f: np.ndarray,
             u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Iterate cycles until ||f - A u|| <= tol * ||f - A u0||, a residual
    is not finite, or max_iter; ``stop_reason`` says which.

    Raises ValueError naming ``f`` or ``u0`` when it has the wrong length or
    a non-finite entry.
    """
    start = time.perf_counter()
    top = len(h.levels) - 1
    A = h.finest.op
    f, u, _, weight, history, stop = _start(h, f, u0)
    while stop is None and len(history) <= cfg.max_iter:
        u = mg_cycle(h, cfg, top, u, f)
        history.append(_norm(f - A.apply(u), weight))
        stop = _residual_stop(history[-1], cfg.tol * history[0])
    return _physical(h, u), _report(history, stop, start)


@np.errstate(over="ignore", invalid="ignore")
def solve_pcg(h: MgHierarchy, cfg: CycleConfig, f: np.ndarray,
              u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by one multigrid cycle z = B r per
    iteration (Saad, *Iterative Methods for Sparse Linear Systems*, Alg. 9.1)
    with the flexible beta = r^T (z - z_old) / rho_old (Notay 2000): rho /
    rho_old for a symmetric B, it also converges where rounding leaves the
    cycle unsymmetric (2D l=6, p=32/33).

    Requires a symmetric cycle (:meth:`CycleConfig.require_symmetric`). The
    stopping rule (reduction of the unpreconditioned residual, recomputed
    as f - A u once the updated one meets it), the input checks and the
    bound on the cycles match :func:`solve_mg`; it also stops, with
    ``stop_reason`` "breakdown", at the first r^T z <= 0 or p^T A p <= 0.
    """
    cfg.require_symmetric()
    start = time.perf_counter()
    top = len(h.levels) - 1
    A = h.finest.op
    f, u, r, weight, history, stop = _start(h, f, u0)
    p, z_old, rho_old = np.zeros_like(u), np.zeros_like(u), 1.0  # p = z + 0
    while stop is None and len(history) <= cfg.max_iter:
        z = mg_cycle(h, cfg, top, np.zeros_like(r), r)
        rho = float(r @ z)
        stop = _cg_scalar_stop(rho)
        if stop:
            break
        # not (rho - r^T z_old): that form reads breakdown@7 at 2D l=6, p=33
        p = z + (float(r @ (z - z_old)) / rho_old) * p
        q = A.apply(p)
        pq = float(p @ q)
        stop = _cg_scalar_stop(pq)
        if stop:
            break
        alpha = rho / pq
        u = u + alpha * p
        r = r - alpha * q
        history.append(_norm(r, weight))
        if history[-1] <= cfg.tol * history[0]:
            r = f - A.apply(u)
            history[-1] = _norm(r, weight)
        stop = _residual_stop(history[-1], cfg.tol * history[0])
        rho_old, z_old = rho, z
    return _physical(h, u), _report(history, stop, start)


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
            if self.coarse < 0:
                raise ValueError(f"coarse must be >= 0, got {self.coarse}")

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


def _coarse_for(config: ExperimentConfig, p: int, level: int) -> int:
    if config.cycle == "two-grid":
        return level - 1
    return _min_coarse_level(p) if config.coarse == "auto" else config.coarse


def run_table(config: ExperimentConfig) -> TableResult:
    """Solve every (level, degree) cell and collect counts; a cell whose
    levels :func:`build_hierarchy` rejects reads "-" and has no wall time,
    one whose setup loses definiteness "not-spd@0"."""
    cfg = config.cycle_config()
    # module globals read per call, so a tracer that wraps them sees each one
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
                _, out = solve(hier, cfg, f, experiment_initial_guess(len(f)))
                stop = out.stop_reason
                row.append(str(out.iterations) if out.converged else
                           f">{cfg.max_iter}" if stop == "max_iter" else
                           f"{stop}@{out.iterations}")
            trow.append(None if row[-1] == "-"
                        else time.perf_counter() - start)
        result.cells.append(row)
        result.timings.append(trow)
    return result
