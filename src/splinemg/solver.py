"""Multigrid hierarchy, V/W cycles (one recursion for d = 1 and d = 2; the
two-grid method is a V-cycle on a two-level hierarchy), and V-cycle
preconditioned CG."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import Discretization1D, Operator2D, assemble_1d, operator_2d
from .linalg import BandedSymMatrix, BlockBandMatrix, CholeskyFactor, \
    KronSumSolver, cholesky
from .smoother import TAU_DEFAULT, Smoother1D, Smoother2D, \
    build_smoother_1d, build_smoother_2d, damping, smooth_1d, smooth_2d
from .splines import SplineSpace, build_space
from .transfer import SparseEmbedding, build_prolongation, prolong, \
    prolong_2d, restrict, restrict_2d

__all__ = [
    "Level",
    "MgHierarchy",
    "CycleConfig",
    "SolveReport",
    "TAU_DEFAULT",
    "experiment_initial_guess",
    "min_smoother_level",
    "build_hierarchy",
    "mg_cycle",
    "solve_mg",
    "solve_pcg",
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
    op: BandedSymMatrix | Operator2D       # system operator: disc.A in 1D
    smoother: Smoother1D | Smoother2D | None = None
    # embedding from the next coarser level, held with its transpose
    P: SparseEmbedding | BlockBandMatrix | None = None
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
        if self.pre_smooth < 0 or self.post_smooth < 0:
            raise ValueError("smoothing step counts must be non-negative")
        if self.pre_smooth + self.post_smooth < 1:
            raise ValueError("at least one smoothing step is required")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    iterations: int
    residual_history: list[float]
    #: "converged", "max_iter", "non-finite" (a residual or a CG scalar is
    #: NaN or infinite) or "breakdown" (CG met r^T z <= 0 or p^T A p <= 0)
    stop_reason: str
    wall_time: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def min_smoother_level(p: int) -> int:
    """Smallest level whose space admits the smoother (n >= p + 1)."""
    level = 0
    while 2**level < p + 1:
        level += 1
    return level


def build_hierarchy(d: int, p: int, coarse_level: int, fine_level: int,
                    tau: float | None = None) -> MgHierarchy:
    """Build spaces, operators, smoothers and transfers for the given levels.

    Every level above the coarsest must have at least p+1 intervals so that
    its interior block is nonempty; the coarsest level itself only needs a
    direct solve and may be one step below that threshold.
    """
    tau = damping(d, tau)
    if fine_level <= coarse_level:
        raise ValueError(
            f"fine level {fine_level} must exceed coarse level {coarse_level}")
    min_admissible = min_smoother_level(p) - 1
    if coarse_level < min_admissible:
        raise ValueError(
            f"coarse level {coarse_level} too coarse for degree {p}: "
            f"level {coarse_level + 1} has {2**(coarse_level + 1)} < {p + 1} "
            f"intervals; minimal admissible coarse level is {min_admissible}")

    levels: list[Level] = []
    for lv in range(coarse_level, fine_level + 1):
        space = build_space(p, lv)
        disc = assemble_1d(space)
        lvl = Level(space, disc, disc.A if d == 1 else operator_2d(disc))
        if not levels:                  # the coarsest level: a direct solver
            lvl.direct = (cholesky(lvl.op, "coarse system matrix") if d == 1
                          else lvl.op.direct_solver())
        elif d == 1:
            lvl.smoother = build_smoother_1d(disc, tau)
            lvl.P = SparseEmbedding(build_prolongation(levels[-1].space, space))
        else:
            lvl.smoother = build_smoother_2d(lvl.op, tau)
            lvl.P = BlockBandMatrix.from_dense(
                build_prolongation(levels[-1].space, space).toarray())
        levels.append(lvl)
    return MgHierarchy(dim=d, degree=p, coarse_level=coarse_level,
                       fine_level=fine_level, levels=levels)


def _checked_vector(name: str, v, n: int) -> np.ndarray:
    """Copy of ``v`` as a float vector; ValueError naming ``name`` unless it
    has length ``n`` and finite entries."""
    v = np.array(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def mg_cycle(h: MgHierarchy, cfg: CycleConfig, idx: int, u: np.ndarray,
             f: np.ndarray) -> np.ndarray:
    """One multigrid cycle at level index ``idx`` (0 = coarsest) for A u = f."""
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


def _report(iterations: int, history: list[float], stop: str | None,
            start: float) -> SolveReport:
    return SolveReport(iterations, history, stop or "max_iter",
                       time.perf_counter() - start)


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
    f = _checked_vector("f", f, A.shape[0])
    u = np.zeros_like(f) if u0 is None else _checked_vector("u0", u0, len(f))
    r0 = float(np.linalg.norm(f - A.apply(u)))
    history = [r0]
    stop = _residual_stop(r0, 0.0)
    iterations = 0
    while stop is None and iterations < cfg.max_iter:
        u = mg_cycle(h, cfg, top, u, f)
        res = float(np.linalg.norm(f - A.apply(u)))
        history.append(res)
        iterations += 1
        stop = _residual_stop(res, cfg.tol * r0)
    return u, _report(iterations, history, stop, start)


def solve_pcg(h: MgHierarchy, cfg: CycleConfig, f: np.ndarray,
              u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by one multigrid cycle.

    Requires a symmetric cycle (equal pre- and post-smoothing counts) so the
    preconditioner is an SPD operator. The stopping rule (reduction of the
    unpreconditioned residual) and the input checks match :func:`solve_mg`;
    it also stops, with ``stop_reason`` "breakdown", at the first
    r^T z <= 0 or p^T A p <= 0.
    """
    if cfg.pre_smooth != cfg.post_smooth:
        raise ValueError(
            "preconditioner must be symmetric: pre_smooth == post_smooth "
            f"(got {cfg.pre_smooth}, {cfg.post_smooth})")
    start = time.perf_counter()
    top = len(h.levels) - 1
    A = h.finest.op

    def precond(res: np.ndarray) -> np.ndarray:
        return mg_cycle(h, cfg, top, np.zeros_like(res), res)

    f = _checked_vector("f", f, A.shape[0])
    u = np.zeros_like(f) if u0 is None else _checked_vector("u0", u0, len(f))
    r = f - A.apply(u)
    r0 = float(np.linalg.norm(r))
    history = [r0]
    stop = _residual_stop(r0, 0.0)
    iterations = 0
    if stop is None:
        z = precond(r)
        p = z.copy()
        rho = float(r @ z)
        stop = _cg_scalar_stop(rho)
    while stop is None and iterations < cfg.max_iter:
        q = A.apply(p)
        pq = float(p @ q)
        stop = _cg_scalar_stop(pq)
        if stop:
            break
        alpha = rho / pq
        u = u + alpha * p
        r = r - alpha * q
        res = float(np.linalg.norm(r))
        history.append(res)
        iterations += 1
        stop = _residual_stop(res, cfg.tol * r0)
        if stop:
            break
        z = precond(r)
        rho_new = float(r @ z)
        stop = _cg_scalar_stop(rho_new)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return u, _report(iterations, history, stop, start)
