"""Multigrid hierarchy, two-grid/V/W cycles, and V-cycle-preconditioned CG."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import scipy.sparse

from .assembly import Discretization1D, Operator2D, assemble_1d, operator_2d
from .linalg import BandedSymMatrix, CholeskyFactor, cholesky
from .smoother import Smoother1D, Smoother2D, build_smoother_1d, \
    build_smoother_2d, smooth_1d, smooth_2d
from .splines import SplineSpace, build_space
from .transfer import build_prolongation, prolong, prolong_2d, restrict, \
    restrict_2d

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

#: damping parameters used in the reference experiments, per dimension
TAU_DEFAULT = {1: 0.14, 2: 0.08}


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
    """One grid level: space, operators, smoother, transfer from one coarser."""

    space: SplineSpace
    disc: Discretization1D
    op: BandedSymMatrix | Operator2D       # system operator: disc.A in 1D
    smoother: Smoother1D | Smoother2D | None   # None on the coarsest level
    P: scipy.sparse.csr_matrix | None      # embedding from the next coarser level
    direct: CholeskyFactor | None = field(default=None, repr=False)


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

    cycle: str = "v"              # "two-grid" | "v" | "w"
    pre_smooth: int = 1
    post_smooth: int = 1
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.cycle not in ("two-grid", "v", "w"):
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
    converged: bool
    wall_time: float


def min_smoother_level(p: int, n0: int = 1) -> int:
    """Smallest level whose space admits the smoother (n >= p + 1)."""
    level = 0
    while n0 * 2**level < p + 1:
        level += 1
    return level


def _direct_factor(level: Level) -> CholeskyFactor:
    if level.direct is None:
        op = level.op
        level.direct = cholesky(
            op if isinstance(op, BandedSymMatrix) else op.toarray(),
            "coarse system matrix")
    return level.direct


def build_hierarchy(d: int, p: int, coarse_level: int, fine_level: int,
                    tau: float | None = None, damping: str | None = None,
                    n0: int = 1) -> MgHierarchy:
    """Build spaces, operators, smoothers and transfers for the given levels.

    Every level above the coarsest must have at least p+1 intervals so that
    its interior block is nonempty; the coarsest level itself only needs a
    direct solve and may be one step below that threshold.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if fine_level <= coarse_level:
        raise ValueError(
            f"fine level {fine_level} must exceed coarse level {coarse_level}")
    min_admissible = min_smoother_level(p, n0) - 1
    if coarse_level < min_admissible:
        raise ValueError(
            f"coarse level {coarse_level} too coarse for degree {p}: "
            f"level {coarse_level + 1} has {n0 * 2**(coarse_level + 1)} < {p + 1} "
            f"intervals; minimal admissible coarse level is {min_admissible}")
    if tau is None:
        tau = TAU_DEFAULT[d]
    if damping is None:
        damping = "mass" if d == 1 else "plain"

    levels: list[Level] = []
    for lv in range(coarse_level, fine_level + 1):
        space = build_space(p, lv, n0)
        disc = assemble_1d(space)
        op = disc.A if d == 1 else operator_2d(disc)
        smoother = None
        if lv > coarse_level:
            if d == 1:
                smoother = build_smoother_1d(disc, tau, damping)
            else:
                smoother = build_smoother_2d(disc, tau)
        P = build_prolongation(levels[-1].space, space) if levels else None
        levels.append(Level(space=space, disc=disc, op=op, smoother=smoother, P=P))

    hier = MgHierarchy(dim=d, degree=p, coarse_level=coarse_level,
                       fine_level=fine_level, levels=levels)
    _direct_factor(levels[0])
    return hier


def _smooth(h: MgHierarchy, idx: int, u, r, steps):
    lvl = h.levels[idx]
    if steps == 0:
        return np.array(u, dtype=float), np.array(r, dtype=float)
    if h.dim == 1:
        return smooth_1d(lvl.smoother, lvl.disc, u, r, steps)
    return smooth_2d(lvl.smoother, lvl.op, u, r, steps)


def _restrict(h: MgHierarchy, idx: int, r: np.ndarray) -> np.ndarray:
    P = h.levels[idx].P
    return restrict(P, r) if h.dim == 1 else restrict_2d(P, r)


def _prolong(h: MgHierarchy, idx: int, c: np.ndarray) -> np.ndarray:
    P = h.levels[idx].P
    return prolong(P, c) if h.dim == 1 else prolong_2d(P, c)


def mg_cycle(h: MgHierarchy, cfg: CycleConfig, idx: int, u: np.ndarray,
             f: np.ndarray) -> np.ndarray:
    """One multigrid cycle at level index ``idx`` (0 = coarsest) for A u = f."""
    if idx == 0:
        return _direct_factor(h.levels[0]).solve(f)

    A = h.levels[idx].op
    r = f - A.apply(u)
    u, r = _smooth(h, idx, u, r, cfg.pre_smooth)
    rc = _restrict(h, idx, r)

    if cfg.cycle == "two-grid" or idx == 1:
        ec = _direct_factor(h.levels[idx - 1]).solve(rc)
    elif cfg.cycle == "v":
        ec = mg_cycle(h, cfg, idx - 1, np.zeros_like(rc), rc)
    else:  # W-cycle: two successive corrections on the coarse problem
        ec = mg_cycle(h, cfg, idx - 1, np.zeros_like(rc), rc)
        ec = mg_cycle(h, cfg, idx - 1, ec, rc)

    d = _prolong(h, idx, ec)
    u = u + d
    if cfg.post_smooth:
        r = r - A.apply(d)
        u, r = _smooth(h, idx, u, r, cfg.post_smooth)
    return u


def solve_mg(h: MgHierarchy, cfg: CycleConfig, f: np.ndarray,
             u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Iterate cycles until ||f - A u|| <= tol * ||f - A u0|| or max_iter."""
    start = time.perf_counter()
    top = len(h.levels) - 1
    A = h.finest.op
    u = np.zeros_like(f) if u0 is None else np.array(u0, dtype=float)
    r0 = float(np.linalg.norm(f - A.apply(u)))
    history = [r0]
    if r0 == 0.0:
        return u, SolveReport(0, history, True, time.perf_counter() - start)

    converged = False
    iterations = 0
    for k in range(1, cfg.max_iter + 1):
        u = mg_cycle(h, cfg, top, u, f)
        res = float(np.linalg.norm(f - A.apply(u)))
        history.append(res)
        iterations = k
        if res <= cfg.tol * r0:
            converged = True
            break
    return u, SolveReport(iterations, history, converged,
                          time.perf_counter() - start)


def solve_pcg(h: MgHierarchy, cfg: CycleConfig, f: np.ndarray,
              u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by one multigrid cycle.

    Requires a symmetric cycle (equal pre- and post-smoothing counts) so the
    preconditioner is an SPD operator. The stopping rule matches
    :func:`solve_mg` (reduction of the unpreconditioned residual).
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

    u = np.zeros_like(f) if u0 is None else np.array(u0, dtype=float)
    r = f - A.apply(u)
    r0 = float(np.linalg.norm(r))
    history = [r0]
    if r0 == 0.0:
        return u, SolveReport(0, history, True, time.perf_counter() - start)

    z = precond(r)
    p = z.copy()
    rho = float(r @ z)
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iter + 1):
        q = A.apply(p)
        alpha = rho / float(p @ q)
        u = u + alpha * p
        r = r - alpha * q
        res = float(np.linalg.norm(r))
        history.append(res)
        iterations = k
        if res <= cfg.tol * r0:
            converged = True
            break
        z = precond(r)
        rho_new = float(r @ z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return u, SolveReport(iterations, history, converged,
                          time.perf_counter() - start)
