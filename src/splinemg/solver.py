"""Multigrid hierarchy, V/W cycles (one recursion for d = 1 and d = 2; the
two-grid method is a V-cycle on a two-level hierarchy), and V-cycle
preconditioned CG. Both solvers share one start (the checked f and u0, the
first residual, the history and the first stop reason) and one report."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import Discretization1D, Operator2D, assemble_1d, operator_2d
from .linalg import BandedSymMatrix, CholeskyFactor, KronSumSolver, \
    WindowBandMatrix, cholesky
from .smoother import TAU_DEFAULT, Smoother1D, Smoother2D, \
    build_smoother_1d, build_smoother_2d, damping, smooth_1d, smooth_2d
from .splines import SplineSpace, as_integer, build_space
from .transfer import SparseEmbedding, build_prolongation, prolong, \
    prolong_2d, restrict, restrict_2d, window_embedding

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
    P: SparseEmbedding | WindowBandMatrix | None = None
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
    min_admissible = min_smoother_level(p) - 1
    if coarse_level < min_admissible:
        raise InadmissibleLevels(
            f"coarse level {coarse_level} too coarse for degree {p}: "
            f"level {coarse_level + 1} has {2**(coarse_level + 1)} < {p + 1} "
            f"intervals; minimal admissible coarse level is {min_admissible}")

    levels: list[Level] = []
    for lv in range(coarse_level, fine_level + 1):
        space = build_space(p, lv)
        disc = assemble_1d(space)
        lvl = Level(space, disc, disc.A if d == 1 else operator_2d(disc))
        if not levels and d == 1:       # the coarsest level: a direct solver
            lvl.direct = cholesky(lvl.op, "coarse system matrix")
        elif not levels:                # of M (x) B + B (x) M, B = K + M/2
            M = disc.M.toarray()
            lvl.direct = KronSumSolver.build(M, disc.K.toarray() + M / 2.0,
                                             "2D system matrix")
        elif d == 1:
            disc.A.tocsr()          # in setup, not at the first apply
            lvl.smoother = build_smoother_1d(disc, tau)
            lvl.P = SparseEmbedding(build_prolongation(levels[-1].space, space))
        else:
            lvl.smoother = build_smoother_2d(lvl.op, tau)
            lvl.P = window_embedding(levels[-1].space, space)
        levels.append(lvl)
    return MgHierarchy(dim=d, degree=p, coarse_level=coarse_level,
                       fine_level=fine_level, levels=levels)


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


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


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


def _start(A, f, u0) -> tuple:
    """Copies of ``f`` and ``u0`` (zero when None) as float vectors, the
    first residual, a history holding its norm, and the first stop reason.
    ValueError naming ``f`` or ``u0`` unless it has A's order and finite
    entries."""
    n, checked = A.shape[0], []
    for name, v in (("f", f), ("u0", np.zeros(n) if u0 is None else u0)):
        v = np.array(v, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has non-finite entries")
        checked.append(v)
    f, u = checked
    r = f - A.apply(u)
    history = [_norm(r)]
    return f, u, r, history, _residual_stop(history[0], 0.0)


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
    f, u, _, history, stop = _start(A, f, u0)
    while stop is None and len(history) <= cfg.max_iter:
        u = mg_cycle(h, cfg, top, u, f)
        history.append(_norm(f - A.apply(u)))
        stop = _residual_stop(history[-1], cfg.tol * history[0])
    return u, _report(history, stop, start)


@np.errstate(over="ignore", invalid="ignore")
def solve_pcg(h: MgHierarchy, cfg: CycleConfig, f: np.ndarray,
              u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by one multigrid cycle z = B r per
    iteration (Saad, *Iterative Methods for Sparse Linear Systems*, Alg. 9.1).

    Requires a symmetric cycle (:meth:`CycleConfig.require_symmetric`). The
    stopping rule (reduction of the unpreconditioned residual), the input
    checks and the bound on the cycles match :func:`solve_mg`; it also
    stops, with ``stop_reason`` "breakdown", at the first r^T z <= 0 or
    p^T A p <= 0.
    """
    cfg.require_symmetric()
    start = time.perf_counter()
    top = len(h.levels) - 1
    A = h.finest.op
    f, u, r, history, stop = _start(A, f, u0)
    p, rho_old = np.zeros_like(u), 1.0      # the first direction is z + 0
    while stop is None and len(history) <= cfg.max_iter:
        z = mg_cycle(h, cfg, top, np.zeros_like(r), r)
        rho = float(r @ z)
        stop = _cg_scalar_stop(rho)
        if stop:
            break
        p = z + (rho / rho_old) * p
        q = A.apply(p)
        pq = float(p @ q)
        stop = _cg_scalar_stop(pq)
        if stop:
            break
        alpha = rho / pq
        u = u + alpha * p
        r = r - alpha * q
        history.append(_norm(r))
        stop = _residual_stop(history[-1], cfg.tol * history[0])
        rho_old = rho
    return u, _report(history, stop, start)
