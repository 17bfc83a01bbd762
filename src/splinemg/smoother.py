"""Boundary-corrected mass smoother in one and two dimensions.

The 1D smoother matrix is L = h^-2 M + C where C adds, on the 2p boundary
coefficients, the Schur complement Q of the interior block of A (the energy
of the discrete harmonic extension of the boundary coefficients). L couples
the first and last p indices, so a plain band factorization would fill in;
instead L^-1 is applied through a Sherman-Morrison-Woodbury identity around
the banded Cholesky factor of M, which keeps every application at O(m p).

The 2D smoother matrix is the rank-corrected tensor square
LL = h^2 (L (x) L - C (x) C). Expanded, it is the Kronecker sum
M (x) B + B (x) M with B = h^-2 M / 2 + C, so one dense generalized
eigenproblem B V = M V diag(lam) per level inverts it exactly (fast
diagonalization): a sweep is four dense m x m products, O(m^3) per m^2
unknowns, with no capacitance matrix to lose definiteness by cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import Discretization1D, Operator2D
from .linalg import CholeskyFactor, KronSumSolver, cholesky
from .splines import IndexSplit, index_split

__all__ = [
    "Smoother1D",
    "Smoother2D",
    "build_smoother_1d",
    "build_smoother_2d",
    "apply_Linv_1d",
    "apply_Linv_2d",
    "smooth_step_1d",
    "smooth_step_2d",
    "smooth_1d",
    "smooth_2d",
    "smoother_matrix_1d",
    "smoother_matrix_2d",
]


@dataclass
class _CorrectedMassSolver:
    """Applies (sigma * M + E Q E^T)^-1 at O(m p) per right-hand side.

    E selects the boundary indices (left ascending, then right ascending).
    Woodbury around sigma*M: the capacitance is Q^-1 + sigma^-1 (M^-1)_GG.
    """

    sigma: float
    chol_M: CholeskyFactor
    boundary: np.ndarray
    Minv_E: np.ndarray                       # M^-1 E, dense m x 2p
    chol_cap: CholeskyFactor

    @classmethod
    def build(cls, sigma: float, chol_M: CholeskyFactor, boundary: np.ndarray,
              Minv_E: np.ndarray, Q: np.ndarray) -> "_CorrectedMassSolver":
        Qinv = np.linalg.inv(Q)
        cap = Qinv + Minv_E[boundary, :] / sigma
        cap = 0.5 * (cap + cap.T)
        return cls(sigma, chol_M, boundary, Minv_E,
                   cholesky(cap, "smoother capacitance"))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """rhs may be a vector or a matrix of column right-hand sides."""
        y = self.chol_M.solve(rhs) / self.sigma
        t = y[self.boundary]
        s = self.chol_cap.solve(t)
        return y - (self.Minv_E @ s) / self.sigma


@dataclass
class _Boundary:
    """What both smoothers share: the index split, h, tau and the 2p x 2p
    Schur complement Q of A_II in A, which C = E Q E^T places."""

    space_dim: int
    mesh_size: float
    tau: float
    split: IndexSplit
    Q: np.ndarray

    def correction(self) -> np.ndarray:
        """Dense C (verification sizes and the 2D setup)."""
        C = np.zeros((self.space_dim, self.space_dim))
        C[np.ix_(self.split.boundary, self.split.boundary)] = self.Q
        return C


@dataclass
class Smoother1D(_Boundary):
    """Precomputed factorizations for the 1D boundary-corrected smoother."""

    L_solver: _CorrectedMassSolver     # undamped L = h^-2 M + C
    L_eff_solver: _CorrectedMassSolver = field(repr=False)  # tau^-1 h^-2 M + C

    def step_direction(self, residual: np.ndarray) -> np.ndarray:
        """Update direction for one smoothing step applied to ``residual``."""
        return self.L_eff_solver.solve(residual)


@dataclass
class Smoother2D(_Boundary):
    """Fast-diagonalization inverse of the 2D tensor-corrected smoother."""

    solver: KronSumSolver              # LL = M (x) B + B (x) M


def _boundary(disc: Discretization1D, tau: float) -> _Boundary:
    """Data both smoothers share; Q is the Schur complement of A_II in A."""
    if not 0.0 < tau < np.inf:
        raise ValueError(
            f"damping parameter must be positive and finite, got {tau}")
    space = disc.space
    split = index_split(space)          # raises when the interior is empty
    gg = disc.A.rectangular_block(split.boundary, split.boundary)
    ig = disc.A.rectangular_block(split.interior, split.boundary)
    start, stop = split.interior[0], split.interior[-1] + 1
    interior = disc.A.principal_submatrix(int(start), int(stop))
    X = cholesky(interior, "interior system block").solve(ig)
    Q = gg - ig.T @ X
    return _Boundary(space.dim, space.mesh_size, tau, split, 0.5 * (Q + Q.T))


def build_smoother_1d(disc: Discretization1D, tau: float) -> Smoother1D:
    """Set up the 1D smoother for ``disc`` with damping parameter ``tau``.

    The damping scales only the mass part of the smoother matrix: one step
    is u += (tau^-1 h^-2 M + C)^-1 r.
    """
    b = _boundary(disc, tau)
    bnd = b.split.boundary
    chol_M = cholesky(disc.M, "mass matrix")

    E = np.zeros((b.space_dim, len(bnd)))
    E[bnd, np.arange(len(bnd))] = 1.0
    Minv_E = chol_M.solve(E)

    sigma = b.mesh_size ** -2
    L_solver = _CorrectedMassSolver.build(sigma, chol_M, bnd, Minv_E, b.Q)
    L_eff_solver = _CorrectedMassSolver.build(sigma / tau, chol_M, bnd, Minv_E, b.Q)
    return Smoother1D(**vars(b), L_solver=L_solver, L_eff_solver=L_eff_solver)


def apply_Linv_1d(s: Smoother1D, r: np.ndarray) -> np.ndarray:
    """Apply the inverse of the undamped smoother matrix L = h^-2 M + C."""
    return s.L_solver.solve(np.asarray(r, dtype=float))


def smooth_1d(s: Smoother1D, disc: Discretization1D, u: np.ndarray,
              r: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` smoothing iterations, carrying the residual along."""
    A = disc.A
    u = np.array(u, dtype=float)
    r = np.array(r, dtype=float)
    for _ in range(steps):
        d = s.step_direction(r)
        u += d
        r -= A.apply(d)
    return u, r


def smooth_step_1d(s: Smoother1D, disc: Discretization1D, u: np.ndarray,
                   f: np.ndarray, steps: int = 1) -> np.ndarray:
    """Apply smoothing steps to the system A u = f, returning the new iterate."""
    r = f - disc.A.apply(u)
    u, _ = smooth_1d(s, disc, u, r, steps)
    return u


def build_smoother_2d(op: Operator2D, tau: float) -> Smoother2D:
    """Set up the 2D smoother (plain damping u += tau * LL^-1 r) for the
    operator ``op``, sharing its dense mass matrix.

    LL = h^2 (L (x) L - C (x) C) is the Kronecker sum M (x) B + B (x) M with
    B = h^-2 M / 2 + C, inverted exactly by fast diagonalization.
    """
    b = _boundary(op.disc, tau)
    B = op.M / (2.0 * b.mesh_size**2) + b.correction()
    return Smoother2D(**vars(b), solver=KronSumSolver.build(
        op.M, B, "2D smoother matrix"))


def apply_Linv_2d(s: Smoother2D, r: np.ndarray) -> np.ndarray:
    """Apply LL^-1 to a vector of length m**2."""
    return s.solver.solve(r)


def smooth_2d(s: Smoother2D, op: Operator2D, u: np.ndarray, r: np.ndarray,
              steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` damped smoothing iterations, updating the residual
    incrementally from the factored operator apply."""
    u = np.array(u, dtype=float)
    r = np.array(r, dtype=float)
    for _ in range(steps):
        d = apply_Linv_2d(s, r)
        u += s.tau * d
        r -= s.tau * op.apply(d)
    return u, r


def smooth_step_2d(s: Smoother2D, op: Operator2D, u: np.ndarray,
                   f: np.ndarray, steps: int = 1) -> np.ndarray:
    """Apply smoothing steps to the 2D system, returning the new iterate."""
    r = f - op.apply(np.asarray(u, dtype=float))
    u, _ = smooth_2d(s, op, u, r, steps)
    return u


def smoother_matrix_1d(s: Smoother1D, disc: Discretization1D,
                       damped: bool = False) -> np.ndarray:
    """Dense smoother matrix (verification sizes only).

    ``damped=True`` returns the matrix whose inverse drives one smoothing
    step, tau^-1 h^-2 M + C.
    """
    h = s.mesh_size
    scale = s.tau * h**2 if damped else h**2
    return disc.M.toarray() / scale + s.correction()


def smoother_matrix_2d(s: Smoother2D, disc: Discretization1D) -> np.ndarray:
    """Dense 2D smoother matrix h^2 (L (x) L - C (x) C) (verification only)."""
    h = s.mesh_size
    C = s.correction()
    L = disc.M.toarray() / h**2 + C
    return h**2 * (np.kron(L, L) - np.kron(C, C))
