"""Boundary-corrected mass smoother in one and two dimensions.

The 1D smoother matrix is L = h^-2 M + C where C adds, on the 2p boundary
coefficients, the Schur complement Q of the interior block of A (the energy
of the discrete harmonic extension of the boundary coefficients). L couples
the first and last p indices, so a plain band factorization would fill in;
instead L^-1 is applied through a Sherman-Morrison-Woodbury identity around
the banded Cholesky factor of M, which keeps every application at O(m p).

The 2D smoother matrix is the rank-corrected tensor square
LL = h^2 (L (x) L - C (x) C); its inverse is again a Woodbury identity with a
dense capacitance matrix R = Q^-1 (x) Q^-1 - W^-1 (x) W^-1 of order 4 p^2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import Discretization1D, Operator2D
from .linalg import BandedSymMatrix, CholeskyFactor, cholesky
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
class Smoother1D:
    """Precomputed factorizations for the 1D boundary-corrected smoother."""

    space_dim: int
    mesh_size: float
    tau: float
    split: IndexSplit
    chol_M: CholeskyFactor
    Q: np.ndarray                      # 2p x 2p Schur complement of A_II in A
    L_solver: _CorrectedMassSolver     # undamped L = h^-2 M + C
    L_eff_solver: _CorrectedMassSolver = field(repr=False)  # tau^-1 h^-2 M + C

    def step_direction(self, residual: np.ndarray) -> np.ndarray:
        """Update direction for one smoothing step applied to ``residual``."""
        return self.L_eff_solver.solve(residual)


@dataclass
class Smoother2D:
    """Precomputed factorizations for the 2D tensor-corrected smoother."""

    base: Smoother1D
    tau: float
    W: np.ndarray                      # 2p x 2p, Q + h^-2 mass Schur complement
    chol_R: CholeskyFactor             # capacitance of order 4 p^2
    Linv_E: np.ndarray                 # L^-1 E, dense m x 2p

    @property
    def space_dim(self) -> int:
        return self.base.space_dim


def _boundary_blocks(mat: BandedSymMatrix, split: IndexSplit):
    """(GG block, IG block) of a banded matrix under the index split."""
    gg = mat.rectangular_block(split.boundary, split.boundary)
    ig = mat.rectangular_block(split.interior, split.boundary)
    return gg, ig


def _schur_complement(mat: BandedSymMatrix, split: IndexSplit,
                      what: str) -> np.ndarray:
    """Schur complement of the interior block."""
    gg, ig = _boundary_blocks(mat, split)
    start, stop = split.interior[0], split.interior[-1] + 1
    interior = mat.principal_submatrix(int(start), int(stop))
    X = cholesky(interior, what).solve(ig)
    S = gg - ig.T @ X
    return 0.5 * (S + S.T)


def build_smoother_1d(disc: Discretization1D, tau: float) -> Smoother1D:
    """Set up the 1D smoother for ``disc`` with damping parameter ``tau``.

    The damping scales only the mass part of the smoother matrix: one step
    is u += (tau^-1 h^-2 M + C)^-1 r.
    """
    if tau <= 0.0:
        raise ValueError(f"damping parameter must be positive, got {tau}")
    space = disc.space
    split = index_split(space)          # raises when the interior is empty
    h = space.mesh_size

    Q = _schur_complement(disc.A, split, "interior system block")
    chol_M = cholesky(disc.M, "mass matrix")

    E = np.zeros((space.dim, len(split.boundary)))
    E[split.boundary, np.arange(len(split.boundary))] = 1.0
    Minv_E = chol_M.solve(E)

    sigma = h ** -2
    L_solver = _CorrectedMassSolver.build(sigma, chol_M, split.boundary, Minv_E, Q)
    L_eff_solver = _CorrectedMassSolver.build(
        sigma / tau, chol_M, split.boundary, Minv_E, Q)
    return Smoother1D(space_dim=space.dim, mesh_size=h, tau=tau, split=split,
                      chol_M=chol_M, Q=Q, L_solver=L_solver,
                      L_eff_solver=L_eff_solver)


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


def build_smoother_2d(disc: Discretization1D, tau: float) -> Smoother2D:
    """Set up the 2D smoother (plain damping u += tau * LL^-1 r)."""
    base = build_smoother_1d(disc, tau)
    split = base.split
    h = disc.space.mesh_size

    mass_schur = _schur_complement(disc.M, split, "interior mass block")
    W = base.Q + mass_schur / h**2
    W = 0.5 * (W + W.T)

    Qinv = np.linalg.inv(base.Q)
    Winv = np.linalg.inv(W)
    R = np.kron(Qinv, Qinv) - np.kron(Winv, Winv)
    R = 0.5 * (R + R.T)
    chol_R = cholesky(R, "tensor capacitance")

    E = np.zeros((disc.space.dim, len(split.boundary)))
    E[split.boundary, np.arange(len(split.boundary))] = 1.0
    Linv_E = base.L_solver.solve(E)
    return Smoother2D(base=base, tau=tau, W=W, chol_R=chol_R, Linv_E=Linv_E)


def _linv_kron(s: Smoother2D, mat: np.ndarray) -> np.ndarray:
    """(L^-1 (x) L^-1) applied to a reshaped m x m right-hand side."""
    step = s.base.L_solver.solve(mat.T).T
    return s.base.L_solver.solve(step)


def apply_Linv_2d(s: Smoother2D, r: np.ndarray) -> np.ndarray:
    """Apply LL^-1 = h^-2 (I + (L^-1 E (x) L^-1 E) R^-1 (E^T (x) E^T))
    (L^-1 (x) L^-1) to a vector of length m**2."""
    m = s.space_dim
    r = np.asarray(r, dtype=float)
    if r.shape != (m * m,):
        raise ValueError(f"vector length {r.shape} does not match {m * m}")
    h = s.base.mesh_size
    bnd = s.base.split.boundary

    Q0 = _linv_kron(s, r.reshape(m, m)) / h**2
    q1 = Q0[np.ix_(bnd, bnd)].reshape(-1)
    q2 = s.chol_R.solve(q1)
    nb = len(bnd)
    correction = s.Linv_E @ q2.reshape(nb, nb) @ s.Linv_E.T
    return (Q0 + correction).reshape(m * m)


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
    m = s.space_dim
    C = np.zeros((m, m))
    C[np.ix_(s.split.boundary, s.split.boundary)] = s.Q
    Md = disc.M.toarray()
    scale = s.tau * h**2 if damped else h**2
    return Md / scale + C


def smoother_matrix_2d(s: Smoother2D, disc: Discretization1D) -> np.ndarray:
    """Dense 2D smoother matrix h^2 (L (x) L - C (x) C) (verification only)."""
    h = s.base.mesh_size
    m = s.space_dim
    C = np.zeros((m, m))
    C[np.ix_(s.base.split.boundary, s.base.split.boundary)] = s.base.Q
    L = disc.M.toarray() / h**2 + C
    return h**2 * (np.kron(L, L) - np.kron(C, C))
