"""Boundary-corrected mass smoother in one and two dimensions.

The 1D smoother matrix is L = h^-2 M + C where C adds, on the 2p boundary
coefficients, the Schur complement Q of the interior block of A (the energy
of the discrete harmonic extension of the boundary coefficients). C couples
the first and last p indices. In the folded order 0, m-1, 1, m-2, ... those
2p indices come first and every entry of M lies within 2p of the diagonal,
so L is a plain band matrix of bandwidth 2p: each 1D smoother matrix is one
banded Cholesky factor, and a solve is a gather, two O(m p) substitutions
and a scatter. The factor fills the band between indices k and m-1-k with
entries that decay exponentially and underflow; they are zeroed, because
every substitution would pay a slow floating-point assist on each
subnormal.

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
from .linalg import BandedSymMatrix, CholeskyFactor, KronSumSolver, \
    cholesky
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
    "TAU_DEFAULT",
    "damping",
]

#: damping parameters used in the reference experiments, per dimension
TAU_DEFAULT = {1: 0.14, 2: 0.08}


def damping(d: int, tau: float | None = None) -> float:
    """The damping parameter of a ``d``-dim smoother: ``tau``, or the
    reference experiments' value for ``d`` when it is None.

    Raises ValueError unless d is 1 or 2 and tau is positive and finite.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    tau = TAU_DEFAULT[d] if tau is None else tau
    if not 0.0 < tau < np.inf:
        raise ValueError(
            f"damping parameter tau must be positive and finite, got {tau}")
    return tau


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
    """Banded Cholesky factors of the 1D smoother matrices in folded order."""

    fold: np.ndarray                   # index at each folded position
    L_solver: CholeskyFactor           # undamped L = h^-2 M + C
    L_eff_solver: CholeskyFactor = field(repr=False)  # tau^-1 h^-2 M + C

    def solve(self, factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse of the folded ``factor``'s matrix to ``rhs``."""
        out = np.empty_like(rhs, dtype=float)
        out[self.fold] = factor.solve(rhs[self.fold])
        return out

    def step_direction(self, residual: np.ndarray) -> np.ndarray:
        """Update direction for one smoothing step applied to ``residual``."""
        return self.solve(self.L_eff_solver, residual)


@dataclass
class Smoother2D(_Boundary):
    """Fast-diagonalization inverse of the 2D tensor-corrected smoother."""

    solver: KronSumSolver              # LL = M (x) B + B (x) M


def _boundary(disc: Discretization1D, tau: float) -> _Boundary:
    """Data both smoothers share; Q is the Schur complement of A_II in A."""
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
    b = _boundary(disc, damping(1, tau))
    m, p = b.space_dim, disc.M.bandwidth
    fold = np.empty(m, dtype=int)              # 0, m-1, 1, m-2, ...
    fold[0::2] = np.arange((m + 1) // 2)
    fold[1::2] = np.arange(m - 1, (m - 1) // 2, -1)
    pos = np.empty(m, dtype=int)
    pos[fold] = np.arange(m)

    def slots(rows, cols):         # folded band slots of the entries (i, j)
        a, c = pos[rows], pos[cols]
        return np.abs(a - c), np.minimum(a, c)

    # one scatter of M's lower band and of Q's lower triangle; bandwidth 2p
    k, j = np.nonzero(np.arange(p + 1)[:, None] + np.arange(m) < m)
    mass = np.zeros((2 * p + 1, m))
    mass[slots(j + k, j)] = disc.M.bands[k, j]
    bnd = b.split.boundary
    r, c = np.tril_indices(len(bnd))
    correction = np.zeros_like(mass)
    correction[slots(bnd[r], bnd[c])] = b.Q[r, c]

    def factor(sigma: float, what: str) -> CholeskyFactor:
        band = BandedSymMatrix(m, 2 * p, sigma * mass + correction)
        chol = cholesky(band, what)
        # the fill between k and m-1-k decays into subnormals; each one
        # would cost a floating-point assist in every substitution
        chol.factor[np.abs(chol.factor) < np.finfo(float).tiny] = 0.0
        return chol

    sigma = b.mesh_size ** -2
    return Smoother1D(
        **vars(b), fold=fold, L_solver=factor(sigma, "1D smoother matrix"),
        L_eff_solver=factor(sigma / b.tau, "1D damped smoother matrix"))


def apply_Linv_1d(s: Smoother1D, r: np.ndarray) -> np.ndarray:
    """Apply the inverse of the undamped smoother matrix L = h^-2 M + C."""
    return s.solve(s.L_solver, np.asarray(r, dtype=float))


def smooth_1d(s: Smoother1D, A: BandedSymMatrix, u: np.ndarray,
              r: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` smoothing iterations for the operator ``A``, carrying
    the residual along."""
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
    u, _ = smooth_1d(s, disc.A, u, r, steps)
    return u


def build_smoother_2d(op: Operator2D, tau: float) -> Smoother2D:
    """Set up the 2D smoother (plain damping u += tau * LL^-1 r) for the
    operator ``op``, sharing its dense mass matrix.

    LL = h^2 (L (x) L - C (x) C) is the Kronecker sum M (x) B + B (x) M with
    B = h^-2 M / 2 + C, inverted exactly by fast diagonalization.
    """
    b = _boundary(op.disc, damping(2, tau))
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
