"""Boundary-corrected mass smoother in one and two dimensions.

The 1D smoother matrix is L = h^-2 M + C where C adds, on the 2p boundary
coefficients, the Schur complement Q of the interior block of A (the energy
of the discrete harmonic extension of the boundary coefficients). Only the
first p and last p interior rows of A couple to the boundary, so Q comes
from those 2p rows: one forward solve over the interior factor for the left
boundary's columns, one on its trailing p x p block for the right's. C
couples the first and last p indices. In the folded order 0, m-1, 1, m-2,
... those 2p indices come first and every entry of M lies within 2p of the
diagonal, so L is a plain band matrix of bandwidth 2p: each 1D smoother
matrix is one banded Cholesky factor, and a solve is a gather, two O(m p)
substitutions and a scatter. A level builds the damped factor, the one a
smoothing step reads; the undamped one is built on first use. The factor
fills the band between indices k and m-1-k with entries that decay
exponentially and underflow; they are zeroed, because every substitution
would pay a slow floating-point assist on each subnormal.

The 2D smoother matrix is the rank-corrected tensor square
LL = h^2 (L (x) L - C (x) C). Expanded, it is the Kronecker sum
M (x) B + B (x) M with B = h^-2 M / 2 + C, so the generalized
eigenproblem B V = M V diag(lam) per level inverts it exactly (fast
diagonalization), with no capacitance matrix to lose definiteness by
cancellation. M and B are persymmetric, as the uniform spline space is
mirror-symmetric, so the eigenproblem splits into an even and an odd one
of half the order: a sweep is four stacked calls of four half-size dense
products each, O(m^3) per m^2 unknowns at half the flops of the four
full-size products of the unsplit pencil.

Both smoothers offer one step, ``step_direction(r)``, the damped update d
of u += d, and one loop runs every smoothing function's steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import Discretization1D, Operator2D
from .linalg import BandedSymMatrix, CholeskyFactor, KronSumSolver, \
    cholesky
from .splines import IndexSplit, as_integer, index_split

__all__ = [
    "Boundary",
    "Smoother1D",
    "Smoother2D",
    "build_boundary",
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

    Raises ValueError unless d is the integer 1 or 2 and tau is positive and
    finite.
    """
    if as_integer("dimension", d) not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    tau = TAU_DEFAULT[d] if tau is None else tau
    if not 0.0 < tau < np.inf:
        raise ValueError(
            f"damping parameter tau must be positive and finite, got {tau}")
    return tau


@dataclass
class Boundary:
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
class Smoother1D(Boundary):
    """Banded Cholesky factors of the 1D smoother matrices in folded order.

    The damped factor, the one every smoothing step reads, is built with the
    smoother; the undamped one, :attr:`L_solver`, on first use.
    """

    M: BandedSymMatrix = field(repr=False)      # the level's mass matrix
    fold: np.ndarray = field(init=False, repr=False)  # index per position
    L_eff_solver: CholeskyFactor = field(init=False, repr=False)

    def __post_init__(self):
        m = self.space_dim
        self.fold = np.empty(m, dtype=int)          # 0, m-1, 1, m-2, ...
        self.fold[0::2] = np.arange((m + 1) // 2)
        self.fold[1::2] = np.arange(m - 1, (m - 1) // 2, -1)
        self.L_eff_solver = self._factor(self.mesh_size ** -2 / self.tau,
                                         "1D damped smoother matrix")

    @cached_property
    def L_solver(self) -> CholeskyFactor:
        """Factor of the undamped L = h^-2 M + C."""
        return self._factor(self.mesh_size ** -2, "1D smoother matrix")

    def _factor(self, sigma: float, what: str) -> CholeskyFactor:
        """Folded band factor of sigma M + C, bandwidth 2p."""
        m, p = self.space_dim, self.M.bandwidth
        pos = np.empty(m, dtype=int)
        pos[self.fold] = np.arange(m)

        def slots(rows, cols):     # folded band slots of the entries (i, j)
            a, c = pos[rows], pos[cols]
            return np.abs(a - c), np.minimum(a, c)

        # one scatter of M's lower band and of Q's lower triangle
        k, j = np.nonzero(np.arange(p + 1)[:, None] + np.arange(m) < m)
        band = np.zeros((2 * p + 1, m))
        band[slots(j + k, j)] = sigma * self.M.bands[k, j]
        bnd = self.split.boundary
        r, c = np.tril_indices(len(bnd))
        band[slots(bnd[r], bnd[c])] += self.Q[r, c]
        chol = cholesky(BandedSymMatrix(m, 2 * p, band), what)
        # the fill between k and m-1-k decays into subnormals; each one
        # would cost a floating-point assist in every substitution
        chol.factor[np.abs(chol.factor) < np.finfo(float).tiny] = 0.0
        return chol

    def solve(self, factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse of the folded ``factor``'s matrix to ``rhs``."""
        out = np.empty_like(rhs, dtype=float)
        out[self.fold] = factor.solve(rhs[self.fold])
        return out

    def step_direction(self, residual: np.ndarray) -> np.ndarray:
        """Damped update (tau^-1 h^-2 M + C)^-1 r of one smoothing step."""
        return self.solve(self.L_eff_solver, residual)


@dataclass
class Smoother2D(Boundary):
    """Fast-diagonalization inverse of the 2D tensor-corrected smoother."""

    solver: KronSumSolver              # LL = M (x) B + B (x) M

    def step_direction(self, residual: np.ndarray) -> np.ndarray:
        """Damped update tau LL^-1 r of one smoothing step."""
        return self.tau * apply_Linv_2d(self, residual)


def _boundary_images(A: BandedSymMatrix, split: IndexSplit) -> np.ndarray:
    """Y = L^-1 A_IG for A_II = L L^T. Only the first and the last p
    interior rows couple to the boundary, so A_IG is gathered from them;
    the right boundary's columns vanish above their last t = min(p, m - 2p)
    rows, so their images come from the factor's trailing t x t block."""
    bnd, p, mi = split.boundary, len(split.boundary) // 2, len(split.interior)
    t = min(p, mi)
    coupled = np.union1d(np.arange(t), np.arange(mi - t, mi))
    ig = np.zeros((mi, 2 * p))
    ig[coupled] = A.rectangular_block(coupled + p, bnd)
    chol = cholesky(A.principal_submatrix(p, p + mi), "interior system block")
    Y = np.zeros_like(ig)
    Y[:, :p] = chol.solve(ig[:, :p], forward=True)
    Y[mi - t:, p:] = CholeskyFactor("banded", t, chol.factor[:, mi - t:]) \
        .solve(ig[mi - t:, p:], forward=True)
    return Y


def build_boundary(disc: Discretization1D, tau: float) -> Boundary:
    """Data both smoothers share; Q is the Schur complement of A_II in A,
    gg - A_GI A_II^-1 A_IG = gg - Y^T Y."""
    space = disc.space
    split = index_split(space)          # raises when the interior is empty
    Y = _boundary_images(disc.A, split)
    Q = disc.A.rectangular_block(split.boundary, split.boundary) - Y.T @ Y
    return Boundary(space.dim, space.mesh_size, tau, split, 0.5 * (Q + Q.T))


def build_smoother_1d(disc: Discretization1D, tau: float) -> Smoother1D:
    """Set up the 1D smoother for ``disc`` with damping parameter ``tau``.

    The damping scales only the mass part of the smoother matrix: one step
    is u += (tau^-1 h^-2 M + C)^-1 r.
    """
    return Smoother1D(**vars(build_boundary(disc, damping(1, tau))),
                      M=disc.M)


def apply_Linv_1d(s: Smoother1D, r: np.ndarray) -> np.ndarray:
    """Apply the inverse of the undamped smoother matrix L = h^-2 M + C."""
    return s.solve(s.L_solver, np.asarray(r, dtype=float))


def _smooth(s, A, u, r, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` steps u += d, r -= A d with d = s.step_direction(r)."""
    u = np.array(u, dtype=float)
    r = np.array(r, dtype=float)
    for _ in range(steps):
        d = s.step_direction(r)
        u += d
        r -= A.apply(d)
    return u, r


def smooth_1d(s: Smoother1D, A: BandedSymMatrix, u: np.ndarray,
              r: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` smoothing iterations, carrying the residual along."""
    return _smooth(s, A, u, r, steps)


def smooth_step_1d(s: Smoother1D, disc: Discretization1D, u: np.ndarray,
                   f: np.ndarray, steps: int = 1) -> np.ndarray:
    """Apply smoothing steps to the system A u = f, returning the new iterate."""
    u = np.asarray(u, dtype=float)
    return _smooth(s, disc.A, u, f - disc.A.apply(u), steps)[0]


def build_smoother_2d(op: Operator2D, tau: float) -> Smoother2D:
    """Set up the 2D smoother (plain damping u += tau * LL^-1 r) for the
    operator ``op``.

    LL = h^2 (L (x) L - C (x) C) is the Kronecker sum M (x) B + B (x) M with
    B = h^-2 M / 2 + C, inverted exactly by fast diagonalization on the even
    and odd halves of the persymmetric pencil (B, M).
    """
    b = build_boundary(op.disc, damping(2, tau))
    M = op.disc.M.toarray()
    B = M / (2.0 * b.mesh_size**2) + b.correction()
    return Smoother2D(**vars(b), solver=KronSumSolver.build(
        M, B, "2D smoother matrix"))


def apply_Linv_2d(s: Smoother2D, r: np.ndarray) -> np.ndarray:
    """Apply LL^-1 to a vector of length m**2."""
    return s.solver.solve(r)


def smooth_2d(s: Smoother2D, op: Operator2D, u: np.ndarray, r: np.ndarray,
              steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` smoothing iterations, carrying the residual along."""
    return _smooth(s, op, u, r, steps)


def smooth_step_2d(s: Smoother2D, op: Operator2D, u: np.ndarray,
                   f: np.ndarray, steps: int = 1) -> np.ndarray:
    """Apply smoothing steps to the 2D system, returning the new iterate."""
    u = np.asarray(u, dtype=float)
    return _smooth(s, op, u, f - op.apply(u), steps)[0]


def smoother_matrix_1d(s: Boundary, disc: Discretization1D,
                       damped: bool = False) -> np.ndarray:
    """Dense smoother matrix of the boundary data ``s`` (a smoother or just
    :func:`build_boundary`'s; verification sizes only).

    ``damped=True`` returns the matrix whose inverse drives one smoothing
    step, tau^-1 h^-2 M + C.
    """
    h = s.mesh_size
    scale = s.tau * h**2 if damped else h**2
    return disc.M.toarray() / scale + s.correction()


def smoother_matrix_2d(s: Boundary, disc: Discretization1D) -> np.ndarray:
    """Dense 2D smoother matrix h^2 (L (x) L - C (x) C) of the boundary data
    ``s`` (verification only)."""
    h = s.mesh_size
    C = s.correction()
    L = disc.M.toarray() / h**2 + C
    return h**2 * (np.kron(L, L) - np.kron(C, C))
