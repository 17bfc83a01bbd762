"""Boundary-corrected mass smoother in one and two dimensions.

The 1D smoother matrix is L = h^-2 M + C where C adds, on the 2p boundary
coefficients, the Schur complement Q of the interior block of A (the energy
of the discrete harmonic extension of the boundary coefficients). Only the
first p and last p interior rows of A couple to the boundary, so Q comes
from those 2p rows: one forward solve over the interior factor for the left
boundary's columns, one on its trailing p x p block for the right's. L is
persymmetric (B_i(x) = B_{m-1-i}(1 - x)), so with the mirror butterfly G
(columns e_a +- e_{m-1-a}, and 2 e_k for odd m = 2k + 1) G^T L G is an
even and an odd block of bandwidth p (Cantoni & Butler 1976): one banded
Cholesky factor of order m per matrix. Leaving out the cross-parity terms
averages L with its mirror, which keeps the blocks SPD from p = 34, where
Q's mirror defect is 1e-12 to 1e-9. A 1D level is held in G's
coordinates (see :mod:`~splinemg.solver`), so a smoothing step takes the
residual as G^T r and is the two O(m p) substitutions alone;
:func:`apply_Linv_1d` and :func:`smooth_step_1d` reach vectors through
the butterflies. A level builds the damped factor, the one a smoothing
step reads; the undamped one on first use.

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
    butterfly, butterfly_T, cholesky, parity_band
from .splines import IndexSplit, as_dimension, index_split

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
    d = as_dimension(d)
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
    """Band factors of the 1D smoother matrices in a level's coordinates.

    Each factors G^T L G's even and odd blocks, G the mirror butterfly, as
    one band of bandwidth p. A smoothing step takes the residual as
    r~ = G^T r and returns the update as y, d = G y: one band solve. The
    damped factor, the one every smoothing step reads, is built with the
    smoother; the undamped one, :attr:`L_solver`, on first use.
    """

    M: BandedSymMatrix = field(repr=False)      # the level's mass matrix
    L_eff_solver: CholeskyFactor = field(init=False, repr=False)

    def __post_init__(self):
        self.L_eff_solver = self._factor(self.mesh_size ** -2 / self.tau,
                                         "1D damped smoother matrix")

    @cached_property
    def L_solver(self) -> CholeskyFactor:
        """Factor of the undamped L = h^-2 M + C."""
        return self._factor(self.mesh_size ** -2, "1D smoother matrix")

    def _factor(self, sigma: float, what: str) -> CholeskyFactor:
        """Band factor of G^T (sigma M + C) G's even and odd blocks."""
        return cholesky(parity_band(self.M, what, sigma, self.Q), what)

    def step_direction(self, residual: np.ndarray) -> np.ndarray:
        """Damped update of one smoothing step in level coordinates: y of
        d = G y, (G^T (tau^-1 h^-2 M + C) G)^-1 r~ for the residual
        r~ = G^T r."""
        return self.L_eff_solver.solve(residual)


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
    coupled = np.concatenate([np.arange(t), np.arange(mi - t, mi)])
    Y, ig = np.zeros((2, mi, 2 * p))     # Y first: aligned as its own array
    ig[coupled] = A.rectangular_block(coupled + p, bnd)
    chol = cholesky(A.principal_submatrix(p, p + mi), "interior system block")
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
    """Apply the inverse of the undamped smoother matrix L = h^-2 M + C:
    G y, y solved from G^T r."""
    return butterfly(s.L_solver.solve(butterfly_T(np.asarray(r, dtype=float))))


def _smooth(step, A, u, r, steps: int,
            residual: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``steps`` steps u + d, r - A d (new arrays), d = step(r), from the
    zero iterate when u is None (then the first u is d). Without
    ``residual`` the last step forms no r - A d and None is returned for
    it."""
    for k in range(steps):
        d = step(r)
        u = d if u is None else u + d
        r = r - A.apply(d) if residual or k + 1 < steps else None
    return u, r


def smooth_1d(s: Smoother1D, A: BandedSymMatrix, u: np.ndarray | None,
              r: np.ndarray, steps: int, residual: bool = True
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Run ``steps`` smoothing iterations, carrying the residual along, in
    a level's coordinates: A = G^T A G, u primal (None: zero), r dual.
    ``residual=False`` skips the last residual and returns None for it."""
    return _smooth(s.step_direction, A, u, r, steps, residual)


def smooth_step_1d(s: Smoother1D, disc: Discretization1D, u: np.ndarray,
                   f: np.ndarray, steps: int = 1) -> np.ndarray:
    """Apply smoothing steps to the system A u = f, returning the new iterate."""
    u = np.asarray(u, dtype=float)
    return _smooth(lambda r: butterfly(s.step_direction(butterfly_T(r))),
                   disc.A, u, f - disc.A.apply(u), steps)[0]


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
              steps: int, residual: bool = True
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Run ``steps`` smoothing iterations, carrying the residual along
    (the last one only with ``residual``, as in :func:`smooth_1d`)."""
    return _smooth(s.step_direction, op, u, r, steps, residual)


def smooth_step_2d(s: Smoother2D, op: Operator2D, u: np.ndarray,
                   f: np.ndarray, steps: int = 1) -> np.ndarray:
    """Apply smoothing steps to the 2D system, returning the new iterate."""
    u = np.asarray(u, dtype=float)
    return _smooth(s.step_direction, op, u, f - op.apply(u), steps)[0]


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
