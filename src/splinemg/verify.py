"""Desk-scale numerical verification of the method's spectral estimates.

Everything here materializes small dense matrices and measures the constants
behind the solver's robustness: the inverse inequality on the constrained
subspace, the unconstrained boundary blow-up, the approximation constant of
the constrained space, and the two factors (approximation and smoothing
properties) of the two-grid convergence bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .assembly import assemble_1d, operator_2d
from .linalg import generalized_eig_max
from .smoother import build_smoother_1d, build_smoother_2d, damping, \
    smoother_matrix_1d, smoother_matrix_2d
from .splines import SplineSpace, build_space, eval_basis_derivatives, \
    index_split
from .transfer import build_prolongation

__all__ = [
    "InverseInequalityResult",
    "INVERSE_BOUND",
    "APPROX_BOUND",
    "PROXY_LEVELS",
    "SmootherPencil",
    "dense_limit",
    "build_constraint_basis",
    "verify_inverse_inequality",
    "verify_counterexample",
    "verify_approximation_constant",
    "smoother_pencil",
    "measure_CA",
    "measure_smoothing_constant",
    "smoother_energy_norm",
]

#: theoretical bound on h * sqrt(lambda_max(K, M)) over the constrained space
INVERSE_BOUND = 2.0 * np.sqrt(3.0)
#: theoretical bound on the constrained-space L2 approximation constant
APPROX_BOUND = 2.0 * np.sqrt(2.0)
#: refinement levels of the proxy space behind the approximation constant
PROXY_LEVELS = 4


def build_constraint_basis(space: SplineSpace) -> np.ndarray:
    """Orthonormal m x k basis of the nullspace of the odd-endpoint-derivative
    constraints: the splines whose odd derivatives below order p vanish.

    Rows are normalized before the rank decision since derivative scales
    span many orders of magnitude; row scaling does not change the nullspace.
    """
    p, m = space.degree, space.dim
    orders = list(range(1, p, 2))
    if not orders:
        return np.eye(m)
    rows = []
    for x in (0.0, 1.0):
        first, ders = eval_basis_derivatives(space, x, p - 1)
        for q in orders:
            row = np.zeros(m)
            row[first:first + p + 1] = ders[q]
            rows.append(row / np.linalg.norm(row))
    G = np.array(rows)
    Q, R, _ = scipy.linalg.qr(G.T, pivoting=True)
    rank = int((np.abs(np.diag(R)) > 1e-10).sum())
    if rank != len(rows):
        raise ValueError(
            f"constraint matrix rank {rank} below expected {len(rows)}")
    basis = Q[:, rank:]
    if basis.shape[1] == 0:
        raise ValueError("constrained spline space is empty")
    return basis


@dataclass
class InverseInequalityResult:
    """Measured inverse-inequality constants h * sqrt(lambda_max(K, M))."""

    constrained: float         # over the odd-derivative-constrained space
    interior: float            # over the interior-coefficient block


def dense_limit(d: int = 1) -> int:
    """Largest 1D dimension the dense paths accept for a ``d``-dim problem."""
    return 300 if d == 1 else 30


def _check_dense(space: SplineSpace, d: int = 1):
    if space.dim > dense_limit(d):
        raise ValueError(
            f"dimension {space.dim} exceeds dense verification limit "
            f"{dense_limit(d)}")


def verify_inverse_inequality(p: int, level: int,
                              n0: int = 1) -> InverseInequalityResult:
    """Measure the gradient-vs-value bound on the constrained subspace.

    Returns h * sqrt(lambda_max) for the constrained space and for the
    interior block; each is expected not to exceed INVERSE_BOUND.
    """
    space = build_space(p, level, n0)
    _check_dense(space)
    disc = assemble_1d(space)
    Kd, Md = disc.K.toarray(), disc.M.toarray()
    N = build_constraint_basis(space)
    lam = generalized_eig_max(N.T @ Kd @ N, N.T @ Md @ N)
    constrained = space.mesh_size * np.sqrt(max(lam, 0.0))

    s = index_split(space)
    KI = Kd[np.ix_(s.interior, s.interior)]
    MI = Md[np.ix_(s.interior, s.interior)]
    lam_i = generalized_eig_max(KI, MI)
    interior = space.mesh_size * np.sqrt(max(lam_i, 0.0))
    return InverseInequalityResult(constrained=float(constrained),
                                   interior=float(interior))


def verify_counterexample(p: int, level: int) -> float:
    """Measure h * sqrt(lambda_max(K, M)) over the full space.

    This grows at least like p, which is why the uncorrected mass smoother
    needs a damping parameter shrinking like p^-2.
    """
    space = build_space(p, level)
    _check_dense(space)
    disc = assemble_1d(space)
    lam = generalized_eig_max(disc.K.toarray(), disc.M.toarray())
    return float(space.mesh_size * np.sqrt(max(lam, 0.0)))


def verify_approximation_constant(p: int, level: int,
                                  proxy_levels: int = PROXY_LEVELS) -> float:
    """L2 approximation constant of the constrained space at one level.

    The supremum over H^1 is approximated from a ``proxy_levels``-times finer
    spline space, which can only underestimate it, so the measured value must
    stay below APPROX_BOUND.
    """
    coarse = build_space(p, level)
    fine = build_space(p, level + proxy_levels)
    _check_dense(fine)
    disc = assemble_1d(fine)
    Af, Mf = disc.A.toarray(), disc.M.toarray()

    Z = build_prolongation(coarse, fine).toarray() @ \
        build_constraint_basis(coarse)
    # A-orthogonal projector onto the embedded constrained space
    T = Z @ np.linalg.solve(Z.T @ Af @ Z, Z.T @ Af)
    # ||M^(1/2) R A^(-1/2)||^2 with R = I - T is lambda_max(R^T M R, A)
    R = np.eye(fine.dim) - T
    lam = generalized_eig_max(R.T @ Mf @ R, Af)
    return float(np.sqrt(max(lam, 0.0)) / coarse.mesh_size)


@dataclass
class SmootherPencil:
    """Dense two-level data at one (p, level): system matrix A, coarse matrix
    A_c, prolongation P and the effective smoother matrix L_eff (the one the
    damped smoothing step inverts, so S = I - L_eff^(-1) A)."""

    A: np.ndarray
    A_c: np.ndarray
    P: np.ndarray
    L_eff: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the pencil (A, L_eff), ascending, computed once."""
        return scipy.linalg.eigh(self.A, self.L_eff, eigvals_only=True)


def smoother_pencil(p: int, level: int, d: int = 1,
                    tau: float | None = None) -> SmootherPencil:
    """Build the dense pencil between ``level`` and ``level - 1`` for the
    ``d``-dim problem; ``tau`` defaults to the reference damping for ``d``."""
    tau = damping(d, tau)
    fine = build_space(p, level)
    coarse = build_space(p, level - 1)
    _check_dense(fine, d)
    df, dc = assemble_1d(fine), assemble_1d(coarse)
    P1 = build_prolongation(coarse, fine).toarray()
    if d == 1:
        sm = build_smoother_1d(df, tau)
        return SmootherPencil(df.A.toarray(), dc.A.toarray(), P1,
                              smoother_matrix_1d(sm, df, damped=True))
    op = operator_2d(df)
    s2 = build_smoother_2d(op, tau)
    return SmootherPencil(op.toarray(), operator_2d(dc).toarray(),
                          np.kron(P1, P1), smoother_matrix_2d(s2, df) / tau)


def measure_CA(pencil: SmootherPencil) -> float:
    """Measured approximation-property constant between two adjacent levels.

    The norm of L^(1/2) (I - T) A^(-1) L^(1/2), where T is the coarse-grid
    A-orthogonal projector and L the effective smoother matrix (so that this
    constant and the smoothing constant refer to the same norm). With
    (I - T) A^(-1) = W = A^(-1) - P A_c^(-1) P^T symmetric PSD, that norm is
    lambda_max(L W L, L).
    """
    A, P, L = pencil.A, pencil.P, pencil.L_eff
    W = np.linalg.inv(A) - P @ np.linalg.solve(pencil.A_c, P.T)
    G = L @ W @ L
    return generalized_eig_max(0.5 * (G + G.T), L)


def measure_smoothing_constant(pencil: SmootherPencil, nu: int) -> float:
    """nu * || L^(-1/2) A S^nu L^(-1/2) || for the damped smoother S.

    The measured value is expected to stay below 1/tau.
    """
    lam = pencil.eigenvalues
    return float(nu * np.abs(lam * (1.0 - lam)**nu).max())


def smoother_energy_norm(pencil: SmootherPencil) -> float:
    """||S||_A of the damped smoothing step (at most 1 for admissible tau)."""
    return float(np.abs(1.0 - pencil.eigenvalues).max())
