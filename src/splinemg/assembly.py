"""Galerkin assembly on the unit interval and its tensor-product extension.

Builds the 1D mass matrix M, stiffness matrix K and system matrix A = K + M
with per-span Gauss-Legendre quadrature (exact for the polynomial integrands),
plus load vectors for f(x) = d pi^2 prod_j sin(pi (x_j + 1/2)) and the
2D operator K(x)M + M(x)K + M(x)M, applied factor-wise on block-banded 1D
factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BandedSymMatrix, BlockBandMatrix, KronSumSolver, \
    kron_apply
from .splines import SplineSpace, eval_basis_array

__all__ = [
    "Discretization1D",
    "Operator2D",
    "assemble_1d",
    "operator_2d",
    "apply_operator_2d",
    "assemble_load",
]


@dataclass
class Discretization1D:
    """1D Galerkin matrices for one spline space (M SPD, K PSD, A = K + M)."""

    space: SplineSpace
    M: BandedSymMatrix
    K: BandedSymMatrix
    A: BandedSymMatrix


@dataclass
class Operator2D:
    """v -> (K(x)M + M(x)K + M(x)M) v on the shared 1D factors, applied as
    K(x)M + M(x)A with A = K + M. The factors are held block-banded, so an
    apply is four products that skip the zero blocks of each band; the dense
    M serves the fast-diagonalization setups, and ``disc`` keeps the banded
    forms."""

    disc: Discretization1D
    M: np.ndarray = field(init=False, repr=False)
    factors: tuple[BlockBandMatrix, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.M = self.disc.M.toarray()
        self.factors = tuple(BlockBandMatrix.from_dense(a) for a in (
            self.disc.K.toarray(), self.M, self.disc.A.toarray()))

    @property
    def order(self) -> int:
        return self.disc.space.dim ** 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    def apply(self, v: np.ndarray) -> np.ndarray:
        K, M, A = self.factors
        return kron_apply(K, M, v) + kron_apply(M, A, v)

    def direct_solver(self) -> KronSumSolver:
        """Fast-diagonalization inverse of M (x) B + B (x) M, B = K + M/2."""
        B = self.disc.K.toarray() + self.M / 2.0
        return KronSumSolver.build(self.M, B, "2D system matrix")

    def toarray(self) -> np.ndarray:
        """Dense matrix (verification sizes only)."""
        K, M = self.disc.K.toarray(), self.M
        return np.kron(K, M) + np.kron(M, K) + np.kron(M, M)


def _span_quadrature(space: SplineSpace, nodes_per_span: int):
    """Gauss-Legendre nodes/weights mapped to every knot span."""
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_span)
    h = space.mesh_size
    starts = np.arange(space.intervals) * h
    nodes = starts[:, None] + (xg[None, :] + 1.0) * (h / 2.0)
    weights = np.full_like(nodes, h / 2.0) * wg[None, :]
    return nodes, weights


def _span_classes(space: SplineSpace, nodes_per_span: int, max_order: int):
    """Per-span Gauss rule, the class index of every span, and the local basis
    values/derivatives on the first span of each class, shape
    (classes, nodes_per_span, max_order + 1, p + 1).

    The spans p <= s < n - p see only interior translates of the cardinal
    B-spline, so they share one class; every other span is a class of its
    own. Evaluating one span per class keeps the A2.3 triangle at O(p^4)
    memory instead of O(n p^3).
    """
    p, n = space.degree, space.intervals
    nodes, weights = _span_quadrature(space, nodes_per_span)
    spans = np.arange(n)
    representative = np.where((spans < p) | (spans >= n - p), spans, p)
    firsts, classes = np.unique(representative, return_inverse=True)
    _, vals = eval_basis_array(space, nodes[firsts].ravel(), max_order)
    return nodes, weights, classes, vals.reshape(
        len(firsts), nodes_per_span, max_order + 1, p + 1)


def assemble_1d(space: SplineSpace, quad_nodes: int | None = None) -> Discretization1D:
    """Assemble M, K and A = K + M for ``space``.

    ``quad_nodes`` overrides the per-span Gauss rule (default p+1, exact for
    the degree-2p integrands). Interior spans share one local matrix since
    the uniform-knot basis is translation invariant there.
    """
    p, m = space.degree, space.dim
    q = quad_nodes if quad_nodes is not None else p + 1
    _, weights, classes, vals = _span_classes(space, q, 1)
    w, n = weights[0], space.intervals  # the same rule on every span

    def assemble(order: int) -> BandedSymMatrix:
        v = vals[:, :, order, :]
        loc = np.einsum("k,cka,ckb->cab", w, v, v)
        mat = BandedSymMatrix.zeros(m, p)
        for a in range(p + 1):
            for b in range(a + 1):
                mat.bands[a - b, b:b + n] += loc[classes, a, b]
        return mat

    M, K = assemble(0), assemble(1)
    A = BandedSymMatrix(m, p, M.bands + K.bands)
    return Discretization1D(space=space, M=M, K=K, A=A)


def operator_2d(disc: Discretization1D) -> Operator2D:
    """Tensor-product operator sharing ``disc`` in both directions."""
    return Operator2D(disc=disc)


def apply_operator_2d(op: Operator2D, v: np.ndarray) -> np.ndarray:
    """Apply the 2D operator to a vector of length m**2."""
    v = np.asarray(v)
    if v.shape != (op.order,):
        raise ValueError(f"vector length {v.shape} does not match {op.order}")
    return op.apply(v)


def _cosine_moments(space: SplineSpace) -> np.ndarray:
    """g_i = integral of cos(pi x) phi_i(x), Gauss rule with p+3 nodes."""
    p, n, q = space.degree, space.intervals, space.degree + 3
    nodes, weights, classes, vals = _span_classes(space, q, 0)
    wcos = weights * np.cos(np.pi * nodes)          # (spans, nodes)
    # summed node by node, so no (spans, nodes, p + 1) array is formed
    contrib = sum(wcos[:, k, None] * vals[classes, k, 0] for k in range(q))

    g = np.zeros(space.dim)
    for b in range(p + 1):
        g[b:b + n] += contrib[:, b]
    return g


def assemble_load(space: SplineSpace, d: int = 1) -> np.ndarray:
    """Load vector for f(x) = d pi^2 prod_j sin(pi (x_j + 1/2)).

    The trigonometric factor equals cos(pi x_j), so the 2D load is the scaled
    tensor product of the 1D cosine moments.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    g = _cosine_moments(space)
    if d == 1:
        return np.pi**2 * g
    return 2.0 * np.pi**2 * np.outer(g, g).reshape(space.dim ** 2)
