"""Galerkin assembly on the unit interval and its tensor-product extension.

Builds the 1D mass matrix M, stiffness matrix K and system matrix A = K + M
with per-span Gauss-Legendre quadrature (exact for the polynomial integrands),
plus load vectors for f(x) = d pi^2 prod_j sin(pi (x_j + 1/2)) and the
matrix-free 2D operator K(x)M + M(x)K + M(x)M.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BandedSymMatrix, kron_apply
from .splines import SplineSpace, eval_basis_derivatives

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
    """Matrix-free v -> (K(x)M + M(x)K + M(x)M) v on the shared 1D factors,
    applied as K(x)M + M(x)A with A = K + M."""

    disc: Discretization1D
    _factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self._factors = (self.disc.K.tocsr(), self.disc.M.tocsr(),
                         self.disc.A.tocsr())

    @property
    def order(self) -> int:
        return self.disc.space.dim ** 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    def apply(self, v: np.ndarray) -> np.ndarray:
        K, M, A = self._factors
        return kron_apply(K, M, v) + kron_apply(M, A, v)

    def toarray(self) -> np.ndarray:
        """Dense matrix (coarse solves and verification sizes only)."""
        K, M = self.disc.K.toarray(), self.disc.M.toarray()
        return np.kron(K, M) + np.kron(M, K) + np.kron(M, M)


def _span_quadrature(space: SplineSpace, nodes_per_span: int):
    """Gauss-Legendre nodes/weights mapped to every knot span."""
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_span)
    h = space.mesh_size
    starts = np.arange(space.intervals) * h
    nodes = starts[:, None] + (xg[None, :] + 1.0) * (h / 2.0)
    weights = np.full_like(nodes, h / 2.0) * wg[None, :]
    return nodes, weights


def _regular_span_range(space: SplineSpace) -> tuple[int, int]:
    """Half-open range of spans whose active basis functions are all interior
    translates of the cardinal B-spline (identical local values)."""
    p, n = space.degree, space.intervals
    lo, hi = p, n - p
    return (lo, hi) if hi > lo else (0, 0)


def _local_values(space: SplineSpace, span: int, nodes: np.ndarray,
                  max_order: int) -> np.ndarray:
    """Stack of local basis values/derivatives on one span at the given nodes,
    shape (len(nodes), max_order + 1, p + 1)."""
    out = np.empty((len(nodes), max_order + 1, space.degree + 1))
    for k, x in enumerate(nodes):
        _, out[k] = eval_basis_derivatives(space, float(x), max_order)
    return out


def assemble_1d(space: SplineSpace, quad_nodes: int | None = None) -> Discretization1D:
    """Assemble M, K and A = K + M for ``space``.

    ``quad_nodes`` overrides the per-span Gauss rule (default p+1, exact for
    the degree-2p integrands). Interior spans share one local matrix since
    the uniform-knot basis is translation invariant there.
    """
    p, m = space.degree, space.dim
    q = quad_nodes if quad_nodes is not None else p + 1
    nodes, weights = _span_quadrature(space, q)

    def local_pair(span):
        vals = _local_values(space, span, nodes[span], 1)
        w = weights[span]
        mloc = np.einsum("k,ka,kb->ab", w, vals[:, 0, :], vals[:, 0, :])
        kloc = np.einsum("k,ka,kb->ab", w, vals[:, 1, :], vals[:, 1, :])
        return mloc, kloc

    M = BandedSymMatrix.zeros(m, p)
    K = BandedSymMatrix.zeros(m, p)

    def accumulate(mat: BandedSymMatrix, loc: np.ndarray, spans):
        for a in range(p + 1):
            for b in range(a + 1):
                np.add.at(mat.bands[a - b], spans + b, loc[a, b])

    lo, hi = _regular_span_range(space)
    irregular = [s for s in range(space.intervals) if not lo <= s < hi]
    for span in irregular:
        mloc, kloc = local_pair(span)
        accumulate(M, mloc, np.array([span]))
        accumulate(K, kloc, np.array([span]))
    if hi > lo:
        mloc, kloc = local_pair(lo)
        spans = np.arange(lo, hi)
        accumulate(M, mloc, spans)
        accumulate(K, kloc, spans)

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
    p, m = space.degree, space.dim
    nodes, weights = _span_quadrature(space, p + 3)
    wcos = weights * np.cos(np.pi * nodes)          # (spans, nodes)

    lo, hi = _regular_span_range(space)
    contrib = np.empty((space.intervals, p + 1))    # per-span local moments
    for span in [s for s in range(space.intervals) if not lo <= s < hi]:
        vals = _local_values(space, span, nodes[span], 0)[:, 0, :]
        contrib[span] = wcos[span] @ vals
    if hi > lo:
        vals = _local_values(space, lo, nodes[lo], 0)[:, 0, :]
        contrib[lo:hi] = wcos[lo:hi] @ vals

    g = np.zeros(m)
    for b in range(p + 1):
        np.add.at(g, np.arange(space.intervals) + b, contrib[:, b])
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
