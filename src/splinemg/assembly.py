"""Galerkin assembly on the unit interval and its tensor-product extension.

Builds the 1D mass matrix M, stiffness matrix K and system matrix A = K + M
with per-span Gauss-Legendre quadrature (exact for the polynomial integrands)
or, on a dyadic space at or above the reference size, from one cached
per-degree template, plus load vectors for
f(x) = d pi^2 prod_j sin(pi (x_j + 1/2)) and the 2D operator
K(x)M + M(x)K + M(x)M, applied as two batched products over the
windows of the banded 1D factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .linalg import BandedSymMatrix, WindowBandMatrix, WindowKron
from .splines import SplineSpace, as_integer, build_space, eval_basis_array

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
    K(x)M + M(x)A with A = K + M by one
    :class:`~splinemg.linalg.WindowKron` built from ``disc``'s band
    storage: M's and A's blocks stacked on M's windows of U^T, then [K M]
    with K's and M's columns interleaved on the row pairs of U M and U A."""

    disc: Discretization1D
    product: WindowKron = field(init=False, repr=False)

    def __post_init__(self):
        d, m = self.disc, self.disc.space.dim
        K, M, A = (WindowBandMatrix.from_band(a) for a in (d.K, d.M, d.A))
        count, rows, width = K.blocks.shape
        KM = WindowBandMatrix((m, 2 * m), 2 * K.lo, 2 * K.stride,
                              np.stack([K.blocks, M.blocks], axis=3)
                              .reshape(count, rows, 2 * width))
        self.product = WindowKron(KM, M, np.stack([M.blocks, A.blocks], axis=1))

    @property
    def order(self) -> int:
        return self.disc.space.dim ** 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """K U M + M U A for v = vec(U); ValueError for a wrong length."""
        return self.product @ v

    def toarray(self) -> np.ndarray:
        """Dense matrix (verification sizes only)."""
        K, M = self.disc.K.toarray(), self.disc.M.toarray()
        return np.kron(K, M) + np.kron(M, K) + np.kron(M, M)


@cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for a in rule:
        a.setflags(write=False)
    return rule


def _span_quadrature(space: SplineSpace, nodes_per_span: int):
    """Gauss-Legendre nodes/weights mapped to every knot span."""
    xg, wg = _gauss_legendre(nodes_per_span)
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


def _quadrature_bands(space: SplineSpace, q: int) -> np.ndarray:
    """Lower bands of M and K, stacked, by the per-span q-node Gauss rule."""
    p, m = space.degree, space.dim
    _, weights, classes, vals = _span_classes(space, q, 1)
    w, n = weights[0], space.intervals  # the same rule on every span
    bands = np.zeros((2, p + 1, m))
    for order in (0, 1):
        v = vals[:, :, order, :]
        loc = np.einsum("k,cka,ckb->cab", w, v, v)
        # entry (a - b, b + span) gathers its terms in increasing b, the
        # order of a scalar loop over a, then b <= a
        for b in range(p + 1):
            bands[order, :p + 1 - b, b:b + n] += loc[classes, b:, b].T
    return bands


@cache
def _band_template(p: int) -> np.ndarray:
    """Read-only bands of n M and K / n on the smallest dyadic space with
    n >= 4p, the right corner replaced by the mirror of the left one.

    On a dyadic space the nodes, knots and weights of the left corner and
    of the interior are the template's times a power of two, so these
    bands hold at every such level. The right corner's nodes round at
    ulp(1), not at ulp(h); by B_i(x) = B_{m-1-i}(1 - x) the mirrored left
    corner is as accurate as the left corner itself.
    """
    space = build_space(p, (4 * p - 1).bit_length())
    n, m = space.intervals, space.dim
    bands = _quadrature_bands(space, p + 1) * np.array([[[n]], [[1.0 / n]]])
    for k in range(p + 1):          # entry (k, j) mirrors (k, m - 1 - k - j)
        bands[:, k, n - p:m - k] = bands[:, k, 2 * p - 1 - k::-1]
    bands.setflags(write=False)
    return bands


def assemble_1d(space: SplineSpace) -> Discretization1D:
    """Assemble M, K and A = K + M for ``space``.

    The per-span Gauss rule has p+1 nodes, exact for the degree-2p
    integrands. Interior spans share one local matrix since the
    uniform-knot basis is translation invariant there. A dyadic space
    with n >= 4p copies the degree's template: its first 2p columns, one
    interior column repeated and its tail aligned with the last column,
    scaled by h (a power of two, so exactly). Any other space runs the
    quadrature loop.
    """
    p, m, n = space.degree, space.dim, space.intervals
    if n & (n - 1) or n < 4 * p:
        bands = _quadrature_bands(space, p + 1)
    else:       # slices and an in-place scale: no full-size temporaries
        t, bands = _band_template(p), np.empty((2, p + 1, m))
        end = m - t.shape[2] + 2 * p + 1        # the tail's first column
        bands[..., :2 * p], bands[..., end:] = t[..., :2 * p], t[..., end - m:]
        bands[..., 2 * p:end] = t[..., 2 * p:2 * p + 1]
        bands *= np.array([[[1.0 / n]], [[n]]])
    M, K = (BandedSymMatrix(m, p, b) for b in bands)
    A = BandedSymMatrix(m, p, M.bands + K.bands)
    return Discretization1D(space=space, M=M, K=K, A=A)


def operator_2d(disc: Discretization1D) -> Operator2D:
    """Tensor-product operator sharing ``disc`` in both directions."""
    return Operator2D(disc=disc)


def apply_operator_2d(op: Operator2D, v: np.ndarray) -> np.ndarray:
    """Apply the 2D operator to a vector of length m**2."""
    return op.apply(np.asarray(v))


def _cosine_moments(space: SplineSpace) -> np.ndarray:
    """g_i = integral of cos(pi x) phi_i(x), Gauss rule with p+3 nodes."""
    p, n, q = space.degree, space.intervals, space.degree + 3
    nodes, weights, classes, vals = _span_classes(space, q, 0)
    wcos = weights * np.cos(np.pi * nodes)          # (spans, nodes)
    contrib = np.empty((n, p + 1))
    # classes ascend with the span, so each is one run of spans
    bounds = np.searchsorted(classes, np.arange(len(vals) + 1))
    for v, lo, hi in zip(vals[:, :, 0], bounds[:-1], bounds[1:]):
        contrib[lo:hi] = wcos[lo:hi] @ v            # one product per class

    g = np.zeros(space.dim)
    for b in range(p + 1):
        g[b:b + n] += contrib[:, b]
    return g


def assemble_load(space: SplineSpace, d: int = 1) -> np.ndarray:
    """Load vector for f(x) = d pi^2 prod_j sin(pi (x_j + 1/2)).

    The trigonometric factor equals cos(pi x_j), so the 2D load is the scaled
    tensor product of the 1D cosine moments.
    """
    if as_integer("dimension", d) not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    g = _cosine_moments(space)
    if d == 1:
        return np.pi**2 * g
    return 2.0 * np.pi**2 * np.outer(g, g).reshape(space.dim ** 2)
