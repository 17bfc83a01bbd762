"""Intergrid transfer for dyadically refined spline spaces.

The prolongation is the canonical embedding of the coarse space into a fine
space with 2^k times its intervals: the matrix of knot insertion, built with
the Oslo algorithm (discrete B-splines) over all rows at once (k = 1 in the
hierarchy, k = proxy_levels in verify). Restriction is the transpose, held
once per hierarchy level with P (:class:`SparseEmbedding` in 1D,
:class:`~splinemg.linalg.BlockBandMatrix` in 2D); 2D transfers are Kronecker
squares applied factor-wise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .linalg import kron_apply
from .splines import SplineSpace

__all__ = [
    "SparseEmbedding",
    "build_prolongation",
    "prolong",
    "restrict",
    "prolong_2d",
    "restrict_2d",
]


@dataclass
class SparseEmbedding:
    """A CSR prolongation held with its CSR transpose, so that a restriction
    forms no transpose per call."""

    matrix: scipy.sparse.csr_matrix
    T: scipy.sparse.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.shape, self.T = self.matrix.shape, self.matrix.T.tocsr()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


def build_prolongation(coarse: SplineSpace,
                       fine: SplineSpace) -> scipy.sparse.csr_matrix:
    """Canonical embedding matrix (fine.dim x coarse.dim) for a fine space
    with 2^k times the coarse intervals, k >= 1.

    Row i holds the discrete B-splines b_{mu-p..mu, p}(i) of the coarse knots
    t on the fine knots tau, where mu is the coarse span of tau[i], counted
    in integers (with 3 * 2^l intervals a rounded knot can fall below its
    breakpoint); the Oslo recurrence runs once over all rows.
    """
    if coarse.degree != fine.degree:
        raise ValueError(
            f"degree mismatch: coarse {coarse.degree}, fine {fine.degree}")
    ratio, rest = divmod(fine.intervals, coarse.intervals)
    if rest or ratio < 2 or ratio & (ratio - 1):
        raise ValueError(
            "refinement must be dyadic: fine intervals "
            f"{fine.intervals} != 2^k * {coarse.intervals}, k >= 1")
    p = coarse.degree
    t, tau = coarse.knots, fine.knots
    mu = p + np.minimum(np.maximum(np.arange(fine.dim) - p, 0) // ratio,
                        coarse.intervals - 1)

    vals = np.zeros((p + 1, fine.dim))
    vals[0] = 1.0
    for r in range(1, p + 1):
        x = tau[r:r + fine.dim]
        saved = 0.0
        for s in range(r):
            tl = t[mu - r + 1 + s]
            tr = t[mu + 1 + s]
            tmp = vals[s] / (tr - tl)
            vals[s] = saved + (tr - x) * tmp
            saved = (x - tl) * tmp
        vals[r] = saved

    vals = vals.T
    nonzero = vals != 0.0
    cols = (mu - p)[:, None] + np.arange(p + 1)
    indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    return scipy.sparse.csr_matrix(
        (vals[nonzero], cols[nonzero], indptr), shape=(fine.dim, coarse.dim))


def prolong(P, coarse_vec: np.ndarray) -> np.ndarray:
    if coarse_vec.shape[0] != P.shape[1]:
        raise ValueError("coarse vector length mismatch")
    return P @ coarse_vec


def restrict(P, fine_vec: np.ndarray) -> np.ndarray:
    if fine_vec.shape[0] != P.shape[0]:
        raise ValueError("fine vector length mismatch")
    return P.T @ fine_vec


def prolong_2d(P, coarse_vec: np.ndarray) -> np.ndarray:
    """Apply P (x) P without materializing the Kronecker product."""
    return kron_apply(P, P, coarse_vec)


def restrict_2d(P, fine_vec: np.ndarray) -> np.ndarray:
    """Apply P^T (x) P^T without materializing the Kronecker product."""
    return kron_apply(P.T, P.T, fine_vec)
