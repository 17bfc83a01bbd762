"""Intergrid transfer for dyadically refined spline spaces.

The prolongation is the canonical embedding of the coarse space into the fine
space: the matrix of knot insertion of all coarse-interval midpoints, built
row-wise with the Oslo algorithm (discrete B-splines). Restriction is the
transpose; 2D transfers are Kronecker squares applied factor-wise.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse

from .linalg import kron_apply
from .splines import SplineSpace

__all__ = [
    "build_prolongation",
    "prolong",
    "restrict",
    "prolong_2d",
    "restrict_2d",
]


def _insertion_row(t: np.ndarray, p: int, tau: np.ndarray, i: int,
                   mu: int) -> np.ndarray:
    """Discrete B-spline values b_{mu-p..mu, p}(i): row i of the knot
    insertion matrix from knots ``t`` to refined knots ``tau``."""
    row = np.zeros(p + 1)
    row[0] = 1.0
    for r in range(1, p + 1):
        x = tau[i + r]
        saved = 0.0
        for s in range(r):
            tl = t[mu - r + 1 + s]
            tr = t[mu + 1 + s]
            tmp = row[s] / (tr - tl)
            row[s] = saved + (tr - x) * tmp
            saved = (x - tl) * tmp
        row[r] = saved
    return row


def build_prolongation(coarse: SplineSpace,
                       fine: SplineSpace) -> scipy.sparse.csr_matrix:
    """Canonical embedding matrix (fine.dim x coarse.dim) for one dyadic
    refinement step."""
    if coarse.degree != fine.degree:
        raise ValueError(
            f"degree mismatch: coarse {coarse.degree}, fine {fine.degree}")
    if fine.intervals != 2 * coarse.intervals:
        raise ValueError(
            "refinement must be dyadic: fine intervals "
            f"{fine.intervals} != 2 * {coarse.intervals}")
    p = coarse.degree
    t, tau = coarse.knots, fine.knots
    nc = coarse.intervals

    rows, cols, vals = [], [], []
    for i in range(fine.dim):
        # span of tau[i] in the coarse knots, clamped to the last span
        mu = p + min(int(tau[i] * nc), nc - 1)
        row = _insertion_row(t, p, tau, i, mu)
        for s, v in enumerate(row):
            if v != 0.0:
                rows.append(i)
                cols.append(mu - p + s)
                vals.append(v)
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(fine.dim, coarse.dim))


def prolong(P: scipy.sparse.csr_matrix, coarse_vec: np.ndarray) -> np.ndarray:
    if coarse_vec.shape[0] != P.shape[1]:
        raise ValueError("coarse vector length mismatch")
    return P @ coarse_vec


def restrict(P: scipy.sparse.csr_matrix, fine_vec: np.ndarray) -> np.ndarray:
    if fine_vec.shape[0] != P.shape[0]:
        raise ValueError("fine vector length mismatch")
    return P.T @ fine_vec


def prolong_2d(P: scipy.sparse.csr_matrix, coarse_vec: np.ndarray) -> np.ndarray:
    """Apply P (x) P without materializing the Kronecker product."""
    return kron_apply(P, P, coarse_vec)


def restrict_2d(P: scipy.sparse.csr_matrix, fine_vec: np.ndarray) -> np.ndarray:
    """Apply P^T (x) P^T without materializing the Kronecker product."""
    return kron_apply(P.T, P.T, fine_vec)
