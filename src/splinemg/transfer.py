"""Intergrid transfer for dyadically refined spline spaces.

The prolongation is the canonical embedding of the coarse space into a fine
space with 2^k times its intervals (k = 1 in the hierarchy, k = PROXY_LEVELS
in verify): the matrix of knot insertion, built with the Oslo algorithm
(discrete B-splines) over all rows at once, or copied from one cached
template per degree and ratio on a large enough dyadic pair. Restriction is
the transpose. A hierarchy level holds both, each built once, in one
:class:`Embedding`: in 1D CSR matrices in the levels' mirror butterfly
coordinates (:func:`parity_embedding`), in 2D the Kronecker squares as
:class:`~splinemg.linalg.WindowKron` products.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse

from .linalg import BLOCK_ROWS, WindowBandMatrix, WindowKron, \
    csr_transpose, sparse_matvec
from .splines import SplineSpace, build_space

__all__ = [
    "Embedding",
    "build_prolongation",
    "parity_embedding",
    "window_embedding",
    "prolong",
    "restrict",
    "prolong_2d",
    "restrict_2d",
]


@dataclass
class Embedding:
    """A prolongation held with its restriction, so that neither forms a
    transpose per call: the CSR P and P^T in 1D, P (x) P and
    P^T (x) P^T in 2D."""

    matrix: scipy.sparse.csr_matrix | WindowKron
    T: scipy.sparse.csr_matrix | WindowKron


def _coarse_spans(coarse: SplineSpace, fine: SplineSpace) -> np.ndarray:
    """Coarse span mu of every fine row, counted in integers (with 3 * 2^l
    intervals a rounded knot can fall below its breakpoint)."""
    ratio = fine.intervals // coarse.intervals
    return coarse.degree + np.minimum(np.maximum(np.arange(
        fine.dim, dtype=np.int32) - coarse.degree, 0) // ratio,
        coarse.intervals - 1)


def _oslo_rows(coarse: SplineSpace, fine: SplineSpace) -> np.ndarray:
    """Discrete B-splines b_{mu-p..mu, p}(i) of every fine row i, shape
    (fine.dim, p + 1), by the Oslo recurrence: one array step per degree r
    over all rows and all s, bit-identical to the scalar recurrence (its
    running ``saved`` is the shifted product (x - t_l) * tmp)."""
    p, mu = coarse.degree, _coarse_spans(coarse, fine)
    # knots[p - 1 + o] = t[mu + o] for o = 1-p..p
    knots = coarse.knots[mu + np.arange(1 - p, p + 1)[:, None]]
    vals = np.zeros((p + 1, fine.dim))
    vals[0] = 1.0
    for r in range(1, p + 1):
        x = fine.knots[r:r + fine.dim]
        tl, tr = knots[p - r:p], knots[p:p + r]
        tmp = vals[:r] / (tr - tl)
        rt = (tr - x) * tmp
        saved = (x - tl) * tmp
        vals[0] = 0.0 + rt[0]
        vals[1:r] = saved[:-1] + rt[1:]
        vals[r] = saved[-1]
    return vals.T


@cache
def _row_template(p: int, ratio: int) -> np.ndarray:
    """Read-only Oslo rows of the smallest dyadic pair with n_c >= 2p + 5.

    With n_c a power of two every knot is an exact dyadic number, so each
    row depends only on its offsets from the nearer end: the boundary rows
    are the same bits at every level, and the interior rows, from coarse
    span 2p - 1 on, repeat with period ``ratio``.
    """
    level = (2 * p + 4).bit_length()
    rows = _oslo_rows(build_space(p, level),
                      build_space(p, level + ratio.bit_length() - 1))
    rows.setflags(write=False)
    return rows


def build_prolongation(coarse: SplineSpace,
                       fine: SplineSpace) -> scipy.sparse.csr_matrix:
    """Canonical embedding matrix (fine.dim x coarse.dim) for a fine space
    with 2^k times the coarse intervals, k >= 1.

    Row i holds the discrete B-splines b_{mu-p..mu, p}(i) of the coarse knots
    t on the fine knots tau, where mu is the coarse span of tau[i]. A dyadic
    pair with n_c >= 2p + 5 copies the rows of the template for its degree
    and ratio (left rows, one interior period repeated, right rows); any
    other pair runs the Oslo recurrence over all rows.
    """
    return scipy.sparse.csr_matrix(_csr_arrays(coarse, fine),
                                   shape=(fine.dim, coarse.dim))


def _csr_arrays(coarse: SplineSpace, fine: SplineSpace) -> tuple:
    """CSR data, indices and indptr of :func:`build_prolongation`'s matrix."""
    if coarse.degree != fine.degree:
        raise ValueError(
            f"degree mismatch: coarse {coarse.degree}, fine {fine.degree}")
    ratio, rest = divmod(fine.intervals, coarse.intervals)
    if rest or ratio < 2 or ratio & (ratio - 1):
        raise ValueError(
            "refinement must be dyadic: fine intervals "
            f"{fine.intervals} != 2^k * {coarse.intervals}, k >= 1")
    p, n_c, m = coarse.degree, coarse.intervals, fine.dim
    if n_c & (n_c - 1) or n_c < 2 * p + 5:
        vals = _oslo_rows(coarse, fine)
    else:
        ref, vals = _row_template(p, ratio), np.empty((m, p + 1))
        start = p + ratio * (p - 1)          # first row of coarse span 2p - 1
        end = m - len(ref) + start + ratio   # end - start: a multiple of ratio
        vals[:start], vals[end:] = ref[:start], ref[start + ratio:]
        vals[start:end].reshape(-1, ratio, p + 1)[...] = ref[start:][:ratio]

    nonzero = vals != 0.0
    cols = (_coarse_spans(coarse, fine) - p)[:, None] + np.arange(
        p + 1, dtype=np.int32)          # SciPy's index type: no recast
    indptr = np.concatenate([[0], np.cumsum(nonzero @ np.ones(
        p + 1, np.int32))], dtype=np.int32)     # the rows' nonzero counts
    return vals[nonzero], cols[nonzero], indptr


def parity_embedding(coarse: SplineSpace, fine: SplineSpace) -> Embedding:
    """P~ = G_f^-1 P G_c = D_f^2 G_f^T P G_c of a 1D pair in the levels'
    coordinates (G the mirror butterfly, D^2 = (G^T G)^-1), with P~^T.

    P is persymmetric, so P~ is block diagonal by parity and P's top rows
    give it: row a < ceil(m_f/2) of the even block is P[a] G_c's even part,
    halved in the middle of odd m_f, and row a < floor(m_f/2) of the odd
    block is P[a] G_c's odd part. P's bottom rows do not enter P~."""
    data, indices, indptr = _csr_arrays(coarse, fine)
    mf, mc = shape = fine.dim, coarse.dim
    hf, kf, hc = (mf + 1) // 2, mf // 2, (mc + 1) // 2
    top, split = indptr[hf], indptr[kf]     # rows < kf: the odd block's
    j = indices[:top]
    col = np.minimum(j, mc - 1 - j)             # G_c's column of entry j
    even = data[:top].copy()
    even[split:] *= 0.5             # D_f^2 G_f^T's middle row is e_k / 2
    odd = np.where(j[:split] > col[:split], -data[:split], data[:split])
    odd_cols, odd_ptr = hc + col[:split], indptr[1:kf + 1]
    if mc % 2:              # G_c's middle column 2 e_k has no odd part
        even[j == mc // 2] *= 2.0
        keep = np.flatnonzero(j[:split] != mc // 2)
        odd, odd_cols = odd[keep], odd_cols[keep]
        odd_ptr = np.searchsorted(keep, odd_ptr).astype(np.int32)
    # a row holding j and m_c - 1 - j keeps both entries in column col
    Pt = scipy.sparse.csr_matrix((np.concatenate([even, odd]),
                                  np.concatenate([col, odd_cols]),
                                  np.concatenate([indptr[:hf + 1],
                                                  top + odd_ptr])), shape)
    return Embedding(Pt, csr_transpose(Pt))


def window_embedding(coarse: SplineSpace, fine: SplineSpace) -> Embedding:
    """P (x) P of a twice refined pair, with P^T (x) P^T, planned on window
    bands read from the CSR arrays: row i of P has its nonzeros in columns
    ceil((i - 1) / 2) to floor((i + p) / 2), column c in rows 2c - p to
    2c + 1."""
    P, p, b = build_prolongation(coarse, fine), coarse.degree, BLOCK_ROWS
    rows = np.repeat(np.arange(fine.dim), np.diff(P.indptr))
    W = WindowBandMatrix.from_entries(P.shape, rows, P.indices, P.data,
                                      0, b // 2, (b + p + 1) // 2)
    WT = WindowBandMatrix.from_entries(P.shape[::-1], P.indices, rows, P.data,
                                       -p, 2 * b, 2 * b + p)
    return Embedding(WindowKron(W, W), WindowKron(WT, WT))


def prolong(P, coarse_vec: np.ndarray) -> np.ndarray:
    """P @ coarse_vec for a 1D :class:`Embedding` or a prolongation matrix,
    a held CSR by SciPy's compiled kernel (see
    :func:`~splinemg.linalg.sparse_matvec`, which names a wrong length)."""
    return sparse_matvec(P.matrix if isinstance(P, Embedding) else P,
                         coarse_vec)


def restrict(P, fine_vec: np.ndarray) -> np.ndarray:
    """P^T @ fine_vec, as :func:`prolong` applies P."""
    return sparse_matvec(P.T, fine_vec)


def prolong_2d(P: Embedding, coarse_vec: np.ndarray) -> np.ndarray:
    """Apply P (x) P, held by a :func:`window_embedding`."""
    return P.matrix @ coarse_vec


def restrict_2d(P: Embedding, fine_vec: np.ndarray) -> np.ndarray:
    """Apply P^T (x) P^T, held by a :func:`window_embedding`."""
    return P.T @ fine_vec
