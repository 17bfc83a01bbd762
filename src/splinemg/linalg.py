"""Banded/dense symmetric linear algebra kernels.

Cholesky factorizations (LAPACK pbtrf/potrf behind a uniform interface),
Kronecker-structured applies and Kronecker-sum inverses, and the small
eigen/singular-value routines used by the verification suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg import eigh, lapack

__all__ = [
    "NotSPDError",
    "BandedSymMatrix",
    "WindowBandMatrix",
    "CholeskyFactor",
    "cholesky",
    "kron_apply",
    "KronSumSolver",
    "generalized_eigh",
    "generalized_eig_max",
    "operator_norm",
]

class NotSPDError(ValueError):
    """Raised when a Cholesky pivot (``pivot`` > 0) or an eigenvalue test fails."""

    def __init__(self, pivot: int, what: str = "matrix"):
        self.pivot = pivot
        where = f": leading minor {pivot} not positive definite" if pivot else ""
        super().__init__(f"{what} not SPD{where}")


@dataclass
class BandedSymMatrix:
    """Symmetric banded matrix, lower-band storage.

    ``bands[k, j]`` holds entry (j+k, j) for 0 <= k <= bandwidth; entries with
    j + k >= order are ignored. Only the lower triangle is stored.
    """

    order: int
    bandwidth: int
    bands: np.ndarray
    _csr: scipy.sparse.csr_array | None = field(default=None, repr=False)

    @classmethod
    def zeros(cls, order: int, bandwidth: int) -> "BandedSymMatrix":
        return cls(order, bandwidth, np.zeros((bandwidth + 1, order)))

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int) -> "BandedSymMatrix":
        m = a.shape[0]
        out = cls.zeros(m, bandwidth)
        for k in range(bandwidth + 1):
            out.bands[k, :m - k] = np.diagonal(a, -k)
        return out

    def toarray(self) -> np.ndarray:
        k, j = np.nonzero(np.arange(self.bandwidth + 1)[:, None]
                          + np.arange(self.order) < self.order)
        a = np.zeros((self.order, self.order))
        a[j + k, j] = a[j, j + k] = self.bands[k, j]
        return a

    def rows(self) -> np.ndarray:
        """Row i of the band, entries (i, i - b) ... (i, i + b), as row i of
        an (order, 2b + 1) array; entries outside the matrix are zero."""
        m, b = self.order, self.bandwidth
        out = np.zeros((m, 2 * b + 1))
        for k in range(b + 1):          # entries (i, i + k) and (i + k, i)
            out[:m - k, b + k] = out[k:, b - k] = self.bands[k, :m - k]
        return out

    def tocsr(self) -> scipy.sparse.csr_array:
        if self._csr is None:           # from :meth:`rows`, zeros dropped
            vals, b = self.rows(), self.bandwidth
            keep = vals != 0.0
            cols = np.arange(-b, self.order - b, dtype=np.int32)[:, None] \
                + np.arange(2 * b + 1, dtype=np.int32)
            indptr = np.r_[0, np.cumsum(np.count_nonzero(keep, axis=1),
                                        dtype=np.int32)]
            self._csr = scipy.sparse.csr_array(
                (vals[keep], cols[keep], indptr), shape=self.shape)
        return self._csr

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector or matrix-matrix product (columns of x)."""
        return self.tocsr() @ x

    def principal_submatrix(self, start: int, stop: int) -> "BandedSymMatrix":
        """Contiguous principal submatrix, band storage preserved."""
        b = min(self.bandwidth, stop - start - 1)
        return BandedSymMatrix(stop - start, b,
                               self.bands[:b + 1, start:stop].copy())

    def rectangular_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense copy of an arbitrary (rows x cols) block, gathered from the
        band storage: entry (i, j) is bands[|i - j|, min(i, j)]."""
        i = np.asarray(rows)[:, None]
        j = np.asarray(cols)[None, :]
        k = np.abs(i - j)
        inside = k <= self.bandwidth
        return np.where(inside, self.bands[np.where(inside, k, 0),
                                           np.minimum(i, j)], 0.0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    def __matmul__(self, x):
        return self.apply(x)


#: rows per block of a :class:`WindowBandMatrix`: per 2D V-cycle at l=7,
#: p=4/8/15 and one BLAS thread, 4 to 12 rows measured within 7 % of 8 and
#: 16 rows 3-11 % slower. Even, as a prolongation's windows step by half.
BLOCK_ROWS = 8


@dataclass
class WindowBandMatrix:
    """Matrix held as blocks of BLOCK_ROWS rows, block j multiplying the
    ``width`` operand rows from ``lo + j * stride`` on (a band of half-width
    p: stride BLOCK_ROWS, width BLOCK_ROWS + 2p), with its transpose ``T``
    in the same form. A product multiplies every block by its window of a
    zero-padded copy of the operand in one batched ``np.matmul``."""

    shape: tuple[int, int]
    lo: int
    stride: int
    blocks: np.ndarray          # (count, BLOCK_ROWS, width)
    T: "WindowBandMatrix" = field(init=False, repr=False)

    @classmethod
    def from_entries(cls, shape, rows, cols, vals, lo: int, stride: int,
                     width: int) -> "WindowBandMatrix":
        """The nonzeros (rows, cols, vals), without ``T``; ValueError for a
        nonzero outside its window."""
        block, row = np.divmod(rows, BLOCK_ROWS)
        slot = cols - lo - block * stride
        if ((slot < 0) | (slot >= width)).any():
            raise ValueError(f"a nonzero of a {shape[0]}x{shape[1]} matrix "
                             f"lies outside its window {lo, stride, width}")
        blocks = np.zeros((-(-shape[0] // BLOCK_ROWS), BLOCK_ROWS, width))
        blocks[block, row, slot] = vals
        return cls(shape, lo, stride, blocks)

    @classmethod
    def from_band(cls, a: BandedSymMatrix) -> "WindowBandMatrix":
        """The symmetric band ``a``: block row t holds row t's band from
        window column t on, copied from :meth:`BandedSymMatrix.rows`."""
        m, b, n = a.order, a.bandwidth, BLOCK_ROWS
        rows = np.zeros((-(-m // n) * n, 2 * b + 1))
        rows[:m] = a.rows()
        blocks = np.zeros((len(rows) // n, n, n + 2 * b))
        for t in range(n):
            blocks[:, t, t:t + 2 * b + 1] = rows[t::n]
        out = cls((m, m), -b, n, blocks)
        out.T = out
        return out

    def buffer(self, tail: tuple, x: np.ndarray | None = None) -> np.ndarray:
        """Operand buffer: ``x``, if given, in rows front ... front +
        shape[1] - 1 (front = max(0, -lo)), zeros above and below."""
        count, _, width = self.blocks.shape
        front, n = max(0, -self.lo), self.shape[1]
        out = np.empty((front + max(
            n, self.lo + (count - 1) * self.stride + width),) + tail)
        out[:front] = out[front + n:] = 0.0
        if x is not None:
            out[front:front + n] = x
        return out

    def windows(self, buffer: np.ndarray, tail: tuple = ()) -> np.ndarray:
        """View (count, width, columns) of the windows of a C-contiguous 2D
        ``buffer``, its columns cut to ``tail`` if given."""
        count, _, width = self.blocks.shape
        row = buffer.strides[0]
        return np.ndarray(      # as_strided costs more than a small product
            (count, width) + (tail or buffer.shape[1:]), float, buffer,
            max(0, self.lo) * row, (self.stride * row, row, buffer.strides[1]))

    def product(self, buffer: np.ndarray, tail: tuple = ()) -> np.ndarray:
        """This matrix times the operand in ``buffer`` (see :meth:`windows`)."""
        out = np.matmul(self.blocks, self.windows(buffer, tail))
        return out.reshape(-1, out.shape[-1])[:self.shape[0]]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        buffer = self.buffer(x.shape[1:2] or (1,), x.reshape(len(x), -1))
        return self.product(buffer).reshape((-1,) + x.shape[1:])

    def kron(self, right: "WindowBandMatrix", v: np.ndarray,
             blocks: np.ndarray | None = None) -> np.ndarray:
        """vec(L X R^T) for v = vec(X), L this matrix and R ``right``: R's
        blocks times the windows of X^T write X R^T straight into the rows
        of a buffer that L then multiplies. ``blocks`` (count, s,
        BLOCK_ROWS, width) stacks s factors R_i on R's windows; row r of
        X R_i^T goes to row s r + i, L holds its s factors' columns
        interleaved, and the result is sum_i L_i X R_i^T."""
        blocks = right.blocks[:, None] if blocks is None else blocks
        count, slots, rows, _ = blocks.shape
        n, a = right.shape[1], self.shape[1] // slots       # X is a x n
        xt = right.buffer((a,), v.reshape(a, n).T)
        y = self.buffer((count * rows,))
        row, col = y.strides
        out = np.ndarray((count, slots, rows, a), float, y,    # (j, i, t, r)
                         max(0, -self.lo) * row,
                         (rows * col, row, col, slots * row))
        np.matmul(blocks, right.windows(xt)[:, None], out=out)
        return self.product(y, (right.shape[0],)).reshape(-1)


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor of a banded or dense SPD matrix."""

    kind: str                  # "banded" | "dense"
    order: int
    factor: np.ndarray

    def solve(self, rhs: np.ndarray, forward: bool = False) -> np.ndarray:
        """Solve with LAPACK pbtrs/potrs, or with ``forward`` apply L^-1
        alone (tbtrs/trtrs). Only the factor was checked finite, once, in
        :func:`cholesky`; a solver reports a non-finite result as its stop."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.order}")
        if forward:
            return (lapack.dtbtrs(self.factor, rhs, uplo="L") if self.kind ==
                    "banded" else lapack.dtrtrs(self.factor, rhs, lower=1))[0]
        trs = lapack.dpbtrs if self.kind == "banded" else lapack.dpotrs
        return trs(self.factor, rhs, lower=1)[0]


def cholesky(matrix: BandedSymMatrix | np.ndarray, what: str = "matrix") -> CholeskyFactor:
    """Cholesky factorization; raises :class:`NotSPDError` naming ``what``
    at a failed pivot or for a factor with a non-finite entry."""
    if isinstance(matrix, BandedSymMatrix):
        kind, order = "banded", matrix.order
        c, info = lapack.dpbtrf(matrix.bands, lower=1)
    else:
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        kind, order = "dense", a.shape[0]
        c, info = lapack.dpotrf(a, lower=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to {kind} Cholesky")
    if info > 0 or not np.isfinite(c).all():
        raise NotSPDError(info, what if info else
                          f"{what} (non-finite Cholesky factor)")
    return CholeskyFactor(kind, order, c)


def kron_apply(a_left, a_right, v: np.ndarray) -> np.ndarray:
    """Apply (a_left (x) a_right) to v without materializing the product.

    Views v as a matrix with C-ordering, applies ``a_right`` across rows and
    ``a_left`` across columns. Operators are matrix-likes with ``shape`` and
    ``@``; rectangular operators are allowed. Two window bands go through
    :meth:`WindowBandMatrix.kron`.
    """
    rl, cl = a_left.shape
    rr, cr = a_right.shape
    v = np.asarray(v)
    if v.shape != (cl * cr,):
        raise ValueError(
            f"vector length {v.shape} inconsistent with operator columns {cl}x{cr}")
    if isinstance(a_left, WindowBandMatrix) and isinstance(
            a_right, WindowBandMatrix):
        return a_left.kron(a_right, v)
    mat = v.reshape(cl, cr)
    # (A (x) B) vec_C(V) = vec_C(A V B^T)
    step = (a_right @ mat.T).T     # V B^T, shape (cl, rr)
    out = a_left @ step            # A V B^T, shape (rl, rr)
    return np.ascontiguousarray(out).reshape(rl * rr)


#: H (x) H, H = [[1, 1], [1, -1]]: a square's four mirrored quadrants (see
#: :func:`_quadrants`) to its even-even, even-odd, odd-even, odd-odd parts
_BUTTERFLY = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])


def _quadrants(x: np.ndarray) -> tuple:
    """Views of the h x h corners (h = ceil(m/2)) of a square x, each
    indexed from its corner: top-top, top-bottom (entry (i, j) is
    x[i, m-1-j]), bottom-top, bottom-bottom; for odd m they overlap in the
    middle row and column."""
    h = (len(x) + 1) // 2
    return (x[:h, :h], x[:h, ::-1][:, :h], x[::-1][:h, :h],
            x[::-1, ::-1][:h, :h])


def _fold(x: np.ndarray) -> np.ndarray:
    """Part (a, b) = (even/odd, even/odd) of a square x, (2, 2, h, h): the
    butterflied quadrants, F_a^T x F_b but for the scaling of F's columns."""
    h = (len(x) + 1) // 2
    return (_BUTTERFLY @ np.concatenate(_quadrants(x)).reshape(4, -1)) \
        .reshape(2, 2, h, h)


@dataclass
class KronSumSolver:
    """Exact inverse of the Kronecker sum M (x) B + B (x) M by fast
    diagonalization (Lynch, Rice & Thomas 1964) of a persymmetric pencil.

    With B V = M V diag(lam) and V^T M V = I the inverse is
    (V (x) V) diag(1 / (lam_i + lam_j)) (V (x) V)^T. M and B commute with
    the mirror J (J_ij = 1 for i + j = m - 1), so the orthogonal F = [E O]
    of even and odd vectors ((e_i +- e_{m-1-i}) / sqrt 2, and e_k for odd
    m = 2k + 1) splits the pencil into two of orders h = ceil(m/2) and
    floor(m/2) (Cantoni & Butler 1976): V = F blockdiag(V_e, V_o). A solve
    folds the right-hand side into its four even/odd parts, applies
    V_a^T (.) V_b to part (a, b) in stacked half-size products, scales
    entry-wise and returns the same way: O(m^3) per m^2 unknowns at half
    the flops of full-size factors. The stored factors hold F's scalings
    and V_o zero-padded to h x h.
    """

    order: int              # m
    W: np.ndarray           # (2, h, h) even, odd factors into the eigenbasis
    W_back: np.ndarray      # (2, h, h) even, odd factors out of it
    scale: np.ndarray       # (2, 2, h, h) 1 / (lam_i + lam_j) per part

    @classmethod
    def build(cls, M: np.ndarray, B: np.ndarray, what: str) -> "KronSumSolver":
        """Dense symmetric persymmetric M and B; :class:`NotSPDError` naming
        ``what`` unless M is SPD and every lam_i + lam_j > 0, then a
        ValueError naming it if M or B has a mirror defect
        |X - J X J|_max / |X|_max above 1e-9."""
        m = len(M)
        h, k = (m + 1) // 2, m // 2
        # F's 1/sqrt 2 per side; for odd m the fold adds the middle entry of
        # a side twice (it lies in both quadrants), so 1/2 there
        d = np.full(h, np.sqrt(0.5))
        d[k:] = 0.5
        folded = [_fold(x) for x in (B, M)]
        lam_e, V_e = generalized_eigh(*(x[0, 0] * d[:, None] * d for x in
                                        folded), f"{what} (mass factor)")
        lam_o, V_o = generalized_eigh(*(x[1, 1, :k, :k] / 2.0 for x in
                                        folded), f"{what} (mass factor)")
        if not np.concatenate([lam_e, lam_o]).min() > 0.0:
            raise NotSPDError(0, what)
        defect = max(np.abs(x - x[::-1, ::-1]).max() / np.abs(x).max()
                     for x in (M, B))
        # after the eigensolves, so a pair that is not SPD is named so first;
        # the spline pencils measure below 1e-11
        if not defect <= 1e-9:
            raise ValueError(f"{what} not persymmetric: mirror defect "
                             f"{defect:.1e} > 1e-09")
        W = np.zeros((2, h, h))
        W[0] = V_e * d[:, None]
        W[1, :k, :k] = V_o * np.sqrt(0.5)
        W_back = W.copy()
        W_back[0, k:] *= 2.0                # E's middle vector is e_k itself
        lam = np.stack([lam_e, np.r_[lam_o, np.inf][:h]])  # pad: 1 / inf = 0
        return cls(m, W, W_back,
                   1.0 / (lam[:, None, :, None] + lam[None, :, None, :]))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        m, W, W_back = self.order, self.W, self.W_back
        y = np.matmul(np.matmul(W.transpose(0, 2, 1)[:, None],
                                _fold(rhs.reshape(m, m))), W) * self.scale
        z = np.matmul(np.matmul(W_back[:, None], y), W_back.transpose(0, 2, 1))
        out = np.empty((m, m))
        parts = _BUTTERFLY @ z.reshape(4, -1)
        for corner, part in zip(_quadrants(out), parts):
            corner[...] = part.reshape(corner.shape)
        return out.reshape(-1)


def generalized_eigh(A: np.ndarray, B: np.ndarray, what: str = "B", **kw):
    """The package's one generalized eigensolve, ``eigh(A, B, **kw)`` for
    dense symmetric A and SPD B; :class:`NotSPDError` naming ``what`` if not."""
    try:
        return eigh(A, B, **kw)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(0, what) from exc


def generalized_eig_max(A: np.ndarray, B: np.ndarray,
                        what: str = "B") -> float:
    """Largest lambda with A x = lambda B x (A symmetric, B SPD), dense;
    :class:`NotSPDError` naming ``what`` if B is not SPD."""
    return float(generalized_eigh(A, B, what, eigvals_only=True,
                                  subset_by_index=[len(A) - 1] * 2)[-1])


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.norm(op, 2))
