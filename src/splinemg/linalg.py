"""Banded/dense symmetric linear algebra kernels.

Cholesky factorizations (LAPACK pbtrf/potrf behind a uniform interface),
sparse products on SciPy's compiled kernels, Kronecker-structured applies
and Kronecker-sum inverses, and the small eigen/singular-value routines
used by the verification suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.linalg import eigh, lapack
# private: imported here only, each use tested against SciPy's public API
from scipy.sparse._sparsetools import csr_matvec, csr_tocsc, dia_matvec

__all__ = [
    "NotSPDError",
    "BandedSymMatrix",
    "sparse_matvec",
    "csr_transpose",
    "WindowBandMatrix",
    "WindowKron",
    "CholeskyFactor",
    "cholesky",
    "kron_apply",
    "KronSumSolver",
    "butterfly",
    "butterfly_T",
    "butterfly_weight",
    "check_mirror",
    "parity_band",
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

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int) -> "BandedSymMatrix":
        m = a.shape[0]
        out = cls(m, bandwidth, np.zeros((bandwidth + 1, m)))
        for k in range(bandwidth + 1):
            out.bands[k, :m - k] = np.diagonal(a, -k)
        return out

    def toarray(self) -> np.ndarray:
        k, j = np.nonzero(np.arange(self.bandwidth + 1)[:, None]
                          + np.arange(self.order) < self.order)
        a = np.zeros((self.order, self.order))
        a[j + k, j] = a[j, j + k] = self.bands[k, j]
        return a

    def diagonals(self) -> np.ndarray:
        """Row b + o holds diagonal o = -b ... b by column, as LAPACK band
        storage does (DIA data); C-ordered, zero outside the matrix."""
        m, b = self.order, self.bandwidth
        data = np.zeros((2 * b + 1, m))
        data[:b + 1] = self.bands[::-1]
        for k in range(1, b + 1):       # diagonal k is diagonal -k shifted
            data[b - k, max(m - k, 0):] = 0.0
            data[b + k, k:] = data[b - k, :max(m - k, 0)]
        return data

    @cached_property
    def sparse(self) -> scipy.sparse.dia_array:
        """The band as a DIA array, built on first use (C-ordered data: SciPy
        copies any other order per product); a row sums in column order.
        ``bands`` then views the lower diagonals of its data, so that the
        two forms share their memory."""
        b, data = self.bandwidth, self.diagonals()
        self.bands = data[b::-1]
        return scipy.sparse.dia_array((data, np.arange(-b, b + 1)), self.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector or matrix-matrix product (columns of x), by
        :func:`sparse_matvec`."""
        return sparse_matvec(self.sparse, x)

    def principal_submatrix(self, start: int, stop: int) -> "BandedSymMatrix":
        """Contiguous principal submatrix, band storage preserved."""
        b = min(self.bandwidth, stop - start - 1)
        return BandedSymMatrix(stop - start, b,
                               self.bands[:b + 1, start:stop].copy())

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """bands[|i - j|, min(i, j)] for broadcast i, j; zero off the band."""
        k = np.abs(i - j)
        inside = k <= self.bandwidth
        return np.where(inside, self.bands[np.where(inside, k, 0),
                                           np.minimum(i, j)], 0.0)

    def rectangular_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense copy of an arbitrary (rows x cols) block."""
        return self.entries(np.asarray(rows)[:, None], np.asarray(cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)


def sparse_matvec(a, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a float64 SciPy matrix ``a`` of shape (m, n); ValueError
    naming n unless x has n rows. For a DIA or CSR ``a`` and a vector x
    (cast to a C-contiguous float64 array, as the kernel reads raw
    pointers) it calls the compiled kernel that ``@`` runs, with its
    summation order and bits but without ``@``'s per-call dispatch (about
    2 us, most of a small level's product); columns of x and the other
    formats go through ``@``."""
    m, n = a.shape
    x = np.asarray(x)
    if x.shape[:1] != (n,):
        raise ValueError(f"vector of shape {x.shape}, expected ({n},)")
    form = a.format if x.ndim == 1 else None
    if form not in ("dia", "csr"):
        return a @ x
    x, y = np.ascontiguousarray(x, dtype=float), np.zeros(m)
    if form == "dia":
        dia_matvec(m, n, len(a.offsets), a.data.shape[1], a.offsets, a.data,
                   x, y)
    else:
        csr_matvec(m, n, a.indptr, a.indices, a.data, x, y)
    return y


def csr_transpose(a: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """The CSR of a^T for a float64 CSR ``a``, the arrays and dtypes of
    ``a.T.tocsr()`` bit for bit: SciPy's one C transposition, without the
    two constructions around it."""
    (m, n), nnz, index = a.shape, a.nnz, a.indices.dtype
    indptr, indices, data = np.empty(n + 1, index), np.empty(nnz, index), \
        np.empty(nnz)
    csr_tocsc(m, n, a.indptr, a.indices, a.data, indptr, indices, data)
    return scipy.sparse.csr_matrix((data, indices, indptr), (n, m))


#: rows per block of a :class:`WindowBandMatrix`: per 2D V-cycle at l=7,
#: p=4/8/15 and one BLAS thread, 4 to 12 rows measured within 7 % of 8 and
#: 16 rows 3-11 % slower. Even, as a prolongation's windows step by half.
BLOCK_ROWS = 8


@dataclass
class WindowBandMatrix:
    """Matrix held as blocks of BLOCK_ROWS rows, block j multiplying the
    ``width`` operand rows from ``lo + j * stride`` on (a band of half-width
    p: stride BLOCK_ROWS, width BLOCK_ROWS + 2p). A :class:`WindowKron`
    multiplies every block by its window of a zero-padded operand buffer in
    one batched ``np.matmul``."""

    shape: tuple[int, int]
    lo: int
    stride: int
    blocks: np.ndarray          # (count, BLOCK_ROWS, width)

    @classmethod
    def from_entries(cls, shape, rows, cols, vals, lo: int, stride: int,
                     width: int) -> "WindowBandMatrix":
        """The nonzeros (rows, cols, vals); ValueError for a nonzero outside
        its window."""
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
        window column t on, column t of its diagonals read bottom up."""
        m, b, n = a.order, a.bandwidth, BLOCK_ROWS
        rows = np.zeros((-(-m // n) * n, 2 * b + 1))
        rows[:m] = a.diagonals()[::-1].T
        blocks = np.zeros((len(rows) // n, n, n + 2 * b))
        for t in range(n):
            blocks[:, t, t:t + 2 * b + 1] = rows[t::n]
        return cls((m, m), -b, n, blocks)

    def buffer(self, tail: tuple) -> np.ndarray:
        """Zeroed operand buffer: the operand goes in rows front ... front +
        shape[1] - 1 (front = max(0, -lo)), the rows above and below it stay
        zero."""
        count, _, width = self.blocks.shape
        return np.zeros((max(0, -self.lo) + max(
            self.shape[1], self.lo + (count - 1) * self.stride + width),)
            + tail)

    def windows(self, buffer: np.ndarray, tail: tuple = ()) -> np.ndarray:
        """View (count, width, columns) of the windows of a C-contiguous 2D
        ``buffer``, its columns cut to ``tail`` if given."""
        count, _, width = self.blocks.shape
        row = buffer.strides[0]
        return np.ndarray(      # as_strided costs more than a small product
            (count, width) + (tail or buffer.shape[1:]), float, buffer,
            max(0, self.lo) * row, (self.stride * row, row, buffer.strides[1]))


class WindowKron:
    """The Kronecker product L (x) R of two window bands, planned once:
    ``self @ v`` is vec(L X R^T) for v = vec(X). R's blocks times the
    windows of X^T write X R^T straight into the rows of a buffer that L
    then multiplies. ``blocks`` (count, s, BLOCK_ROWS, width) stacks s
    factors R_i on R's windows; row r of X R_i^T goes to row s r + i, L
    holds its s factors' columns interleaved, and the product is
    sum_i L_i X R_i^T. Both operand buffers are zero-padded at construction
    and held with their window views, so a product copies X^T, runs the two
    batched products and allocates only its result. Products on one
    instance must not overlap."""

    def __init__(self, left: WindowBandMatrix, right: WindowBandMatrix,
                 blocks: np.ndarray | None = None):
        self.left, self.right = left, right
        self.stacked = right.blocks[:, None] if blocks is None else blocks
        count, slots, rows, _ = self.stacked.shape
        n, a = right.shape[1], left.shape[1] // slots       # X is a x n
        self.shape = (left.shape[0] * right.shape[0], a * n)
        xt = right.buffer((a,))
        front = max(0, -right.lo)
        self.xt = xt[front:front + n]
        self.xt_windows = right.windows(xt)[:, None]
        y = left.buffer((count * rows,))
        row, col = y.strides
        self.out = np.ndarray((count, slots, rows, a), float, y,  # (j, i, t, r)
                              max(0, -left.lo) * row,
                              (rows * col, row, col, slots * row))
        self.y_windows = left.windows(y, (right.shape[0],))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """The product with a vector of length shape[1], a fresh array;
        ValueError for any other shape."""
        if v.shape != self.shape[1:]:
            raise ValueError(
                f"vector of shape {v.shape}, expected ({self.shape[1]},)")
        self.xt[...] = v.reshape(self.xt.shape[::-1]).T
        np.matmul(self.stacked, self.xt_windows, out=self.out)
        out = np.matmul(self.left.blocks, self.y_windows)
        return out.reshape(-1, out.shape[-1])[:self.left.shape[0]].reshape(-1)


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor of a banded or dense SPD matrix."""

    kind: str                  # "banded" | "dense"
    order: int
    factor: np.ndarray

    @cached_property
    def upper(self) -> np.ndarray:
        """L^T of a band factor in upper band storage (a 1D hierarchy builds
        it in setup): row b - k is L's diagonal k shifted right by k."""
        (n, m), s = self.factor.shape, self.factor.itemsize     # n = b + 1
        pad = np.zeros((n, m + n - 1))      # b zeros, then a row of L
        pad[:, n - 1:] = self.factor
        return np.asfortranarray(np.ndarray(
            (n, m), float, pad, (n - 1) * s, ((m + n - 2) * s, s))[::-1])

    def solve(self, rhs: np.ndarray, forward: bool = False) -> np.ndarray:
        """Solve (a band by untransposed tbtrs on L, then on L^T, faster than
        pbtrs), or with ``forward`` apply L^-1 alone. Only the factor was
        checked finite, in :func:`cholesky`; a non-finite rhs passes through."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.order}")
        if self.kind == "dense":
            trs = lapack.dtrtrs if forward else lapack.dpotrs
            return trs(self.factor, rhs, lower=1)[0]
        y = lapack.dtbtrs(self.factor, rhs, uplo="L")[0]
        return y if forward else \
            lapack.dtbtrs(self.upper, y, uplo="U", overwrite_b=1)[0]


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
    ``@``; rectangular operators are allowed.
    """
    rl, cl = a_left.shape
    rr, cr = a_right.shape
    v = np.asarray(v)
    if v.shape != (cl * cr,):
        raise ValueError(
            f"vector length {v.shape} inconsistent with operator columns {cl}x{cr}")
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


def butterfly_T(v: np.ndarray) -> np.ndarray:
    """G^T v for the mirror butterfly G of order m = len(v), whose columns
    are e_a + e_{m-1-a} for a < h = ceil(m/2) (2 e_k in the middle of odd
    m = 2k + 1), then e_a - e_{m-1-a} for a < k: a load or a residual in a
    1D level's coordinates."""
    m = len(v)
    h, k, out = (m + 1) // 2, m // 2, np.empty(m)
    np.add(v[:h], v[k:][::-1], out=out[:h])
    np.subtract(v[:k], v[h:][::-1], out=out[h:])
    return out


def butterfly(y: np.ndarray) -> np.ndarray:
    """G y: the vector whose 1D level coordinates are y = (even part, odd
    part)."""
    m = len(y)
    h, k, out = (m + 1) // 2, m // 2, np.empty(m)
    np.add(y[:k], y[h:], out=out[:k])
    np.multiply(2.0, y[k:h], out=out[k:h])      # G's column 2 e_k: the middle
    np.subtract(y[:k], y[h:], out=out[h:][::-1])
    return out


def butterfly_weight(m: int) -> np.ndarray:
    """D^2 = (G^T G)^-1 of order m: 1/2, and 1/4 at the middle of odd m.
    Powers of two, so G^-1 = D^2 G^T holds exactly, and a residual's norm is
    (r~^T D^2 r~)^1/2 in the coordinates r~ = G^T r."""
    w = np.full(m, 0.5)
    w[m // 2:(m + 1) // 2] = 0.25
    return w


def check_mirror(what: str, x, mirrored) -> None:
    """ValueError naming ``what`` unless its mirror defect
    |x - mirrored|_max / |x|_max is at most 1e-9, ``mirrored`` being J x J
    in x's storage (dense or band). Over p = 1-60 and l = 0-12 the spline
    M, K and A measure at most 4.3e-13."""
    defect = abs(x - mirrored).max() / abs(x).max()
    if not defect <= 1e-9:
        raise ValueError(f"{what} not persymmetric: mirror defect "
                         f"{defect:.1e} > 1e-09")


def parity_band(X: BandedSymMatrix, what: str, sigma: float = 1.0,
                Q: np.ndarray | None = None) -> BandedSymMatrix:
    """G^T L G's even and then odd diagonal block as one band of order m and
    bandwidth p, for L = sigma X + C, X a persymmetric band of bandwidth p
    and C the 2p x 2p block Q on the first and last p indices (none when
    Q is None): entry (a, b) of a block is L[a, b] + L[m-1-a, m-1-b] +-
    (L[a, m-1-b] + L[m-1-a, b]).

    The even-odd blocks it drops vanish but for L's mirror defect: the band
    is that of (L + J L J) / 2, SPD when L is, so Q's defect can change a
    rate but not a solution. X, a level operator's band, is checked by
    :func:`check_mirror` naming ``what``."""
    m, p = X.order, X.bandwidth
    h, k = (m + 1) // 2, m // 2
    # J X J's lower band, entry (j + d, j) = X[m-1-j-d, m-1-j], is X's read
    # backwards, flat entry (d + 1)(m - 1) - j; its first h columns meet
    # every mirrored pair of entries (zero past the matrix, d > m-1-j)
    bands, s = np.ascontiguousarray(X.bands), X.bands.itemsize
    left, mirror = bands[:, :h], np.ndarray(
        (p + 1, h), float, bands, (m - 1) * s, ((m - 1) * s, -s)).copy()
    for d in range(k + 1, p + 1):
        mirror[d, m - d:] = 0.0
    check_mirror(what, left, mirror)
    same, band = left + mirror, np.empty((p + 1, m))
    even, odd = band[:, :h], band[:, h:]
    np.multiply(sigma, same, out=even)
    odd[...] = even[:, :k]
    # the cross-parity terms vanish but within p of the middle (c on). X[r, q]
    # is X's diagonal row p + q - r at column q, so both terms of (j + d, j),
    # X[m-1-j, j+d] and X[m-1-j-d, j], lie in row p + 2j + d + 1 - m: views
    # of F, the diagonals' columns c on, with zero rows above and below
    c = max(0, h - 1 - p)
    w = min(m, h + p) - c
    F = np.zeros((3 * p + 3, w))
    F[p + 1:2 * p + 2] = bands[::-1, c:c + w]
    F[2 * p + 1:3 * p + 2] = np.ndarray(    # diagonal k: bands[k] shifted
        (p + 1, w), float, bands, c * s, ((m - 1) * s, s))
    start = (2 * p + 2 + 2 * c - m) * w * s
    cross = np.add(*(np.ndarray((p + 1, h - c), float, F, start, (
        t * s, (2 * w + 1) * s)) for t in (w + 1, w)))
    even[:, c:] = sigma * (same[:, c:] + cross)
    odd[:, c:] = (sigma * (same[:, c:] - cross))[:, :k - c]
    if Q is not None:
        # Q's even and odd parts as bands: entry (d, j) is part[d + j, j]
        q = np.zeros((2, 2 * p, p))
        q[:, :p] = _fold(Q).reshape(4, p, p)[::3]
        q = np.ndarray((2, p + 1, p), float, q, 0,
                       (2 * p * p * s, p * s, (p + 1) * s))
        even[:, :p] += q[0]
        odd[:, :p] += q[1]
    # zero the entries past each block's end, j + d >= h in the even block
    # and j - h + d >= k in the odd: its last n columns, n = min(p, its size)
    tail = np.arange(p + 1)[:, None] + np.arange(p) >= p
    for end, n in ((h, min(p, h)), (m, min(p, k))):
        band[:, end - n:end][tail[:, p - n:]] = 0.0
    return BandedSymMatrix(m, p, band)


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
        # after the eigensolves, so a pair that is not SPD is named so first;
        # the spline pencils measure below 1e-11
        for x in (M, B):
            check_mirror(what, x, x[::-1, ::-1])
        W = np.zeros((2, h, h))
        W[0] = V_e * d[:, None]
        W[1, :k, :k] = V_o * np.sqrt(0.5)
        W_back = W.copy()
        W_back[0, k:] *= 2.0                # E's middle vector is e_k itself
        lam = np.stack([lam_e, np.r_[lam_o, np.inf][:h]])  # pad: 1 / inf = 0
        return cls(m, W, W_back,
                   1.0 / (lam[:, None, :, None] + lam[None, :, None, :]))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The inverse applied to a vector of length m^2; ValueError for
        any other shape."""
        m, W, W_back = self.order, self.W, self.W_back
        if rhs.shape != (m * m,):
            raise ValueError(
                f"vector of shape {rhs.shape}, expected ({m * m},)")
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
