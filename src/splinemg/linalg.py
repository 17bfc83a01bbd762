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
    "BlockBandMatrix",
    "CholeskyFactor",
    "cholesky",
    "kron_apply",
    "KronSumSolver",
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

    def tocsr(self) -> scipy.sparse.csr_array:
        if self._csr is None:
            offsets = np.arange(-self.bandwidth, self.bandwidth + 1)
            diags = [self.bands[abs(k), :self.order - abs(k)] for k in offsets]
            self._csr = scipy.sparse.diags_array(
                diags, offsets=offsets, shape=self.shape).tocsr()
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


#: rows per block of a :class:`BlockBandMatrix` (24-32 rows measured about
#: equal for the 2D levels' bands at m = 132-271, one BLAS thread)
BLOCK_ROWS = 32


@dataclass
class BlockBandMatrix:
    """Dense matrix stored as row blocks, each cut to the column range its
    nonzeros reach, with its transpose held in the same form (itself when
    the matrix is symmetric).

    A band of half-width p, or a prolongation's slanted band, keeps
    (b + 2p)-wide slabs of b rows, so a product is one small GEMM per block
    instead of one over all columns; a block with no nonzero has an empty
    column range and contributes zeros.
    """

    shape: tuple[int, int]
    #: (row slice, column slice, dense block) covering every row once
    blocks: list[tuple[slice, slice, np.ndarray]]
    T: "BlockBandMatrix" = field(init=False, repr=False)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "BlockBandMatrix":
        """Blocks of ``a`` and of its transpose, cut to their nonzeros."""
        a = np.asarray(a, dtype=float)
        out = cls._split(a)
        out.T = out if np.array_equal(a, a.T) else cls._split(a.T)
        out.T.T = out
        return out

    @classmethod
    def _split(cls, a: np.ndarray) -> "BlockBandMatrix":
        blocks = []
        for start in range(0, a.shape[0], BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, a.shape[0]))
            nonzero = np.flatnonzero(a[rows].any(axis=0))
            cols = (slice(int(nonzero[0]), int(nonzero[-1]) + 1)
                    if nonzero.size else slice(0, 0))
            blocks.append((rows, cols, np.ascontiguousarray(a[rows, cols])))
        return cls(a.shape, blocks)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((self.shape[0],) + x.shape[1:])
        for rows, cols, data in self.blocks:
            np.matmul(data, x[cols], out=out[rows])
        return out


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor of a banded or dense SPD matrix."""

    kind: str                  # "banded" | "dense"
    order: int
    factor: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with LAPACK pbtrs/potrs; the factor was checked finite
        once, in :func:`cholesky`, so only ``rhs`` is checked here."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.order}")
        if not np.isfinite(rhs).all():
            raise ValueError("rhs must not contain infs or NaNs")
        trs = lapack.dpbtrs if self.kind == "banded" else lapack.dpotrs
        return trs(self.factor, rhs, lower=1)[0]

    def toarray(self) -> np.ndarray:
        """Dense lower-triangular factor (test sizes only)."""
        if self.kind == "dense":
            return np.tril(self.factor)
        return np.tril(BandedSymMatrix(self.order, self.factor.shape[0] - 1,
                                       self.factor).toarray())


def cholesky(matrix: BandedSymMatrix | np.ndarray, what: str = "matrix") -> CholeskyFactor:
    """Cholesky factorization; raises :class:`NotSPDError` on failure and
    ValueError for a factor with a non-finite entry."""
    if isinstance(matrix, BandedSymMatrix):
        kind, order = "banded", matrix.order
        c, info = lapack.dpbtrf(matrix.bands, lower=1)
    else:
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        kind, order = "dense", a.shape[0]
        c, info = lapack.dpotrf(a, lower=1)
    if info > 0:
        raise NotSPDError(info, what)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to {kind} Cholesky")
    if not np.isfinite(c).all():
        raise ValueError(f"{what}: Cholesky factor has infs or NaNs")
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


@dataclass
class KronSumSolver:
    """Exact inverse of the Kronecker sum M (x) B + B (x) M by fast
    diagonalization (Lynch, Rice & Thomas 1964): with B V = M V diag(lam) and
    V^T M V = I it is (V (x) V) diag(1 / (lam_i + lam_j)) (V (x) V)^T, two
    Kronecker applies and an entry-wise scaling, O(m^3) per m^2 unknowns."""

    V: np.ndarray
    inv_sums: np.ndarray       # 1 / (lam_i + lam_j), m x m

    @classmethod
    def build(cls, M: np.ndarray, B: np.ndarray, what: str) -> "KronSumSolver":
        """Dense M and symmetric B (lower triangles read); :class:`NotSPDError`
        naming ``what`` unless M is SPD and every lam_i + lam_j > 0."""
        try:
            lam, V = eigh(B, M)
        except np.linalg.LinAlgError as exc:
            raise NotSPDError(0, f"{what} (mass factor)") from exc
        sums = lam[:, None] + lam[None, :]
        if not sums.min() > 0.0:
            raise NotSPDError(0, what)
        return cls(V, 1.0 / sums)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = kron_apply(self.V.T, self.V.T, rhs) * self.inv_sums.reshape(-1)
        return kron_apply(self.V, self.V, y)


def generalized_eig_max(A: np.ndarray, B: np.ndarray) -> float:
    """Largest lambda with A x = lambda B x (A symmetric, B SPD), dense."""
    n = A.shape[0]
    try:
        vals = eigh(A, B, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(0, "B") from exc
    return float(vals[-1])


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.norm(op, 2))
