"""Banded/dense symmetric linear algebra kernels.

Cholesky factorizations (LAPACK pbtrf/potrf behind a uniform interface),
Kronecker-structured applies and Kronecker-sum inverses, and the small
eigen/singular-value routines used by the verification suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg import cho_solve, cho_solve_banded, eigh, lapack

__all__ = [
    "NotSPDError",
    "BandedSymMatrix",
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
    _csr: scipy.sparse.csr_matrix | None = field(default=None, repr=False)

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
        a = np.zeros((self.order, self.order))
        for k in range(self.bandwidth + 1):
            d = self.bands[k, :self.order - k]
            a += np.diag(d, -k)
            if k > 0:
                a += np.diag(d, k)
        return a

    def tocsr(self) -> scipy.sparse.csr_matrix:
        if self._csr is None:
            diags = []
            offsets = []
            for k in range(self.bandwidth + 1):
                d = self.bands[k, :self.order - k]
                diags.append(d)
                offsets.append(-k)
                if k > 0:
                    diags.append(d)
                    offsets.append(k)
            self._csr = scipy.sparse.diags_array(
                diags, offsets=offsets, shape=(self.order, self.order)).tocsr()
        return self._csr

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector or matrix-matrix product (columns of x)."""
        return self.tocsr() @ x

    def principal_submatrix(self, start: int, stop: int) -> "BandedSymMatrix":
        """Contiguous principal submatrix, band storage preserved."""
        size = stop - start
        b = min(self.bandwidth, size - 1)
        sub = BandedSymMatrix.zeros(size, b)
        for k in range(b + 1):
            sub.bands[k, :size - k] = self.bands[k, start:start + size - k]
        return sub

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


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor of a banded or dense SPD matrix."""

    kind: str                  # "banded" | "dense"
    order: int
    factor: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.order}")
        if self.kind == "banded":
            return cho_solve_banded((self.factor, True), rhs)
        return cho_solve((self.factor, True), rhs)

    def toarray(self) -> np.ndarray:
        """Dense lower-triangular factor (test sizes only)."""
        if self.kind == "dense":
            return np.tril(self.factor)
        b = self.factor.shape[0] - 1
        a = np.zeros((self.order, self.order))
        for k in range(b + 1):
            a += np.diag(self.factor[k, :self.order - k], -k)
        return a


def cholesky(matrix: BandedSymMatrix | np.ndarray, what: str = "matrix") -> CholeskyFactor:
    """Cholesky factorization; raises :class:`NotSPDError` on failure."""
    if isinstance(matrix, BandedSymMatrix):
        c, info = lapack.dpbtrf(matrix.bands, lower=1)
        if info > 0:
            raise NotSPDError(info, what)
        if info < 0:
            raise ValueError(f"illegal argument {-info} to pbtrf")
        return CholeskyFactor("banded", matrix.order, c)
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dense input must be square")
    c, info = lapack.dpotrf(a, lower=1)
    if info > 0:
        raise NotSPDError(info, what)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to potrf")
    return CholeskyFactor("dense", a.shape[0], c)


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
