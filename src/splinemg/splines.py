"""Uniform open-knot B-spline spaces on (0,1).

Provides knot vector construction, basis/derivative evaluation at arrays of
points via the Cox-de Boor recurrence, and the boundary/interior index split
used by the boundary-corrected smoother.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SplineSpace",
    "IndexSplit",
    "build_space",
    "find_span",
    "eval_basis_array",
    "eval_basis",
    "eval_basis_derivatives",
    "eval_spline",
    "index_split",
    "SpaceSizeError",
    "as_integer",
    "as_dimension",
]


class SpaceSizeError(ValueError):
    """A space too small or too large for the routine it was passed to: an
    empty interior block, or a dimension beyond a dense limit."""


def as_integer(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer (a numpy integer is, a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_dimension(d) -> int:
    """``d`` as an int; ValueError unless it is the integer 1 or 2."""
    if as_integer("dimension", d) not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    return int(d)


@dataclass(frozen=True)
class SplineSpace:
    """Space of degree-p splines of maximum smoothness on a uniform grid.

    The grid splits (0,1) into ``intervals`` equal pieces; the basis is the
    normalized B-spline basis over the open knot vector (first and last knot
    repeated ``degree + 1`` times).
    """

    degree: int
    level: int
    intervals: int          # n = n0 * 2**level
    mesh_size: float        # h = 1 / n
    dim: int                # m = n + degree
    knots: np.ndarray       # length n + 2*degree + 1, read-only

    def __post_init__(self):
        self.knots.setflags(write=False)


@dataclass(frozen=True)
class IndexSplit:
    """0-based boundary/interior partition of the basis indices.

    ``boundary`` holds the first p and last p indices, ``interior`` the rest.
    Interior basis functions vanish at both endpoints together with all
    derivatives up to order p-1.
    """

    boundary: np.ndarray
    interior: np.ndarray


def build_space(p: int, level: int, n0: int = 1) -> SplineSpace:
    """Build the spline space of degree ``p`` on n0 * 2**level intervals.

    Raises ValueError for a non-integer argument, p < 1, n0 < 1 or level < 0.
    """
    p, level, n0 = (as_integer(name, v) for name, v in
                    (("degree", p), ("level", level), ("n0", n0)))
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if n0 < 1:
        raise ValueError(f"coarse interval count must be >= 1, got {n0}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    n = n0 * 2**level
    h = 1.0 / n
    interior = np.arange(1, n) * h
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return SplineSpace(degree=p, level=level, intervals=n, mesh_size=h,
                       dim=n + p, knots=knots)


def find_span(space: SplineSpace, x: float | np.ndarray) -> int | np.ndarray:
    """Knot-span index mu with knots[mu] <= x < knots[mu+1], for a point or
    an array of points.

    Interior knots resolve to the right-hand span; x == 1 uses the last
    nonempty span.
    """
    p, n = space.degree, space.intervals
    # uniform interior knots: span offset is floor(x/h), clamped to n-1
    return p + np.minimum((np.asarray(x) * n).astype(int), n - 1)


def eval_basis_array(space: SplineSpace, x: np.ndarray,
                     max_order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Basis functions and derivatives up to ``max_order`` at every point of
    the 1D array ``x`` (Piegl-Tiller A2.3, run once over all points, one
    array step per degree over every basis index, bit-identical to the
    scalar recurrence).

    Returns ``(first, ders)`` with ``ders[i, k, j]`` the k-th derivative at
    ``x[i]`` of basis function ``first[i] + j``. Raises ValueError for a point
    outside [0,1] or unless 0 <= max_order <= p.
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    if not inside.all():
        raise ValueError(f"evaluation points {x[~inside]} outside [0, 1]")
    p = space.degree
    if not 0 <= max_order <= p:
        raise ValueError(f"max_order must be in [0, {p}], got {max_order}")
    t = space.knots
    mu = find_span(space, x)
    offsets = np.arange(p + 1)[:, None]
    left = x - t[mu + 1 - offsets]          # left[j] = x - t[mu+1-j]
    right = t[mu + offsets] - x             # right[j] = t[mu+j] - x

    # ndu holds the basis-value triangle (upper part) and knot differences;
    # the trailing axis runs over the points. Column j is one array step:
    # A2.3's running ``saved`` is the shifted product left * tmp.
    ndu = np.empty((p + 1, p + 1, x.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        ndu[j, :j] = right[1:j + 1] + left[j:0:-1]
        tmp = ndu[:j, j - 1] / ndu[j, :j]
        rt = right[1:j + 1] * tmp
        ndu[0, j] = 0.0 + rt[0]
        ndu[1:j, j] = left[j:1:-1] * tmp[:-1] + rt[1:]
        ndu[j, j] = left[1] * tmp[-1]

    # a[j, r] is A2.3's a_{k,j} of basis function r. Step (k, j) updates
    # r = k-j..p-j, whose knot differences are ndu[p-k+1, :p-k+1] and
    # values ndu[:p-k+1, p-k], updating j downwards so a[j - 1] is still
    # step k-1's. d adds each r's terms in increasing j, as A2.3 does,
    # from 0.0 where A2.3 starts from 0.0 (r < k).
    ders = np.empty((max_order + 1, p + 1, x.size))
    ders[0] = ndu[:, p]
    a = np.zeros((max_order + 1, p + 1, x.size))
    a[0] = 1.0
    for k in range(1, max_order + 1):
        pk = p - k
        den, val = ndu[pk + 1, :pk + 1], ndu[:pk + 1, pk]
        a[k, :pk + 1] = -a[k - 1, :pk + 1] / den
        for j in range(k - 1, 0, -1):
            a[j, k - j:p - j + 1] = (a[j, k - j:p - j + 1]
                                     - a[j - 1, k - j:p - j + 1]) / den
        a[0, k:] = a[0, k:] / den
        d = ders[k]
        d[:k] = 0.0
        d[k:] = a[0, k:] * val
        for j in range(1, k + 1):
            d[k - j:p - j + 1] += a[j, k - j:p - j + 1] * val

    fac = float(p)
    for k in range(1, max_order + 1):
        ders[k] *= fac
        fac *= p - k
    return mu - p, ders.transpose(2, 0, 1)


def eval_basis(space: SplineSpace, x: float) -> tuple[int, np.ndarray]:
    """Evaluate the p+1 (possibly) nonzero basis functions at x.

    Returns ``(first, values)`` where ``values[j]`` is basis function
    ``first + j`` evaluated at x. Raises ValueError if x is outside [0,1].
    """
    first, ders = eval_basis_array(space, [x])
    return int(first[0]), ders[0, 0]


def eval_basis_derivatives(space: SplineSpace, x: float,
                           max_order: int) -> tuple[int, np.ndarray]:
    """Evaluate basis functions and derivatives up to ``max_order`` at x.

    Returns ``(first, ders)`` with ``ders[k, j]`` the k-th derivative of
    basis function ``first + j``. Row 0 matches :func:`eval_basis`.
    Raises ValueError unless 0 <= max_order <= p.
    """
    first, ders = eval_basis_array(space, [x], max_order)
    return int(first[0]), ders[0]


def eval_spline(space: SplineSpace, coefficients: np.ndarray, x: float,
                order: int = 0) -> float:
    """Value (or ``order``-th derivative) at x of the spline with the given
    coefficient vector."""
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (space.dim,):
        raise ValueError("coefficient vector length must equal space dim")
    first, ders = eval_basis_derivatives(space, x, order)
    return float(ders[order] @ coefficients[first:first + space.degree + 1])


def index_split(space: SplineSpace) -> IndexSplit:
    """Boundary (first p and last p) / interior index partition.

    Raises :class:`SpaceSizeError` when the interior block would be empty
    (m <= 2p).
    """
    p, m = space.degree, space.dim
    if m <= 2 * p:
        raise SpaceSizeError(
            "interior space empty -- refine or lower degree "
            f"(dim {m} <= 2*degree {2 * p})")
    boundary = np.concatenate([np.arange(p), np.arange(m - p, m)])
    interior = np.arange(p, m - p)
    return IndexSplit(boundary=boundary, interior=interior)
