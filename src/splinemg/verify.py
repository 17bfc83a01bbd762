"""Desk-scale numerical verification of the method's spectral estimates.

Everything here materializes small dense matrices and measures the constants
behind the solver's robustness: the inverse inequality on the constrained
subspace, the unconstrained boundary blow-up, the approximation constant of
the constrained space, and the two factors (approximation and smoothing
properties) of the two-grid convergence bound. :func:`run_verify` runs them
over ranges of (p, level) and judges each against its pass bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .assembly import assemble_1d, operator_2d
from .linalg import NotSPDError, generalized_eig_max, generalized_eigh
from .smoother import build_boundary, damping, smoother_matrix_1d, \
    smoother_matrix_2d
from .splines import SpaceSizeError, SplineSpace, build_space, \
    eval_basis_derivatives, index_split
from .transfer import build_prolongation

__all__ = [
    "InverseInequalityResult",
    "INVERSE_BOUND",
    "APPROX_BOUND",
    "PROXY_LEVELS",
    "SmootherPencil",
    "ConstraintRankError",
    "dense_limit",
    "dense_space",
    "build_constraint_basis",
    "verify_inverse_inequality",
    "verify_counterexample",
    "verify_approximation_constant",
    "smoother_pencil",
    "measure_CA",
    "measure_smoothing_constant",
    "smoother_energy_norm",
    "INVERSE_PASS",
    "APPROX_PASS",
    "SMOOTHING_TOL",
    "ENERGY_NORM_PASS",
    "CA_RATIO_PASS",
    "CheckResult",
    "run_verify",
]

#: theoretical bound on h * sqrt(lambda_max(K, M)) over the constrained space
INVERSE_BOUND = 2.0 * np.sqrt(3.0)
#: theoretical bound on the constrained-space L2 approximation constant
APPROX_BOUND = 2.0 * np.sqrt(2.0)
#: pass bounds of :func:`run_verify`, each with its tolerance: both inverse
#: inequality constants, the approximation constant, ||S||_A, and a level's
#: largest C_A over C_A at p = 1; the smoothing constant passes at most
#: 1/tau + SMOOTHING_TOL, the boundary blow-up at least p
INVERSE_PASS = INVERSE_BOUND + 1e-8
APPROX_PASS = APPROX_BOUND + 0.01
SMOOTHING_TOL = 1e-8
ENERGY_NORM_PASS = 1.0
CA_RATIO_PASS = 3.0
#: refinement levels of the proxy space behind the approximation constant
PROXY_LEVELS = 4


class ConstraintRankError(ValueError):
    """The constraint rows lost numerical rank; no constrained space."""


def build_constraint_basis(space: SplineSpace) -> np.ndarray:
    """Orthonormal m x k basis of the nullspace of the odd-endpoint-derivative
    constraints: the splines whose odd derivatives below order p vanish.

    Rows are normalized before the rank decision since derivative scales
    span many orders of magnitude; row scaling does not change the nullspace.
    Raises :class:`ConstraintRankError` when their rank falls short.
    """
    p, m = space.degree, space.dim
    orders = list(range(1, p, 2))
    if not orders:
        return np.eye(m)
    rows = []
    for x in (0.0, 1.0):
        first, ders = eval_basis_derivatives(space, x, p - 1)
        for q in orders:
            row = np.zeros(m)
            row[first:first + p + 1] = ders[q]
            rows.append(row / np.linalg.norm(row))
    G = np.array(rows)
    Q, R, _ = scipy.linalg.qr(G.T, pivoting=True)
    rank = int((np.abs(np.diag(R)) > 1e-10).sum())
    if rank != len(rows):
        raise ConstraintRankError(
            f"constraint matrix rank {rank} below expected {len(rows)}")
    return Q[:, rank:]      # rank = 2 floor(p / 2) < m: never empty


@dataclass
class InverseInequalityResult:
    """Measured inverse-inequality constants h * sqrt(lambda_max(K, M))."""

    constrained: float         # over the odd-derivative-constrained space
    interior: float            # over the interior-coefficient block


def dense_limit(d: int = 1) -> int:
    """Largest 1D dimension the dense paths accept for a ``d``-dim problem."""
    return 300 if d == 1 else 30


def dense_space(p: int, level: int, d: int = 1, n0: int = 1) -> SplineSpace:
    """``build_space(p, level, n0)`` for a dense ``d``-dim check; raises
    :class:`SpaceSizeError` when its dimension exceeds ``dense_limit(d)``."""
    space = build_space(p, level, n0)
    if space.dim > dense_limit(d):
        raise SpaceSizeError(
            f"dimension {space.dim} exceeds dense verification limit "
            f"{dense_limit(d)}")
    return space


def verify_inverse_inequality(p: int, level: int,
                              n0: int = 1) -> InverseInequalityResult:
    """Measure the gradient-vs-value bound on the constrained subspace.

    Returns h * sqrt(lambda_max) for the constrained space and for the
    interior block; each is expected not to exceed INVERSE_BOUND.
    Raises :class:`SpaceSizeError` beyond the dense limit or for an empty
    interior block.
    """
    space = dense_space(p, level, n0=n0)
    s = index_split(space)
    disc = assemble_1d(space)
    Kd, Md = disc.K.toarray(), disc.M.toarray()
    N = build_constraint_basis(space)
    lam = generalized_eig_max(N.T @ Kd @ N, N.T @ Md @ N,
                              "constrained mass matrix")
    constrained = space.mesh_size * np.sqrt(max(lam, 0.0))

    KI = Kd[np.ix_(s.interior, s.interior)]
    MI = Md[np.ix_(s.interior, s.interior)]
    lam_i = generalized_eig_max(KI, MI, "interior mass block")
    interior = space.mesh_size * np.sqrt(max(lam_i, 0.0))
    return InverseInequalityResult(constrained=float(constrained),
                                   interior=float(interior))


def verify_counterexample(p: int, level: int) -> float:
    """Measure h * sqrt(lambda_max(K, M)) over the full space.

    This grows at least like p, which is why the uncorrected mass smoother
    needs a damping parameter shrinking like p^-2.
    """
    space = dense_space(p, level)
    disc = assemble_1d(space)
    lam = generalized_eig_max(disc.K.toarray(), disc.M.toarray(),
                              "mass matrix M")
    return float(space.mesh_size * np.sqrt(max(lam, 0.0)))


def verify_approximation_constant(p: int, level: int,
                                  proxy_levels: int = PROXY_LEVELS) -> float:
    """L2 approximation constant of the constrained space at one level.

    The supremum over H^1 is approximated from a ``proxy_levels``-times finer
    spline space, which can only underestimate it, so the measured value must
    stay below APPROX_BOUND. Raises :class:`SpaceSizeError` when the proxy
    space exceeds the dense limit.
    """
    coarse = build_space(p, level)
    fine = dense_space(p, level + proxy_levels)
    disc = assemble_1d(fine)
    Af, Mf = disc.A.toarray(), disc.M.toarray()

    Z = build_prolongation(coarse, fine).toarray() @ \
        build_constraint_basis(coarse)
    # A-orthogonal projector T = Z X onto the embedded constrained space
    ZA = Z.T @ Af
    X = np.linalg.solve(ZA @ Z, ZA)
    # ||M^(1/2) R A^(-1/2)||^2 with R = I - T is lambda_max(R^T M R, A);
    # R^T M R = M - G - G^T + X^T (Z^T M Z) X with G = M Z X, all rank k
    MZ = Mf @ Z
    G = MZ @ X
    lam = generalized_eig_max(Mf - G - G.T + X.T @ (Z.T @ MZ) @ X, Af,
                              "proxy system matrix A")
    return float(np.sqrt(max(lam, 0.0)) / coarse.mesh_size)


@dataclass
class SmootherPencil:
    """Dense two-level data at one (p, level): system matrix A, coarse matrix
    A_c, prolongation P and the effective smoother matrix L_eff (the one the
    damped smoothing step inverts, so S = I - L_eff^(-1) A)."""

    A: np.ndarray
    A_c: np.ndarray
    P: np.ndarray
    L_eff: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the pencil (A, L_eff), ascending, computed once."""
        return generalized_eigh(self.A, self.L_eff, "effective smoother "
                                "matrix L_eff", eigvals_only=True)


def smoother_pencil(p: int, level: int, d: int = 1,
                    tau: float | None = None) -> SmootherPencil:
    """Build the dense pencil between ``level`` and ``level - 1`` for the
    ``d``-dim problem; ``tau`` defaults to the reference damping for ``d``.

    The smoother matrix comes from the boundary data alone, with no factor.
    Raises :class:`SpaceSizeError` beyond the dense limit or when ``level``
    has no smoother (n <= p), before the coarse level is built.
    """
    tau = damping(d, tau)
    fine = dense_space(p, level, d)
    df = assemble_1d(fine)
    b = build_boundary(df, tau)
    coarse = build_space(p, level - 1)
    dc = assemble_1d(coarse)
    P1 = build_prolongation(coarse, fine).toarray()
    if d == 1:
        return SmootherPencil(df.A.toarray(), dc.A.toarray(), P1,
                              smoother_matrix_1d(b, df, damped=True))
    return SmootherPencil(operator_2d(df).toarray(),
                          operator_2d(dc).toarray(), np.kron(P1, P1),
                          smoother_matrix_2d(b, df) / tau)


def measure_CA(pencil: SmootherPencil) -> float:
    """Measured approximation-property constant between two adjacent levels.

    The norm of L^(1/2) (I - T) A^(-1) L^(1/2), where T is the coarse-grid
    A-orthogonal projector and L the effective smoother matrix (so that this
    constant and the smoothing constant refer to the same norm). With
    (I - T) A^(-1) = W = A^(-1) - P A_c^(-1) P^T symmetric PSD, that norm is
    lambda_max(L W L, L).
    """
    A, P, L = pencil.A, pencil.P, pencil.L_eff
    W = np.linalg.inv(A) - P @ np.linalg.solve(pencil.A_c, P.T)
    G = L @ W @ L
    return generalized_eig_max(0.5 * (G + G.T), L,
                               "effective smoother matrix L_eff")


def measure_smoothing_constant(pencil: SmootherPencil, nu: int) -> float:
    """nu * || L^(-1/2) A S^nu L^(-1/2) || for the damped smoother S.

    The measured value is expected to stay below 1/tau.
    """
    lam = pencil.eigenvalues
    return float(nu * np.abs(lam * (1.0 - lam)**nu).max())


def smoother_energy_norm(pencil: SmootherPencil) -> float:
    """||S||_A of the damped smoothing step (at most 1 for admissible tau)."""
    return float(np.abs(1.0 - pencil.eigenvalues).max())


@dataclass
class CheckResult:
    """One verification check outcome."""

    name: str
    degree: int
    level: int
    value: float
    bound: float
    kind: str                           # "upper" | "lower"
    status: str                         # "PASS" | "FAIL" | "SKIP"
    note: str = ""


def run_verify(degrees: list[int], levels: list[int], d: int = 1,
               tau: float | None = None) -> list[CheckResult]:
    """Run the spectral verification suite over ranges of (p, level). A
    check the library refuses with :class:`SpaceSizeError` or whose
    constraint basis loses rank (:class:`ConstraintRankError`) reads SKIP;
    one whose matrix loses definiteness (:class:`NotSPDError`) reads FAIL
    with the error's message. Other errors propagate."""
    tau = damping(d, tau)
    if not degrees or not levels:
        raise ValueError("degree and level ranges must be non-empty")
    results: list[CheckResult] = []

    def check(name, p, level, measure, bound=None, kind="upper", note=""):
        """``measure()``, and its PASS/FAIL line unless ``bound`` is None;
        or None after one SKIP line (``note`` on a size refusal, else the
        rank message) or FAIL line (the :class:`NotSPDError` message)."""
        try:
            value = measure()
        except (SpaceSizeError, ConstraintRankError, NotSPDError) as exc:
            results.append(CheckResult(
                name, p, level, float("nan"), float("nan"), kind,
                "FAIL" if isinstance(exc, NotSPDError) else "SKIP",
                note if isinstance(exc, SpaceSizeError) else str(exc)))
            return None
        if bound is not None:
            ok = value <= bound if kind == "upper" else value >= bound
            results.append(CheckResult(name, p, level, float(value), bound,
                                       kind, "PASS" if ok else "FAIL"))
        return value

    for level in sorted(set(levels)):
        ca_values: dict[int, float] = {}
        for p in sorted(set(degrees)):
            if check("verification-suite", p, level,
                     lambda: dense_space(p, level, d),
                     note="size beyond dense limit") is None:
                continue
            if d == 1:
                res = check("inverse-inequality", p, level,
                            lambda: verify_inverse_inequality(p, level),
                            note="interior block empty")
                for part in ("constrained", "interior") if res else ():
                    check(f"inverse-inequality-{part}", p, level,
                          lambda: getattr(res, part), INVERSE_PASS)
                check("counterexample-growth", p, level,
                      lambda: verify_counterexample(p, level), float(p),
                      "lower")
                check("approximation-constant", p, level,
                      lambda: verify_approximation_constant(p, level),
                      APPROX_PASS, note="proxy space beyond dense limit")
            pencil = check("smoothing-constant", p, level,
                           lambda: smoother_pencil(p, level, d, tau),
                           note="no valid coarse/fine smoother pair")
            if pencil is None:
                continue
            check("smoothing-constant", p, level,
                  lambda: max(measure_smoothing_constant(pencil, nu)
                              for nu in range(1, 9)),
                  1.0 / tau + SMOOTHING_TOL)
            check("smoother-energy-norm", p, level,
                  lambda: smoother_energy_norm(pencil), ENERGY_NORM_PASS)
            if (ca := check("approximation-property-ratio", p, level,
                            lambda: measure_CA(pencil))) is not None:
                ca_values[p] = ca
        if ca_values:
            # any p that fits here makes p = 1 fit too; its errors propagate
            ref = ca_values[1] if 1 in ca_values else measure_CA(
                smoother_pencil(1, level, d=d, tau=tau))
            check("approximation-property-ratio", max(ca_values), level,
                  lambda: max(ca_values.values()) / ref, CA_RATIO_PASS)
    return results
