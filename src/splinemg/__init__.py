"""Degree-robust geometric multigrid for maximum-smoothness B-spline
discretizations of -div(grad u) + u = f with Neumann conditions on (0,1)^d."""

from .splines import SplineSpace, IndexSplit, SpaceSizeError, build_space, \
    eval_basis, eval_basis_derivatives, eval_spline, index_split
from .linalg import BandedSymMatrix, CholeskyFactor, NotSPDError, cholesky, \
    kron_apply, KronSumSolver, generalized_eig_max, operator_norm
from .assembly import Discretization1D, Operator2D, assemble_1d, operator_2d, \
    apply_operator_2d, assemble_load
from .transfer import build_prolongation, prolong, restrict, prolong_2d, \
    restrict_2d
from .smoother import Smoother1D, Smoother2D, build_smoother_1d, \
    build_smoother_2d, apply_Linv_1d, apply_Linv_2d, smooth_step_1d, \
    smooth_step_2d, damping, TAU_DEFAULT
from .solver import MgHierarchy, CycleConfig, SolveReport, build_hierarchy, \
    min_smoother_level, mg_cycle, solve_mg, solve_pcg, \
    experiment_initial_guess, InadmissibleLevels
from .verify import InverseInequalityResult, INVERSE_BOUND, APPROX_BOUND, \
    PROXY_LEVELS, SmootherPencil, build_constraint_basis, smoother_pencil, \
    verify_inverse_inequality, verify_counterexample, \
    verify_approximation_constant, measure_CA, measure_smoothing_constant, \
    smoother_energy_norm

__version__ = "0.1.0"
