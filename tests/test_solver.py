import math

import numpy as np
import numpy.testing as npt
import pytest

from splinemg import assemble_load, build_hierarchy, build_prolongation, \
    min_smoother_level, mg_cycle, prolong_2d, restrict_2d, solve_mg, \
    solve_pcg, CycleConfig
from splinemg.linalg import BLOCK_ROWS
from splinemg.smoother import smoother_matrix_1d
from splinemg.solver import experiment_initial_guess


V11 = CycleConfig(cycle="v", pre_smooth=1, post_smooth=1)


def test_min_smoother_level():
    assert min_smoother_level(1) == 1
    assert min_smoother_level(3) == 2
    assert min_smoother_level(4) == 3
    assert min_smoother_level(7) == 3
    assert min_smoother_level(8) == 4
    assert min_smoother_level(15) == 4


def test_hierarchy_structure_1d():
    h = build_hierarchy(1, 3, 5, 10)
    assert len(h.levels) == 6
    assert h.levels[0].smoother is None
    assert all(lv.smoother is not None for lv in h.levels[1:])
    assert h.levels[0].P is None
    assert all(lv.P is not None for lv in h.levels[1:])
    assert h.levels[0].direct is not None
    assert all(lv.direct is None for lv in h.levels[1:])


def test_hierarchy_auto_coarse_rule_p4():
    # degree 4: smallest level with n >= 5 is 3, coarsest grid is 2
    assert min_smoother_level(4) - 1 == 2
    h = build_hierarchy(2, 4, 2, 3, 0.08)
    assert len(h.levels) == 2
    assert h.levels[0].space.intervals == 4


def test_hierarchy_rejects_too_coarse():
    with pytest.raises(ValueError, match="too coarse"):
        build_hierarchy(1, 15, 2, 6)
    with pytest.raises(ValueError, match="minimal admissible coarse level is 3"):
        build_hierarchy(1, 15, 1, 6)


def test_hierarchy_rejects_bad_levels():
    with pytest.raises(ValueError):
        build_hierarchy(1, 2, 5, 5)
    with pytest.raises(ValueError):
        build_hierarchy(3, 2, 1, 3)


def test_hierarchy_galerkin_consistency():
    h = build_hierarchy(1, 2, 2, 4)
    for lo, hi in zip(h.levels, h.levels[1:]):
        # the held restriction is the transpose of the CSR prolongation
        proj = (hi.P.T @ hi.disc.A.tocsr() @ hi.P.matrix).toarray()
        ref = lo.disc.A.toarray()
        assert np.abs(proj - ref).max() <= 1e-12 * np.abs(ref).max()


def test_cycle_config_validation():
    with pytest.raises(ValueError):
        CycleConfig(cycle="x")
    with pytest.raises(ValueError, match="two-level hierarchy .*"
                                         "coarse_level = fine_level - 1"):
        CycleConfig(cycle="two-grid")
    with pytest.raises(ValueError):
        CycleConfig(pre_smooth=0, post_smooth=0)
    with pytest.raises(ValueError):
        CycleConfig(tol=2.0)
    with pytest.raises(ValueError):
        CycleConfig(max_iter=0)


def test_coarsest_level_cycle_is_direct_solve():
    # banded Cholesky in 1D, the Kronecker-sum solver in 2D
    for d in (1, 2):
        h = build_hierarchy(d, 2, 3, 4)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(h.levels[0].space.dim ** d)
        u = mg_cycle(h, V11, 0, np.zeros_like(f), f)
        npt.assert_allclose(h.levels[0].op.apply(u), f, atol=1e-11)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("cycle, solves", [("v", 1), ("w", 4)])
def test_coarse_solves_per_cycle_on_four_levels(d, cycle, solves):
    # four levels: a V-cycle solves on the coarsest level once, a W-cycle
    # 2^(4-2) times, since at level 1 one exact coarse solve is enough
    h = build_hierarchy(d, 2, 1, 4)
    direct = h.levels[0].direct
    calls = []

    def counting_solve(rhs):
        calls.append(rhs.shape)
        return type(direct).solve(direct, rhs)

    direct.solve = counting_solve
    n = h.finest.space.dim ** d
    mg_cycle(h, CycleConfig(cycle=cycle), 3, np.zeros(n), np.ones(n))
    assert calls == [(h.levels[0].space.dim ** d,)] * solves


def test_two_grid_error_propagation_matches_dense_oracle():
    # (I - T) S^nu with nu post = 0, p=2, 1D, n_fine = 16: the V-cycle on
    # a two-level hierarchy is the two-grid method
    p = 2
    h = build_hierarchy(1, p, 3, 4)
    cfg = CycleConfig(cycle="v", pre_smooth=1, post_smooth=0)
    fine, coarse = h.levels[1], h.levels[0]
    m = fine.space.dim
    Af = fine.disc.A.toarray()
    Ac = coarse.disc.A.toarray()
    P = fine.P.matrix.toarray()
    Ltau = smoother_matrix_1d(fine.smoother, fine.disc, damped=True)
    S = np.eye(m) - np.linalg.solve(Ltau, Af)
    T = P @ np.linalg.solve(Ac, P.T @ Af)
    E_ref = (np.eye(m) - T) @ S

    E = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        E[:, j] = e - mg_cycle(h, cfg, 1, np.zeros(m), Af @ e)
    npt.assert_allclose(E, E_ref, atol=1e-10)


def test_w_cycle_on_two_levels_equals_v_cycle():
    h = build_hierarchy(1, 2, 3, 4)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(h.finest.space.dim)
    u0 = rng.standard_normal(f.shape[0])
    w = mg_cycle(h, CycleConfig(cycle="w"), 1, u0, f)
    v = mg_cycle(h, CycleConfig(cycle="v"), 1, u0, f)
    npt.assert_allclose(w, v, atol=1e-12)


def test_solve_zero_rhs_zero_guess():
    h = build_hierarchy(1, 2, 3, 5)
    f = np.zeros(h.finest.space.dim)
    u, rep = solve_mg(h, V11, f)
    assert rep.iterations == 0
    assert rep.converged
    npt.assert_array_equal(u, 0.0)


def test_solve_mg_reduces_residual():
    h = build_hierarchy(1, 3, 3, 7)
    f = assemble_load(h.finest.space, 1)
    u, rep = solve_mg(h, V11, f)
    assert rep.converged and rep.stop_reason == "converged"
    assert rep.residual_history[-1] <= 1e-8 * rep.residual_history[0]
    r = f - h.finest.disc.A.apply(u)
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(f)


def test_solve_report_non_convergence_flag():
    h = build_hierarchy(1, 2, 3, 6)
    f = assemble_load(h.finest.space, 1)
    cfg = CycleConfig(cycle="v", pre_smooth=1, post_smooth=1, max_iter=2)
    u, rep = solve_mg(h, cfg, f, experiment_initial_guess(f.shape[0]))
    assert not rep.converged
    assert rep.stop_reason == "max_iter"
    assert rep.iterations == 2


def test_contraction_per_iteration():
    # geometric mean of the last 5 residual ratios stays below 1
    h = build_hierarchy(1, 4, 5, 9)
    f = assemble_load(h.finest.space, 1)
    u, rep = solve_mg(h, V11, f, experiment_initial_guess(f.shape[0]))
    r = np.array(rep.residual_history)
    ratios = r[-5:] / r[-6:-1]
    assert np.exp(np.mean(np.log(ratios))) < 1.0


def test_two_grid_energy_monotonicity():
    # symmetric smoothing: energy norm of the error never increases
    p = 2
    h = build_hierarchy(1, p, 3, 4)
    cfg = CycleConfig(cycle="v", pre_smooth=1, post_smooth=1)
    fine = h.levels[1]
    Af = fine.disc.A.toarray()
    rng = np.random.default_rng(2)
    u_star = rng.standard_normal(fine.space.dim)
    f = Af @ u_star
    u = np.zeros_like(f)
    prev = (u_star - u) @ Af @ (u_star - u)
    for _ in range(10):
        u = mg_cycle(h, cfg, 1, u, f)
        cur = (u_star - u) @ Af @ (u_star - u)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_solve_mg_1d_reference_iteration_count():
    h = build_hierarchy(1, 1, 5, 12)
    f = assemble_load(h.finest.space, 1)
    u, rep = solve_mg(h, V11, f, experiment_initial_guess(f.shape[0]))
    assert abs(rep.iterations - 23) <= 3


def test_solve_mg_2d_reference_iteration_count():
    h = build_hierarchy(2, 4, 2, 4, 0.08)
    f = assemble_load(h.finest.space, 2)
    u, rep = solve_mg(h, V11, f, experiment_initial_guess(f.shape[0]))
    assert abs(rep.iterations - 105) <= max(5, 0.1 * 105)


def test_solve_pcg_2d_reference_iteration_count():
    h = build_hierarchy(2, 5, 2, 5, 0.08)
    f = assemble_load(h.finest.space, 2)
    u, rep = solve_pcg(h, V11, f, experiment_initial_guess(f.shape[0]))
    assert rep.converged
    r = f - h.finest.op.apply(u)
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(f - h.finest.op.apply(
        experiment_initial_guess(f.shape[0])))


def test_pcg_rejects_asymmetric_cycle():
    h = build_hierarchy(1, 2, 3, 5)
    with pytest.raises(ValueError, match="symmetric"):
        solve_pcg(h, CycleConfig(cycle="v", pre_smooth=2, post_smooth=1),
                  np.zeros(h.finest.space.dim))


def test_pcg_with_exact_preconditioner_converges_in_one_iteration():
    # PCG where the "cycle" is a direct solve: emulate by a 2-level
    # two-grid hierarchy whose smoother is skipped via pre=0, post=1 on a
    # symmetric config is not exact; instead check against dense CG with
    # exact preconditioner logic inline.
    h = build_hierarchy(1, 2, 3, 4)
    fine = h.levels[1]
    A = fine.disc.A
    rng = np.random.default_rng(3)
    f = rng.standard_normal(fine.space.dim)
    from splinemg.linalg import cholesky
    direct = cholesky(A)

    u = np.zeros_like(f)
    r = f.copy()
    z = direct.solve(r)
    p_vec = z.copy()
    rho = r @ z
    q = A.apply(p_vec)
    alpha = rho / (p_vec @ q)
    u = u + alpha * p_vec
    r = r - alpha * q
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(f)


def test_pcg_preconditioner_symmetry():
    # materialize the V-cycle-from-zero operator on a small 2D instance
    h = build_hierarchy(2, 2, 2, 3, 0.08)
    n = h.finest.space.dim ** 2
    B = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        B[:, j] = mg_cycle(h, V11, len(h.levels) - 1, np.zeros(n), e)
    asym = np.abs(B - B.T).max() / np.abs(B).max()
    assert asym <= 1e-9


@pytest.mark.parametrize("solve", [solve_mg, solve_pcg])
@pytest.mark.parametrize("d,p,level", [(2, 25, 6), (2, 30, 6), (1, 34, 9),
                                       (1, 36, 9)],
                         ids=["25", "30", "1d-34", "1d-36"])
def test_2d_high_degree_converges(solve, d, p, level):
    # the automatic coarse level; the 2D smoother and coarse solve are exact
    # Kronecker-sum inverses and each 1D smoother matrix is one folded band
    # factor, so no capacitance or dense coarse Cholesky loses definiteness
    h = build_hierarchy(d, p, min_smoother_level(p) - 1, level)
    f = assemble_load(h.finest.space, d)
    u0 = experiment_initial_guess(f.shape[0])
    u, rep = solve(h, V11, f, u0)
    assert rep.converged
    r0 = np.linalg.norm(f - h.finest.op.apply(u0))
    assert np.linalg.norm(f - h.finest.op.apply(u)) <= 1e-8 * r0


def test_hierarchy_h_robustness():
    counts = []
    for lev in [8, 9, 10]:
        h = build_hierarchy(1, 3, 5, lev)
        f = assemble_load(h.finest.space, 1)
        u, rep = solve_mg(h, V11, f, experiment_initial_guess(f.shape[0]))
        counts.append(rep.iterations)
    assert max(counts) - min(counts) <= 2


@pytest.mark.parametrize("solve", [solve_mg, solve_pcg])
@pytest.mark.parametrize("d", [1, 2])
def test_solver_rejects_bad_input_by_name(solve, d):
    h = build_hierarchy(d, 2, 2, 3)
    n = h.finest.space.dim ** d
    ones = np.ones(n)
    with_nan, with_inf = ones.copy(), ones.copy()
    with_nan[n // 2] = np.nan
    with_inf[0] = -np.inf
    bad = [("f", dict(f=with_nan)), ("f", dict(f=np.ones(n + 1))),
           ("u0", dict(f=ones, u0=with_inf)), ("u0", dict(f=ones, u0=ones[1:]))]
    for name, kwargs in bad:
        with pytest.raises(ValueError, match=f"^{name} has"):
            solve(h, V11, **kwargs)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
@pytest.mark.parametrize("d", [1, 2])
def test_hierarchy_rejects_non_finite_tau(d, tau):
    with pytest.raises(ValueError, match="damping parameter tau must be "
                       "positive and finite"):
        build_hierarchy(d, 3, 1, 4, tau)


def _overdamped_2d():
    # tau = 20 makes the 2D smoother step expand the error, so the V-cycle
    # diverges and the V-cycle preconditioner is indefinite
    h = build_hierarchy(2, 3, 1, 4, 20.0)
    f = assemble_load(h.finest.space, 2)
    return h, f, np.ones_like(f)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_solve_mg_stops_at_first_non_finite_residual():
    h, f, u0 = _overdamped_2d()
    u, rep = solve_mg(h, V11, f, u0)
    assert rep.stop_reason == "non-finite" and not rep.converged
    assert rep.iterations < 50
    assert len(rep.residual_history) == rep.iterations + 1
    assert not math.isfinite(rep.residual_history[-1])
    assert all(math.isfinite(r) for r in rep.residual_history[:-1])


def test_solve_pcg_stops_on_indefinite_preconditioner():
    h, f, u0 = _overdamped_2d()
    u, rep = solve_pcg(h, V11, f, u0)
    assert rep.stop_reason == "breakdown" and not rep.converged
    assert rep.iterations == 0
    npt.assert_array_equal(u, u0)


def _expand(B):
    """Dense array from a BlockBandMatrix's stored blocks alone."""
    out = np.zeros(B.shape)
    for rows, cols, data in B.blocks:
        out[rows, cols] = data
    return out


# (1, 1), (3, 2) and (7, 3) make the finest space tight, n = p + 1
@pytest.mark.parametrize("p, level", [(1, 1), (1, 4), (3, 2), (3, 4), (7, 3),
                                      (8, 5)])
def test_block_band_2d_level_matches_kron_oracles(p, level):
    # every 2D level holds block-banded factors and a block-banded P with
    # its transpose; check their stored entries against the banded and CSR
    # forms, and the operator apply and both transfers against np.kron
    h = build_hierarchy(2, p, min_smoother_level(p) - 1, level)
    rng = np.random.default_rng(p)

    def rel_err(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    def check_storage(B, dense):
        npt.assert_array_equal(_expand(B), dense)
        npt.assert_array_equal(_expand(B.T), dense.T)
        assert B.T.T is B

    for lvl in h.levels:
        disc = lvl.disc
        for B, banded in zip(lvl.op.factors, (disc.K, disc.M, disc.A)):
            check_storage(B, banded.toarray())
    disc = h.finest.disc
    K, M, A = disc.K.toarray(), disc.M.toarray(), disc.A.toarray()
    v = rng.standard_normal(h.finest.op.order)
    ref = np.kron(K, M) @ v + np.kron(M, A) @ v
    assert rel_err(h.finest.op.apply(v), ref) <= 1e-13
    for coarse, fine in zip(h.levels, h.levels[1:]):
        P = build_prolongation(coarse.space, fine.space).toarray()
        check_storage(fine.P, P)
        PP = np.kron(P, P)
        c = rng.standard_normal(PP.shape[1])
        r = rng.standard_normal(PP.shape[0])
        assert rel_err(prolong_2d(fine.P, c), PP @ c) <= 1e-13
        assert rel_err(restrict_2d(fine.P, r), PP.T @ r) <= 1e-13


@pytest.mark.parametrize("p", [1, 4, 15])
def test_2d_levels_store_only_their_bands(p):
    # a silent return to dense m x m storage breaks this bound once m > 2p + 33
    h = build_hierarchy(2, p, min_smoother_level(p) - 1, 7)
    for lvl in h.levels[1:]:
        for B in (*lvl.op.factors, lvl.P, lvl.P.T):
            stored = sum(data.size for _, _, data in B.blocks)
            assert stored <= max(B.shape) * (BLOCK_ROWS + 2 * p + 1)
