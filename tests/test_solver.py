import gc
import math
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from splinemg import InadmissibleLevels, TAU_DEFAULT, assemble_load, \
    build_hierarchy, build_prolongation, min_smoother_level, mg_cycle, \
    prolong, prolong_2d, restrict, restrict_2d, smoother_pencil, solve_mg, \
    solve_pcg, CycleConfig, solver
from splinemg.cli import ExperimentConfig
from splinemg.linalg import BLOCK_ROWS, BandedSymMatrix, NotSPDError, \
    WindowBandMatrix, butterfly, butterfly_T, butterfly_weight
from splinemg.solver import experiment_initial_guess, _cg_scalar_stop, \
    _norm, _physical, _report, _residual_stop, _start


V11 = CycleConfig(cycle="v", pre_smooth=1, post_smooth=1)


def _cycle(h, cfg, u, f):
    """One cycle on the finest level for the vectors u and f; in 1D through
    the level's coordinates (G^-1 u = D^2 G^T u, G^T f) and back (G y)."""
    top = len(h.levels) - 1
    if h.dim == 2:
        return mg_cycle(h, cfg, top, u, f)
    w = butterfly_weight(len(u))
    return butterfly(mg_cycle(h, cfg, top, w * butterfly_T(u), butterfly_T(f)))


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
    with pytest.raises(InadmissibleLevels, match="too coarse"):
        build_hierarchy(1, 15, 2, 6)
    with pytest.raises(InadmissibleLevels,
                       match="minimal admissible coarse level is 3"):
        build_hierarchy(1, 15, 1, 6)


def test_hierarchy_rejects_bad_levels():
    with pytest.raises(InadmissibleLevels, match="must exceed"):
        build_hierarchy(1, 2, 5, 5)
    with pytest.raises(ValueError):
        build_hierarchy(3, 2, 1, 3)


def test_hierarchy_galerkin_consistency():
    h = build_hierarchy(1, 2, 2, 4)
    for lo, hi in zip(h.levels, h.levels[1:]):
        # in the levels' coordinates, with the held restriction:
        # P~^T (G_f^T A_f G_f) P~ = G_c^T A_c G_c
        proj = (hi.P.T @ hi.op.sparse @ hi.P.matrix).toarray()
        ref = lo.op.toarray()
        assert np.abs(proj - ref).max() <= 1e-12 * np.abs(ref).max()
        # and for the vectors, through the butterflies: P = G_f P~ G_c^-1
        w = butterfly_weight(lo.space.dim)
        P = np.column_stack([butterfly(hi.P.matrix @ (w * butterfly_T(e)))
                             for e in np.eye(lo.space.dim)])
        proj = P.T @ hi.disc.A.toarray() @ P
        ref = lo.disc.A.toarray()
        assert np.abs(proj - ref).max() <= 1e-12 * np.abs(ref).max()


def test_1d_hierarchy_builds_every_sparse_apply_in_setup(monkeypatch):
    h = build_hierarchy(1, 3, 2, 6)
    # the coarsest level is only solved; every other one applies its A
    assert all("sparse" in vars(lvl.op) for lvl in h.levels[1:])
    # and every factor a cycle solves with holds its L^T
    assert all("upper" in vars(factor) for factor in [h.levels[0].direct] + [
        lvl.smoother.L_eff_solver for lvl in h.levels[1:]])

    def refuse(*args, **kwargs):
        raise AssertionError("a sparse apply built during the solve")

    monkeypatch.setattr(scipy.sparse, "dia_array", refuse)
    f = assemble_load(h.finest.space)
    _, report = solve_mg(h, V11, f, experiment_initial_guess(len(f)))
    assert report.converged


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


@pytest.mark.parametrize("d, level", [(1, 4), (2, 3)], ids=["d1-l4", "d2-l3"])
@pytest.mark.parametrize("p", [1, 2, 3], ids=lambda p: f"p{p}")
@pytest.mark.parametrize("pre, post", [(1, 0), (0, 1), (1, 1), (2, 2)],
                         ids=["v10", "v01", "v11", "v22"])
def test_two_grid_error_propagation_matches_dense_oracle(d, level, p, pre,
                                                         post):
    # the V-cycle on a two-level hierarchy is the two-grid method, whose error
    # propagation the verify pencil spells out densely:
    # E = S^post (I - P A_c^-1 P^T A) S^pre with S = I - L_eff^-1 A
    h = build_hierarchy(d, p, level - 1, level)
    cfg = CycleConfig(cycle="v", pre_smooth=pre, post_smooth=post)
    pencil = smoother_pencil(p, level, d)
    A, P = pencil.A, pencil.P
    eye = np.eye(len(A))
    S = eye - np.linalg.solve(pencil.L_eff, A)
    T = P @ np.linalg.solve(pencil.A_c, P.T @ A)
    E_ref = (np.linalg.matrix_power(S, post) @ (eye - T)
             @ np.linalg.matrix_power(S, pre))

    # column j: the error left by one cycle from u = 0 towards u* = e_j
    E = eye - np.column_stack([_cycle(h, cfg, np.zeros(len(A)), a)
                               for a in A.T])
    npt.assert_allclose(E, E_ref, atol=1e-10)


def test_w_cycle_on_two_levels_equals_v_cycle():
    h = build_hierarchy(1, 2, 3, 4)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(h.finest.space.dim)
    u0 = rng.standard_normal(f.shape[0])
    w = mg_cycle(h, CycleConfig(cycle="w"), 1, u0, f)
    v = mg_cycle(h, CycleConfig(cycle="v"), 1, u0, f)
    npt.assert_allclose(w, v, atol=1e-12)


def _textbook_cycle(h, cfg, idx, u, f):
    """The cycle as textbooks write it, in the levels' coordinates: f - A u
    on entry, r - A d after every smoothing step and after the coarse
    correction, and every coarser level started from explicit zeros."""
    lvl = h.levels[idx]
    if idx == 0:
        return lvl.direct.solve(f)
    down, up = (restrict, prolong) if h.dim == 1 else (restrict_2d, prolong_2d)
    A, step = lvl.op, lvl.smoother.step_direction

    def smoothed(u, r, steps):
        for _ in range(steps):
            d = step(r)
            u = u + d
            r = r - A.apply(d)
        return u, r

    u, r = smoothed(u, f - A.apply(u), cfg.pre_smooth)
    rc = down(lvl.P, r)
    ec = np.zeros_like(rc)
    for _ in range(2 if cfg.cycle == "w" and idx > 1 else 1):
        ec = _textbook_cycle(h, cfg, idx - 1, ec, rc)
    d = up(lvl.P, ec)
    return smoothed(u + d, r - A.apply(d), cfg.post_smooth)[0]


ORACLE_CYCLES = {
    "v11": CycleConfig(cycle="v", pre_smooth=1, post_smooth=1),
    "v20": CycleConfig(cycle="v", pre_smooth=2, post_smooth=0),
    "v02": CycleConfig(cycle="v", pre_smooth=0, post_smooth=2),
    "v33": CycleConfig(cycle="v", pre_smooth=3, post_smooth=3),
    "w11": CycleConfig(cycle="w", pre_smooth=1, post_smooth=1),
}


@pytest.mark.parametrize("p", range(1, 16), ids=lambda p: f"p{p}")
@pytest.mark.parametrize("above, levels", [(0, 1), (0, 3), (2, 2)],
                         ids=["two-grid", "c0-4lv", "c2-3lv"])
def test_1d_cycle_is_bit_identical_to_the_textbook_cycle(p, above, levels):
    # the cycle skips the band applies whose result is known (A 0) or
    # thrown away (the last post-smoothing residual); that moves no bit but
    # the sign of an exact zero (u = d where the textbook forms 0 + d)
    coarse = min_smoother_level(p) - 1 + above
    h = build_hierarchy(1, p, coarse, coarse + levels)
    top, rng = len(h.levels) - 1, np.random.default_rng(p)
    n = h.finest.op.shape[0]
    f, u = rng.standard_normal(n), rng.standard_normal(n)
    for name, cfg in ORACLE_CYCLES.items():
        # a W-cycle's second coarse visit starts from its first, not zero
        assert np.array_equal(mg_cycle(h, cfg, top, u, f),
                              _textbook_cycle(h, cfg, top, u, f)), name
        assert np.array_equal(mg_cycle(h, cfg, top, None, f),
                              _textbook_cycle(h, cfg, top, np.zeros(n), f)), \
            name


@pytest.mark.parametrize("p", [2, 3])
def test_2d_cycle_is_bit_identical_to_the_textbook_cycle(p):
    h = build_hierarchy(2, p, min_smoother_level(p) - 1, 4)
    top, rng = len(h.levels) - 1, np.random.default_rng(p)
    n = h.finest.op.shape[0]
    f, u = rng.standard_normal(n), rng.standard_normal(n)
    for name, cfg in ORACLE_CYCLES.items():
        for start in (u, np.zeros(n)):
            assert mg_cycle(h, cfg, top, start, f).tobytes() == \
                _textbook_cycle(h, cfg, top, start, f).tobytes(), name


def _textbook_solve_mg(h, cfg, f, u0):
    """Cycles from u0 (1D coordinates in, a vector out) until the residual
    f - A u meets the tolerance, each cycle forming f - A u again."""
    A, top = h.finest.op, len(h.levels) - 1
    w = butterfly_weight(len(f))
    f, u = butterfly_T(f), w * butterfly_T(u0)
    history = [_norm(f - A.apply(u), w)]
    while history[-1] > cfg.tol * history[0] and \
            len(history) <= cfg.max_iter:
        u = _textbook_cycle(h, cfg, top, u, f)
        history.append(_norm(f - A.apply(u), w))
    return butterfly(u), history


@pytest.mark.parametrize("p, coarse, fine", [(1, 2, 7), (3, 2, 8),
                                             (8, 5, 10), (15, 5, 9)])
def test_1d_solvers_are_bit_identical_to_textbook_loops(p, coarse, fine):
    h = build_hierarchy(1, p, coarse, fine)
    f = assemble_load(h.finest.space, 1)
    for u0 in (experiment_initial_guess(len(f)), np.zeros_like(f)):
        for name, cfg in ORACLE_CYCLES.items():
            u, rep = solve_mg(h, cfg, f, u0)
            u_ref, history = _textbook_solve_mg(h, cfg, f, u0)
            assert rep.converged, name
            assert np.array_equal(u, u_ref), name
            assert rep.residual_history == history, name
        u, rep = solve_pcg(h, V11, f, u0)
        u_ref, ref = _pcg_first_iteration_by_hand(h, V11, f, u0,
                                                  cycle=_textbook_cycle)
        assert rep.converged and ref.converged
        assert np.array_equal(u, u_ref)
        assert rep.residual_history == ref.residual_history


def _count_band_applies(monkeypatch):
    """A list that gets one entry per :meth:`BandedSymMatrix.apply`."""
    calls, apply = [], BandedSymMatrix.apply

    def counting(self, x):
        calls.append(self.order)
        return apply(self, x)

    monkeypatch.setattr(BandedSymMatrix, "apply", counting)
    return calls


@pytest.mark.parametrize("p, coarse, fine", [(3, 2, 8), (8, 5, 10)])
def test_1d_v11_solves_make_two_band_applies_per_level_and_cycle(
        monkeypatch, p, coarse, fine):
    # a smoothed level forms the residual after its pre-smoothing step and
    # after the coarse correction, no other: a coarser level starts from
    # r = f, the top level from the residual its solver measured, and the
    # residual after the last post-smoothing step is never formed
    h = build_hierarchy(1, p, coarse, fine)
    f = assemble_load(h.finest.space, 1)
    u0 = experiment_initial_guess(len(f))
    smoothed = fine - coarse
    calls = _count_band_applies(monkeypatch)
    u, rep = solve_mg(h, V11, f, u0)
    k = rep.iterations
    assert rep.converged and k > 0
    # the first residual, then per cycle its 2 L and the history's f - A u
    assert len(calls) == 1 + k * (1 + 2 * smoothed)
    calls.clear()
    u, rep = solve_pcg(h, V11, f, u0)
    k = rep.iterations
    assert rep.converged and k > 0
    # the first residual, per iteration the cycle's 2 L and A p, and the
    # f - A u that confirms the stop
    assert len(calls) == 2 + k * (1 + 2 * smoothed)


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
        u = _cycle(h, cfg, u, f)
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
@pytest.mark.parametrize("d,p,level,coarse", [
    (2, 25, 6, None), (2, 30, 6, None), (2, 31, 6, 5), (2, 33, 6, None),
    (1, 34, 9, None), (1, 36, 9, None), (1, 38, 9, None)],
    ids=["25", "30", "31-coarse-5", "33", "1d-34", "1d-36", "1d-38"])
def test_2d_high_degree_converges(solve, d, p, level, coarse):
    # the automatic coarse level unless given; the 2D smoother and coarse
    # solve are exact Kronecker-sum inverses and each 1D smoother matrix is
    # one band factor of bandwidth p in the even/odd basis, so no
    # capacitance or dense coarse Cholesky loses definiteness; 1D p=38
    # needs the exactly persymmetric M and K of the dyadic template; 2D
    # p=31 needs coarse level 5, as the n=16 mass matrix of its automatic
    # coarse level 4 (cond ~3e17) is not resolved; 2D p=33 CG needs the
    # flexible beta, as rounding leaves its V-cycle unsymmetric by ~3e-5.
    # Its 297 iterations of the 500 depend on rounding: small changes to
    # the 2D pencils gave >500 (eigensolves on the G-scaled pencil halves,
    # the F-scaled halves built by parity_band, or mirror-exact quadrature
    # bands), 271 (Q built from its left half) and 289 (both of the last)
    h = build_hierarchy(d, p, min_smoother_level(p) - 1 if coarse is None
                        else coarse, level)
    f = assemble_load(h.finest.space, d)
    u0 = experiment_initial_guess(f.shape[0])
    u, rep = solve(h, V11, f, u0)
    assert rep.converged
    A = h.finest.disc.A if d == 1 else h.finest.op
    r0 = np.linalg.norm(f - A.apply(u0))
    assert np.linalg.norm(f - A.apply(u)) <= 1e-8 * r0


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


@pytest.mark.parametrize("solve", [solve_mg, solve_pcg])
@pytest.mark.parametrize("d", [1, 2])
def test_solver_rejects_non_real_input_by_name(solve, d):
    # a complex f used to lose its imaginary part with only a warning, and
    # an array of strings was parsed into numbers and solved
    h = build_hierarchy(d, 2, 2, 3)
    ones = np.ones(h.finest.space.dim ** d)
    for bad in (ones + 1j, ones.astype(str), ones.astype(object),
                ones.astype(bool)):
        for name, kwargs in (("f", dict(f=bad)),
                             ("u0", dict(f=ones, u0=bad))):
            with pytest.raises(ValueError,
                               match=f"^{name} has dtype {bad.dtype}, "
                               "not int or float$"):
                solve(h, V11, **kwargs)
    # integers are real: solved as their floats
    u, rep = solve(h, V11, ones.astype(np.int32), ones.astype(np.uint8))
    u_ref, rep_ref = solve(h, V11, ones, ones)
    npt.assert_array_equal(u, u_ref)
    assert rep == rep_ref


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


def test_solve_mg_stops_at_first_non_finite_residual():
    h, f, u0 = _overdamped_2d()
    u, rep = solve_mg(h, V11, f, u0)
    assert rep.stop_reason == "non-finite" and not rep.converged
    assert rep.iterations < 50
    assert len(rep.residual_history) == rep.iterations + 1
    assert not math.isfinite(rep.residual_history[-1])
    assert all(math.isfinite(r) for r in rep.residual_history[:-1])


def test_1d_blow_up_inside_a_level_solve_is_a_non_finite_stop():
    # tau = 1e300 leaves the damped 1D smoother matrix nearly singular: the
    # first smoothing step overflows inside the banded solves, and the solve
    # stops with its reason (under the suite's warnings-as-errors)
    h = build_hierarchy(1, 2, 1, 4, tau=1e300)
    f = assemble_load(h.finest.space, 1)
    u, rep = solve_mg(h, V11, f, experiment_initial_guess(len(f)))
    assert rep.stop_reason == "non-finite" and rep.iterations == 1


def test_1d_smoother_factor_overflow_is_not_spd():
    # tau = 1e-310 scales the mass part of the smoother matrix past the
    # largest double; the factor is not finite, a breakdown of its setup
    with pytest.raises(NotSPDError, match=r"^1D damped smoother matrix "
                       r"\(non-finite Cholesky factor\) not SPD$"):
        build_hierarchy(1, 2, 1, 4, tau=1e-310)


def test_solve_pcg_stops_on_indefinite_preconditioner():
    h, f, u0 = _overdamped_2d()
    u, rep = solve_pcg(h, V11, f, u0)
    assert rep.stop_reason == "breakdown" and not rep.converged
    assert rep.iterations == 0
    npt.assert_array_equal(u, u0)


@np.errstate(over="ignore", invalid="ignore")
def _pcg_first_iteration_by_hand(h, cfg, f, u0=None, flexible=True,
                                 cycle=mg_cycle):
    """The CG loop that ran its first iteration before the loop and its
    preconditioner, ``cycle`` from explicit zeros, after the residual
    check: an oracle for the iterates, residuals and stop reasons of
    :func:`solve_pcg`, which runs one cycle less when it stops at max_iter.
    ``flexible=False`` takes the standard beta = rho / rho_old in place of
    r^T (z - z_old) / rho_old."""
    cfg.require_symmetric()
    top = len(h.levels) - 1
    A = h.finest.op

    def precond(res):
        return cycle(h, cfg, top, np.zeros_like(res), res)

    f, u, r, weight, history, stop = _start(h, f, u0)
    if stop is None:
        z = precond(r)
        p = z.copy()
        rho = float(r @ z)
        stop = _cg_scalar_stop(rho)
    while stop is None and len(history) <= cfg.max_iter:
        q = A.apply(p)
        pq = float(p @ q)
        stop = _cg_scalar_stop(pq)
        if stop:
            break
        alpha = rho / pq
        u = u + alpha * p
        r = r - alpha * q
        history.append(_norm(r, weight))
        stop = _residual_stop(history[-1], cfg.tol * history[0])
        if stop == "converged":
            r = f - A.apply(u)
            history[-1] = _norm(r, weight)
            stop = _residual_stop(history[-1], cfg.tol * history[0])
        if stop:
            break
        z_old, z = z, precond(r)
        rho_new = float(r @ z)
        stop = _cg_scalar_stop(rho_new)
        beta = float(r @ (z - z_old)) if flexible else rho_new
        p = z + (beta / rho) * p
        rho = rho_new
    return _physical(h, u), _report(history, stop)


@pytest.mark.parametrize("d, p, coarse, fine, tau, ones, max_iter, stop", [
    (1, 3, 2, 6, None, False, 500, "converged"),
    (2, 3, 1, 4, None, False, 500, "converged"),
    (1, 3, 2, 6, None, False, 5, "max_iter"),
    (2, 3, 1, 4, None, False, 5, "max_iter"),
    (1, 2, 1, 4, 20.0, True, 500, "breakdown"),
    (2, 3, 1, 4, 20.0, True, 500, "breakdown"),     # _overdamped_2d
    (2, 3, 1, 4, 0.15, True, 500, "breakdown"),     # after 4 iterations
    (1, 2, 1, 4, 1e300, False, 500, "non-finite"),
    (2, 2, 1, 4, 1e300, False, 500, "non-finite"),
])
def test_solve_pcg_matches_the_first_iteration_by_hand_loop(
        d, p, coarse, fine, tau, ones, max_iter, stop):
    # bit for bit: the same arithmetic, only the loop is arranged differently
    h = build_hierarchy(d, p, coarse, fine, tau)
    f = assemble_load(h.finest.space, d)
    u0 = np.ones_like(f) if ones else experiment_initial_guess(len(f))
    cfg = CycleConfig(max_iter=max_iter)
    u, rep = solve_pcg(h, cfg, f, u0)
    u_ref, ref = _pcg_first_iteration_by_hand(h, cfg, f, u0)
    assert rep.stop_reason == ref.stop_reason == stop
    assert (np.array(rep.residual_history).tobytes()
            == np.array(ref.residual_history).tobytes())
    assert u.tobytes() == u_ref.tobytes()


@pytest.mark.parametrize("d, p, coarse, fine", [
    (1, 3, 2, 6), (2, 3, 1, 4), (1, 8, 5, 10), (2, 8, 3, 6)])
def test_flexible_beta_matches_the_standard_beta_on_symmetric_cycles(
        d, p, coarse, fine):
    # r^T z_old vanishes in exact arithmetic when the cycle is symmetric, so
    # beta = r^T (z - z_old) / rho_old moves only rounding (measured: the
    # residuals to 6e-8 relative, the iterates to 1e-12 of their largest)
    h = build_hierarchy(d, p, coarse, fine)
    f = assemble_load(h.finest.space, d)
    u0 = experiment_initial_guess(len(f))
    u, rep = solve_pcg(h, V11, f, u0)
    u_ref, ref = _pcg_first_iteration_by_hand(h, V11, f, u0, flexible=False)
    assert rep.stop_reason == ref.stop_reason == "converged"
    assert rep.iterations == ref.iterations
    npt.assert_allclose(rep.residual_history, ref.residual_history, rtol=1e-6)
    npt.assert_allclose(u, u_ref, rtol=0, atol=1e-10 * np.abs(u_ref).max())


def _count_top_cycles(monkeypatch, h):
    """A list that gets one entry per cycle started on the finest level."""
    calls, cycle, top = [], solver.mg_cycle, len(h.levels) - 1

    def counting(h, cfg, idx, *args, **kwargs):
        if idx == top:
            calls.append(idx)
        return cycle(h, cfg, idx, *args, **kwargs)

    monkeypatch.setattr(solver, "mg_cycle", counting)
    return calls


def test_solve_pcg_runs_at_most_max_iter_cycles(monkeypatch):
    # the 5th cycle would meet r^T z <= 0 (a breakdown); a budget of 4
    # iterations never runs it
    h = build_hierarchy(2, 3, 1, 4, tau=0.15)
    f = assemble_load(h.finest.space, 2)
    calls = _count_top_cycles(monkeypatch, h)
    u, rep = solve_pcg(h, CycleConfig(max_iter=4), f, np.ones_like(f))
    assert rep.stop_reason == "max_iter" and rep.iterations == 4
    assert len(calls) == 4


STOP_REASONS = {"converged", "max_iter", "non-finite", "breakdown"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 2]), p=st.integers(1, 4),
       levels_above=st.integers(1, 5), tau_scale=st.floats(1.0, 20.0),
       max_iter=st.integers(1, 8))
def test_stop_rules_bound_iterations_and_cycles(d, p, levels_above,
                                                tau_scale, max_iter):
    # tau from the default to 20x it (over-damped); fine level <= 5
    coarse = min_smoother_level(p) - 1
    fine = min(coarse + levels_above, 5)
    h = build_hierarchy(d, p, coarse, fine, tau_scale * TAU_DEFAULT[d])
    f = assemble_load(h.finest.space, d)
    u0 = experiment_initial_guess(len(f))
    cfg = CycleConfig(max_iter=max_iter)
    for solve in (solve_mg, solve_pcg):
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_top_cycles(mp, h)
            u, rep = solve(h, cfg, f, u0)
        history = rep.residual_history
        assert rep.stop_reason in STOP_REASONS
        assert rep.iterations <= max_iter
        if rep.stop_reason == "max_iter":
            assert rep.iterations == max_iter
        assert len(history) == rep.iterations + 1
        # CG's cycle runs before r^T z is checked: a scalar stop (r^T z or
        # p^T A p) leaves that iteration without its residual
        scalar_stop = solve is solve_pcg and (
            rep.stop_reason == "breakdown" or (
                rep.stop_reason == "non-finite" and math.isfinite(history[-1])))
        assert len(calls) == rep.iterations + scalar_stop


@pytest.mark.parametrize("make, name", [
    (lambda: CycleConfig(pre_smooth=1.5), "pre_smooth"),
    (lambda: CycleConfig(post_smooth=np.float64(1.0)), "post_smooth"),
    (lambda: CycleConfig(max_iter=True), "max_iter"),
    (lambda: ExperimentConfig(dim=1, degrees=[2], levels=[6], max_iter=2.5),
     "max_iter"),
    (lambda: build_hierarchy(1, 2.0, 2, 5), "degree"),
    (lambda: build_hierarchy(2.0, 2, 1, 4), "dimension"),
    (lambda: build_hierarchy(True, 2, 1, 4), "dimension"),
    (lambda: build_hierarchy(1, 2, 2.0, 5), "coarse_level"),
    (lambda: build_hierarchy(1, 2, 2, True), "fine_level"),
], ids=["pre-float", "post-np-float", "max-iter-bool", "table-max-iter",
        "degree-float", "dim-float", "dim-bool", "coarse-float", "fine-bool"])
def test_non_integer_counts_and_sizes_are_refused_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make()


def test_numpy_integer_counts_and_sizes_are_accepted():
    i = np.int64
    h = build_hierarchy(i(1), i(2), i(2), i(4))
    cfg = CycleConfig(pre_smooth=i(1), post_smooth=i(1), max_iter=i(3))
    assert (h.degree, h.coarse_level, h.fine_level) == (2, 2, 4)
    f = assemble_load(h.finest.space, 1)
    u, rep = solve_pcg(h, cfg, f, experiment_initial_guess(len(f)))
    assert rep.stop_reason == "max_iter" and rep.iterations == 3


def _expand(B):
    """Dense array from a WindowBandMatrix's stored blocks alone; a stored
    entry outside the matrix must be zero."""
    j, t, w = np.indices(B.blocks.shape)
    rows = j * B.blocks.shape[1] + t
    cols = B.lo + j * B.stride + w
    inside = (rows < B.shape[0]) & (cols >= 0) & (cols < B.shape[1])
    assert not B.blocks[~inside].any()
    out = np.zeros(B.shape)
    out[rows[inside], cols[inside]] = B.blocks[inside]
    return out


# (1, 1), (3, 2) and (7, 3) make the finest space tight, n = p + 1
@pytest.mark.parametrize("p, level", [(1, 1), (1, 4), (3, 2), (3, 4), (7, 3),
                                      (8, 5)])
def test_block_band_2d_level_matches_kron_oracles(p, level):
    # every 2D level holds its operator and both transfers as window
    # Kronecker products; check their stored entries against the banded
    # and CSR forms, and the operator apply and both transfers against
    # np.kron
    h = build_hierarchy(2, p, min_smoother_level(p) - 1, level)
    rng = np.random.default_rng(p)

    def rel_err(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    def check_square(product, dense):
        # a Kronecker square L (x) L of the window band of ``dense``
        assert product.right is product.left
        npt.assert_array_equal(_expand(product.left), dense)

    for lvl in h.levels:
        op, disc = lvl.op.product, lvl.disc
        K, M, A = disc.K.toarray(), disc.M.toarray(), disc.A.toarray()
        npt.assert_array_equal(_expand(op.right), M)
        # M's and A's blocks stacked on M's windows
        for i, dense in enumerate((M, A)):
            npt.assert_array_equal(_expand(WindowBandMatrix(
                M.shape, op.right.lo, op.right.stride, op.stacked[:, i])),
                dense)
        # [K M] with K's and M's columns interleaved
        KM = _expand(op.left)
        npt.assert_array_equal(KM[:, 0::2], K)
        npt.assert_array_equal(KM[:, 1::2], M)
    disc = h.finest.disc
    K, M, A = disc.K.toarray(), disc.M.toarray(), disc.A.toarray()
    v = rng.standard_normal(h.finest.op.order)
    ref = np.kron(K, M) @ v + np.kron(M, A) @ v
    assert rel_err(h.finest.op.apply(v), ref) <= 1e-13
    for coarse, fine in zip(h.levels, h.levels[1:]):
        P = build_prolongation(coarse.space, fine.space).toarray()
        check_square(fine.P.matrix, P)
        check_square(fine.P.T, P.T)
        PP = np.kron(P, P)
        assert fine.P.matrix.shape == PP.shape
        c = rng.standard_normal(PP.shape[1])
        r = rng.standard_normal(PP.shape[0])
        assert rel_err(prolong_2d(fine.P, c), PP @ c) <= 1e-13
        assert rel_err(restrict_2d(fine.P, r), PP.T @ r) <= 1e-13


@pytest.mark.parametrize("p", [1, 4, 15])
def test_2d_levels_store_only_their_bands(p):
    # one block per BLOCK_ROWS rows, each at most 2 BLOCK_ROWS + 2p wide
    # (32 + 2p + 1 before): dense m x m storage breaks this once m > 16 + 2p
    h = build_hierarchy(2, p, min_smoother_level(p) - 1, 7)
    for lvl in h.levels[1:]:
        op = lvl.op.product
        for B in (op.right, lvl.P.matrix.left, lvl.P.T.left):
            count, rows, width = B.blocks.shape
            assert count == -(-B.shape[0] // BLOCK_ROWS) and rows == BLOCK_ROWS
            assert width <= 2 * BLOCK_ROWS + 2 * p
        # an apply's stacked blocks: two factors on each of M's windows
        count, rows, width = op.right.blocks.shape
        assert op.stacked.shape == (count, 2, rows, width)
        assert op.left.blocks.shape == (count, rows, 2 * width)


def test_2d_apply_and_transfers_leave_earlier_results_alone():
    # the products hold their operand buffers between calls but return none
    # of them: a second call on the same level changes neither the first
    # result nor the input, for a contiguous input and a reversed view
    rng = np.random.default_rng(8)
    for p, level in ((3, 4), (4, 7), (8, 7), (15, 7)):
        lvl = build_hierarchy(2, p, min_smoother_level(p) - 1, level).finest
        coarse_size, fine_size = lvl.P.matrix.shape[1], lvl.op.order
        for call, size in ((lvl.op.apply, fine_size),
                           (lambda x: prolong_2d(lvl.P, x), coarse_size),
                           (lambda x: restrict_2d(lvl.P, x), fine_size)):
            for view in (lambda z: z, lambda z: z[::-1]):
                x = view(rng.standard_normal(size))
                y = view(rng.standard_normal(size))
                x0 = x.copy()
                first = call(x)
                kept = first.copy()
                second = call(y)
                npt.assert_array_equal(first, kept)
                npt.assert_array_equal(x, x0)
                assert not np.shares_memory(first, second)
                npt.assert_array_equal(call(x), kept)
                npt.assert_array_equal(call(x0), kept)


def test_2d_apply_and_transfers_allocate_only_their_result():
    # each product's buffers and views are built in setup, so even a first
    # call allocates only its result and a few small views; building the
    # buffers per call took an l=7 apply to 630 KB for its 144 KB result
    lvl = build_hierarchy(2, 8, min_smoother_level(8) - 1, 7).finest
    rng = np.random.default_rng(5)
    fine = rng.standard_normal(lvl.op.order)
    coarse = rng.standard_normal(lvl.P.matrix.shape[1])
    for product, x, result in ((lvl.op.product, fine, fine.nbytes),
                               (lvl.P.matrix, coarse, fine.nbytes),
                               (lvl.P.T, fine, coarse.nbytes)):
        tracemalloc.start()
        try:
            product @ x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result <= peak <= result + 4096


def test_a_dropped_2d_hierarchy_frees_its_buffers_without_the_collector():
    # a level holds its products, and no product refers back to its owner:
    # with no reference cycle, dropping the hierarchy frees every held
    # product buffer at once
    gc.collect()
    gc.disable()
    try:
        h = build_hierarchy(2, 3, 1, 4)
        n = h.finest.op.order
        mg_cycle(h, V11, len(h.levels) - 1, np.zeros(n), np.ones(n))
        lvl = h.finest
        buffers = [weakref.ref(view.base)
                   for product in (lvl.op.product, lvl.P.matrix, lvl.P.T)
                   for view in (product.xt, product.out)]
        assert all(ref() is not None for ref in buffers)
        del h, lvl
        assert [ref() for ref in buffers] == [None] * len(buffers)
    finally:
        gc.enable()
