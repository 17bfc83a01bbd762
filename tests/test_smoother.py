import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from splinemg import build_space, assemble_1d, operator_2d, index_split, \
    build_smoother_1d, build_smoother_2d, apply_Linv_1d, apply_Linv_2d, \
    smooth_step_1d, smooth_step_2d
from splinemg.smoother import TAU_DEFAULT, damping, smooth_1d, smooth_2d, \
    smoother_matrix_1d, smoother_matrix_2d
from splinemg.linalg import cholesky


def _setup(p, n, tau=0.14):
    disc = assemble_1d(build_space(p, 0, n))   # n intervals, any n >= p + 1
    return disc, build_smoother_1d(disc, tau)


def _backward_error(L, x, r):
    """Normwise backward error ||L x - r|| / (||L|| ||x||) of a solve."""
    return np.linalg.norm(L @ x - r) / (np.linalg.norm(L, 2) * np.linalg.norm(x))


def _dense_blocks(disc):
    Ad = disc.A.toarray()
    s = index_split(disc.space)
    return Ad, s.boundary, s.interior


def test_schur_matches_dense_block_elimination():
    disc, sm = _setup(1, 4)
    Ad, bnd, itr = _dense_blocks(disc)
    ref = Ad[np.ix_(bnd, bnd)] - Ad[np.ix_(bnd, itr)] @ np.linalg.solve(
        Ad[np.ix_(itr, itr)], Ad[np.ix_(itr, bnd)])
    npt.assert_allclose(sm.Q, ref, atol=1e-12)


def test_schur_is_spd():
    for p, n in [(1, 4), (2, 8), (4, 16)]:
        _, sm = _setup(p, n)
        assert np.linalg.eigvalsh(sm.Q).min() > 0


def test_correction_annihilates_interior_vectors():
    disc, sm = _setup(2, 8)
    m = disc.space.dim
    s = index_split(disc.space)
    C = np.zeros((m, m))
    C[np.ix_(s.boundary, s.boundary)] = sm.Q
    rng = np.random.default_rng(0)
    v = np.zeros(m)
    v[s.interior] = rng.standard_normal(len(s.interior))
    assert np.abs(C @ v).max() == 0.0


def test_correction_is_energy_of_minimal_extension():
    # v^T C v equals the minimum of ||w||_A^2 over extensions w of v_Gamma
    disc, sm = _setup(2, 8)
    Ad, bnd, itr = _dense_blocks(disc)
    rng = np.random.default_rng(1)
    for _ in range(5):
        vg = rng.standard_normal(len(bnd))
        quad = vg @ sm.Q @ vg
        # dense constrained minimization: interior part solves the
        # normal equations A_II w_I = -A_IG v_G
        wi = np.linalg.solve(Ad[np.ix_(itr, itr)], -Ad[np.ix_(itr, bnd)] @ vg)
        w = np.zeros(disc.space.dim)
        w[bnd] = vg
        w[itr] = wi
        assert abs(quad - w @ Ad @ w) <= 1e-11 * (1 + abs(quad))


def test_energy_minimization_bound():
    # lambda_max(C_embedded, A) <= 1: the correction never exceeds the energy
    for p, n in [(1, 8), (3, 16)]:
        disc, sm = _setup(p, n)
        m = disc.space.dim
        s = index_split(disc.space)
        C = np.zeros((m, m))
        C[np.ix_(s.boundary, s.boundary)] = sm.Q
        lam = scipy.linalg.eigh(C, disc.A.toarray(), eigvals_only=True)[-1]
        assert lam <= 1 + 1e-10


def test_build_smoother_rejects_bad_input():
    disc = assemble_1d(build_space(3, 0, 3))  # m = 2p, empty interior
    with pytest.raises(ValueError, match="interior space empty"):
        build_smoother_1d(disc, 0.14)
    disc = assemble_1d(build_space(2, 3))
    with pytest.raises(ValueError):
        build_smoother_1d(disc, -1.0)


def test_damping_defaults_per_dimension_and_rejects_dimension_3():
    assert damping(1) == TAU_DEFAULT[1] == 0.14
    assert damping(2) == TAU_DEFAULT[2] == 0.08
    assert damping(2, 0.5) == 0.5
    with pytest.raises(ValueError, match="dimension must be 1 or 2, got 3"):
        damping(3)


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
def test_damping_rejects_tau_with_one_message(tau):
    disc = assemble_1d(build_space(2, 3))
    builds = [lambda: damping(1, tau), lambda: damping(2, tau),
              lambda: build_smoother_1d(disc, tau),
              lambda: build_smoother_2d(operator_2d(disc), tau)]
    for build in builds:
        with pytest.raises(ValueError, match="^damping parameter tau must be "
                           f"positive and finite, got {tau}$"):
            build()


# n = p + 1 is the tightest space (m = 2p + 1, the folded band is full);
# m = n + p takes both parities; p = 30, n = 256 is l = 8
@pytest.mark.parametrize("p,n", [(2, 8), (1, 4), (3, 16), (4, 32)] +
                         [(p, p + 1) for p in (1, 2, 3, 7, 15, 30)] +
                         [(p, p + 2) for p in (1, 2, 15)] + [(30, 256)])
def test_apply_Linv_1d_matches_dense_solve(p, n):
    disc, sm = _setup(p, n)
    rng = np.random.default_rng(p * n)
    r = rng.standard_normal(disc.space.dim)
    for damped, x in [(False, apply_Linv_1d(sm, r)),
                      (True, sm.step_direction(r))]:
        L = smoother_matrix_1d(sm, disc, damped=damped)
        assert _backward_error(L, x, r) <= 1e-15
        # cond(L) reaches 2e14 at p = 30, which bounds the forward error
        ref = np.linalg.solve(L, r)
        assert np.linalg.norm(x - ref) <= \
            1e-15 * np.linalg.cond(L) * np.linalg.norm(ref)
    # the folded fill underflows at p = 3, l = 12 (3,085 subnormals)
    if (p, n) == (3, 16):
        _, sm = _setup(p, 4096)
    for chol in (sm.L_solver, sm.L_eff_solver):
        f = chol.factor
        assert not np.any((f != 0) & (np.abs(f) < np.finfo(float).tiny))


@settings(max_examples=40, deadline=None)
@given(pn=st.integers(1, 12).flatmap(
           lambda p: st.tuples(st.just(p), st.integers(p + 1, 4 * p + 3))),
       tau=st.floats(0.01, 1.0))
def test_folded_solves_backward_stable(pn, tau):
    p, n = pn
    disc, sm = _setup(p, n, tau)
    r = np.random.default_rng(n).standard_normal(disc.space.dim)
    for damped, x in [(False, apply_Linv_1d(sm, r)),
                      (True, sm.step_direction(r))]:
        L = smoother_matrix_1d(sm, disc, damped=damped)
        assert _backward_error(L, x, r) <= 1e-14


@pytest.mark.parametrize("p,n", [(1, 8), (2, 8), (3, 32), (4, 32)])
def test_Linv_round_trip(p, n):
    disc, sm = _setup(p, n)
    L = smoother_matrix_1d(sm, disc)
    rng = np.random.default_rng(n + p)
    r = rng.standard_normal(disc.space.dim)
    back = L @ apply_Linv_1d(sm, r)
    assert np.linalg.norm(back - r) <= 1e-10 * np.linalg.norm(r)


def test_smooth_step_exact_solution_unchanged():
    disc, sm = _setup(3, 16)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(disc.space.dim)
    f = disc.A.apply(u)
    u2 = smooth_step_1d(sm, disc, u, f)
    npt.assert_allclose(u2, u, atol=1e-12)


@pytest.mark.parametrize("p", range(1, 7))
def test_error_propagation_contracts_1d(p, tau=0.14):
    disc, sm = _setup(p, 32, tau)
    Ltau = smoother_matrix_1d(sm, disc, damped=True)
    lam = scipy.linalg.eigh(disc.A.toarray(), Ltau, eigvals_only=True)
    rho = np.abs(1.0 - lam).max()
    assert rho < 1.0


def test_single_step_reduces_smoother_norm():
    # statistically over 100 trials: one step shrinks the L_tau-norm error
    disc, sm = _setup(3, 32)
    Ltau = smoother_matrix_1d(sm, disc, damped=True)
    rng = np.random.default_rng(4)
    u_star = rng.standard_normal(disc.space.dim)
    f = disc.A.apply(u_star)
    for _ in range(100):
        u = u_star + rng.standard_normal(disc.space.dim)
        before = (u_star - u) @ Ltau @ (u_star - u)
        u2 = smooth_step_1d(sm, disc, u, f)
        after = (u_star - u2) @ Ltau @ (u_star - u2)
        assert after < before


def test_incremental_residual_consistency_1d():
    disc, sm = _setup(2, 16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(disc.space.dim)
    f = rng.standard_normal(disc.space.dim)
    r = f - disc.A.apply(u)
    u10, r10 = smooth_1d(sm, disc.A, u, r, 10)
    recomputed = f - disc.A.apply(u10)
    assert np.linalg.norm(r10 - recomputed) <= 1e-11 * np.linalg.norm(f)


# ---------------------------------------------------------------- 2D


def _setup_2d(p, n, tau=0.08):
    sp = build_space(p, 0, n)          # n intervals, any n >= p + 2
    disc = assemble_1d(sp)
    return disc, build_smoother_2d(operator_2d(disc), tau)


# n = p + 2 is the tightest admissible space: one interior coefficient
@pytest.mark.parametrize("p,n", [(1, 4), (2, 8), (3, 8)] +
                         [(p, p + 2) for p in range(1, 11)])
def test_apply_Linv_2d_matches_dense_solve(p, n):
    disc, s2 = _setup_2d(p, n)
    LL = smoother_matrix_2d(s2, disc)
    rng = np.random.default_rng(p + n)
    r = rng.standard_normal(disc.space.dim ** 2)
    mine = apply_Linv_2d(s2, r)
    ref = np.linalg.solve(LL, r)
    assert np.linalg.norm(mine - ref) <= 1e-9 * np.linalg.norm(ref)


def test_Linv_2d_symmetric_operator():
    disc, s2 = _setup_2d(2, 8)
    rng = np.random.default_rng(6)
    n2 = disc.space.dim ** 2
    u, v = rng.standard_normal(n2), rng.standard_normal(n2)
    lhs = apply_Linv_2d(s2, u) @ v
    rhs = u @ apply_Linv_2d(s2, v)
    assert abs(lhs - rhs) <= 1e-11 * (abs(lhs) + 1)


def test_mass_limit_2d():
    # with the correction dropped, LL^-1 reduces to h^-2 scaling of the
    # tensor mass solve: LL = h^2 (h^-2 M (x) h^-2 M) = h^-2 M (x) M
    disc, s2 = _setup_2d(2, 8)
    sp = disc.space
    chol_M = cholesky(disc.M)
    rng = np.random.default_rng(7)
    r = rng.standard_normal(sp.dim ** 2)
    V = r.reshape(sp.dim, sp.dim)
    ref = sp.mesh_size**2 * chol_M.solve(chol_M.solve(V.T).T).reshape(-1)
    Md = disc.M.toarray()
    dense = np.kron(Md, Md) / sp.mesh_size**2
    npt.assert_allclose(dense @ ref, r, atol=1e-9 * np.linalg.norm(r))


def test_smooth_step_2d_exact_unchanged():
    disc, s2 = _setup_2d(2, 8)
    op = operator_2d(disc)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(disc.space.dim ** 2)
    f = op.apply(u)
    u2 = smooth_step_2d(s2, op, u, f)
    npt.assert_allclose(u2, u, atol=1e-11)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_error_propagation_contracts_2d(p):
    disc, s2 = _setup_2d(p, 8)
    AA = operator_2d(disc).toarray()
    LL = smoother_matrix_2d(s2, disc)
    lam = scipy.linalg.eigh(AA, LL, eigvals_only=True)
    rho = np.abs(1.0 - 0.08 * lam).max()
    assert rho < 1.0


def test_incremental_residual_consistency_2d():
    disc, s2 = _setup_2d(2, 8)
    op = operator_2d(disc)
    rng = np.random.default_rng(9)
    n2 = disc.space.dim ** 2
    u = rng.standard_normal(n2)
    f = rng.standard_normal(n2)
    r = f - op.apply(u)
    u10, r10 = smooth_2d(s2, op, u, r, 10)
    recomputed = f - op.apply(u10)
    assert np.linalg.norm(r10 - recomputed) <= 1e-11 * np.linalg.norm(f)


def test_spectral_equivalence_bounded_in_p_1d():
    # lambda_max(A, L) at n = 2(p+1) stays within 2x of its p=1 value
    values = []
    for p in range(1, 11):
        sp = build_space(p, 1, p + 1)
        disc = assemble_1d(sp)
        sm = build_smoother_1d(disc, 0.14)
        L = smoother_matrix_1d(sm, disc)
        lam = scipy.linalg.eigh(disc.A.toarray(), L, eigvals_only=True)[-1]
        values.append(lam)
    assert max(values) <= 2.0 * values[0]


def test_spectral_equivalence_bounded_in_p_2d():
    values = []
    for p in range(1, 6):
        sp = build_space(p, 0, p + 2)
        disc = assemble_1d(sp)
        op = operator_2d(disc)
        s2 = build_smoother_2d(op, 0.08)
        AA = op.toarray()
        LL = smoother_matrix_2d(s2, disc)
        lam = scipy.linalg.eigh(AA, LL, eigvals_only=True)[-1]
        values.append(lam)
    assert max(values) <= 2.0 * values[0]
