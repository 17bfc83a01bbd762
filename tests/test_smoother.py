import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from splinemg import build_space, assemble_1d, operator_2d, index_split, \
    build_smoother_1d, build_smoother_2d, apply_Linv_1d, apply_Linv_2d, \
    smooth_step_1d, smooth_step_2d, build_hierarchy, solve_mg, \
    assemble_load, CycleConfig, experiment_initial_guess
from splinemg import smoother
from splinemg.smoother import TAU_DEFAULT, damping, smooth_1d, smooth_2d, \
    smoother_matrix_1d, smoother_matrix_2d, build_boundary, _boundary_images
from splinemg.linalg import CholeskyFactor, butterfly, butterfly_T, \
    butterfly_weight, cholesky, fold, parity_band


def _setup(p, n, tau=0.14):
    disc = assemble_1d(build_space(p, 0, n))   # n intervals, any n >= p + 1
    return disc, build_smoother_1d(disc, tau)


def _damped_update(sm, r):
    """One smoothing step's update of the residual r as a vector: G y for
    the y that :meth:`Smoother1D.step_direction` returns from G^T r."""
    return butterfly(sm.step_direction(butterfly_T(r)))


def _smooth_vectors(s, A, u, r, steps):
    """:func:`smooth_1d` on the vector u and the residual r of A u = f: in
    the level's coordinates (G^T A G, G^-1 u, G^T r) and back (G y,
    G^-T r~ = G D^2 r~)."""
    w = butterfly_weight(len(u))
    y, rt = smooth_1d(s, parity_band(A, "A"), w * butterfly_T(u),
                      butterfly_T(r), steps)
    return butterfly(y), butterfly(w * rt)


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


def _full_gather_oracle(disc):
    """Y and Q from every interior row and a full-length forward solve."""
    s = index_split(disc.space)
    bnd, itr = s.boundary, s.interior
    ig = disc.A.rectangular_block(itr, bnd)
    interior = disc.A.principal_submatrix(int(itr[0]), int(itr[-1]) + 1)
    Y = cholesky(interior).solve(ig, forward=True)
    Q = disc.A.rectangular_block(bnd, bnd) - Y.T @ Y
    return Y, 0.5 * (Q + Q.T)


# every admissible l <= 12 for p <= 15, the p = 30/38 edge at l = 9, and
# the spaces n = p + 1 ... 3p, where the first and last p interior rows
# overlap
@pytest.mark.parametrize("p,spaces", [
    (p, [(lv, 1) for lv in range(1, 13) if 2**lv > p]
     + [(0, n) for n in range(p + 1, 3 * p + 1)]) for p in range(1, 16)]
    + [(30, [(9, 1), (0, 31)]), (38, [(9, 1), (0, 39)])])
def test_boundary_data_bitwise_equals_full_gather(p, spaces):
    for level, n0 in spaces:
        disc = assemble_1d(build_space(p, level, n0))
        Y, Q = _full_gather_oracle(disc)
        npt.assert_array_equal(
            _boundary_images(disc.A, index_split(disc.space)), Y)
        npt.assert_array_equal(build_boundary(disc, 0.14).Q, Q)


def test_1d_solve_factors_only_the_damped_smoother(monkeypatch):
    built = []

    def counting(matrix, what="matrix"):
        built.append(what)
        return cholesky(matrix, what)

    monkeypatch.setattr(smoother, "cholesky", counting)
    hier = build_hierarchy(1, 3, 2, 7)
    f = assemble_load(hier.finest.space, 1)
    _, report = solve_mg(hier, CycleConfig(), f,
                         experiment_initial_guess(len(f)))
    assert report.converged
    # one interior factor for Q and one damped factor per smoothed level
    assert built == ["interior system block", "1D damped smoother matrix"] * 5
    s = hier.finest.smoother
    assert "L_solver" not in vars(s)
    r = np.random.default_rng(7).standard_normal(s.space_dim)
    x = apply_Linv_1d(s, r)
    assert built[-1] == "1D smoother matrix"
    ref = np.linalg.solve(smoother_matrix_1d(s, hier.finest.disc), r)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    apply_Linv_1d(s, r)
    assert built.count("1D smoother matrix") == 1   # built once


def test_smoother_matrices_need_only_the_boundary_data():
    disc = assemble_1d(build_space(3, 3))
    b, s1 = build_boundary(disc, 0.14), build_smoother_1d(disc, 0.14)
    s2 = build_smoother_2d(operator_2d(disc), 0.08)
    for damped in (False, True):
        npt.assert_array_equal(smoother_matrix_1d(b, disc, damped),
                               smoother_matrix_1d(s1, disc, damped))
    npt.assert_array_equal(
        smoother_matrix_2d(build_boundary(disc, 0.08), disc),
        smoother_matrix_2d(s2, disc))


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


# n = p + 1 is the tightest space (m = 2p + 1, the odd block is all Q);
# m = n + p takes both parities; p = 30, n = 256 is l = 8
@pytest.mark.parametrize("p,n", [(2, 8), (1, 4), (3, 16), (4, 32)] +
                         [(p, p + 1) for p in (1, 2, 3, 7, 15, 30)] +
                         [(p, p + 2) for p in (1, 2, 15)] + [(30, 256)])
def test_apply_Linv_1d_matches_dense_solve(p, n):
    disc, sm = _setup(p, n)
    rng = np.random.default_rng(p * n)
    r = rng.standard_normal(disc.space.dim)
    for damped, x in [(False, apply_Linv_1d(sm, r)),
                      (True, _damped_update(sm, r))]:
        L = smoother_matrix_1d(sm, disc, damped=damped)
        assert _backward_error(L, x, r) <= 1e-15
        # cond(L) reaches 2e14 at p = 30, which bounds the forward error
        ref = np.linalg.solve(L, r)
        assert np.linalg.norm(x - ref) <= \
            1e-15 * np.linalg.cond(L) * np.linalg.norm(ref)
    # a factor of bandwidth p has no fill to decay; the bandwidth-2p factor
    # of the interleaved order 0, m-1, 1, m-2, ... held 3,085 subnormals at
    # p = 3, l = 12
    if (p, n) == (3, 16):
        _, sm = _setup(p, 4096)
    for chol in (sm.L_solver, sm.L_eff_solver):
        f = chol.factor
        assert not np.any((f != 0) & (np.abs(f) < np.finfo(float).tiny))


def _mirror_butterfly(m):
    """G: the even columns e_a + e_{m-1-a} (2 e_k in the middle of odd
    m = 2k + 1), then the odd columns e_a - e_{m-1-a}."""
    h, k = (m + 1) // 2, m // 2
    G = np.zeros((m, m))
    G[np.arange(h), np.arange(h)] += 1.0
    G[m - 1 - np.arange(h), np.arange(h)] += 1.0
    G[np.arange(k), h + np.arange(k)] = 1.0
    G[m - 1 - np.arange(k), h + np.arange(k)] = -1.0
    return G


# the tight spaces n = p + 1 ... 3p take both parities of m = n + p, and
# Q's corners reach the middle of the odd block; from p = 34 Q's mirror
# defect is largest
@pytest.mark.parametrize("p,spaces", [
    (p, [(0, n) for n in range(p + 1, 3 * p + 1)]) for p in range(1, 16)]
    + [(34, [(9, 1)]), (38, [(9, 1)])])
def test_factored_band_is_the_mirror_blocks_of_the_dense_smoother(
        monkeypatch, p, spaces):
    factored = {}

    def recording(matrix, what="matrix"):
        factored[what] = matrix
        return cholesky(matrix, what)

    monkeypatch.setattr(smoother, "cholesky", recording)
    for level, n0 in spaces:
        disc = assemble_1d(build_space(p, level, n0))
        sm = build_smoother_1d(disc, 0.14)
        m, h = sm.space_dim, (sm.space_dim + 1) // 2
        G = _mirror_butterfly(m)
        for damped, chol, what in [
                (True, sm.L_eff_solver, "1D damped smoother matrix"),
                (False, sm.L_solver, "1D smoother matrix")]:
            band = factored[what]
            assert (band.order, band.bandwidth) == (m, p)
            assert chol.factor.shape == (p + 1, m)
            ref = G.T @ smoother_matrix_1d(sm, disc, damped) @ G
            scale = np.abs(ref).max()
            # the cross-parity blocks, which the band leaves out, vanish
            # but for L's mirror defect
            assert np.abs(ref[:h, h:]).max() <= 1e-9 * scale
            ref[:h, h:] = ref[h:, :h] = 0.0
            npt.assert_allclose(band.toarray(), ref, rtol=0,
                                atol=1e-15 * scale)


def _gathered_band(sm, sigma):
    """The even/odd band of sigma M + C as built before the slice reads: four
    full gathers of M.entries (the oracle of the test below)."""
    M, m, p = sm.M, sm.space_dim, sm.M.bandwidth
    h, k = (m + 1) // 2, m // 2
    b = np.arange(h)
    a = b + np.arange(p + 1)[:, None]
    same = M.entries(a, b) + M.entries(m - 1 - a, m - 1 - b)
    cross = M.entries(a, m - 1 - b) + M.entries(m - 1 - a, b)
    band = sigma * np.stack([same + cross, same - cross])
    q = np.pad(fold(sm.Q)[[0, 1], [0, 1]], [(0, 0), (0, p), (0, 0)])
    band[:, :, :p] += q[:, a[:, :p], b[:p]]
    band = np.where(a < np.array([h, k])[:, None, None], band, 0.0)
    return np.concatenate([band[0], band[1, :, :k]], axis=1)


# m = n + p takes both parities over n = p + 1, p + 2 (where the cross-parity
# terms reach the first column) and n = 64, 65; the bands are recorded,
# not factored, so a space whose matrix is not SPD counts too
@pytest.mark.parametrize("p", range(1, 39))
def test_band_slices_equal_the_gathered_band(monkeypatch, p):
    bands = {}

    def recording(matrix, what="matrix"):
        if not what.startswith("1D"):
            return cholesky(matrix, what)
        bands[what] = matrix
        # a stand-in factor, the band itself, whose L^T the smoother builds
        return CholeskyFactor("banded", matrix.order, matrix.bands)

    monkeypatch.setattr(smoother, "cholesky", recording)
    for n in (p + 1, p + 2, 64, 65):
        bands.clear()
        disc = assemble_1d(build_space(p, 0, n))
        sm = build_smoother_1d(disc, 0.14)
        sm.L_solver
        h = sm.mesh_size
        for what, sigma in [("1D damped smoother matrix", h**-2 / 0.14),
                            ("1D smoother matrix", h**-2)]:
            npt.assert_array_equal(bands[what].bands, _gathered_band(sm, sigma))


@settings(max_examples=40, deadline=None)
@given(pn=st.integers(1, 12).flatmap(
           lambda p: st.tuples(st.just(p), st.integers(p + 1, 4 * p + 3))),
       tau=st.floats(0.01, 1.0))
def test_folded_solves_backward_stable(pn, tau):
    p, n = pn
    disc, sm = _setup(p, n, tau)
    r = np.random.default_rng(n).standard_normal(disc.space.dim)
    for damped, x in [(False, apply_Linv_1d(sm, r)),
                      (True, _damped_update(sm, r))]:
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
    u10, r10 = _smooth_vectors(sm, disc.A, u, r, 10)
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


def test_2d_smoothing_step_names_the_expected_length():
    disc, s2 = _setup_2d(3, 8)
    n2 = disc.space.dim ** 2
    with pytest.raises(ValueError, match=rf"^vector of shape \({n2 + 1},\), "
                       rf"expected \({n2},\)$"):
        s2.step_direction(np.ones(n2 + 1))


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


# one step of the shared loop against the dense damped update in each
# dimension: 1D inverts tau^-1 h^-2 M + C, 2D scales LL^-1 r by tau
@pytest.mark.parametrize("dim, p, n", [(1, 2, 8), (1, 3, 16), (1, 7, 8),
                                       (2, 1, 4), (2, 2, 8), (2, 3, 8)])
def test_one_smoothing_step_is_the_dense_damped_update(dim, p, n):
    if dim == 1:
        disc, s = _setup(p, n)
        A, smooth = disc.A, _smooth_vectors
        d_ref = lambda r: np.linalg.solve(
            smoother_matrix_1d(s, disc, damped=True), r)
    else:
        disc, s = _setup_2d(p, n)
        A, smooth = operator_2d(disc), smooth_2d
        d_ref = lambda r: s.tau * np.linalg.solve(smoother_matrix_2d(s, disc), r)
    rng = np.random.default_rng(10 * dim + p)
    u, r = rng.standard_normal((2, A.shape[0]))
    d, Ad = d_ref(r), A.toarray() @ d_ref(r)
    u1, r1 = smooth(s, A, u, r, 1)
    assert np.linalg.norm(u1 - (u + d)) <= 1e-12 * np.linalg.norm(d)
    assert np.linalg.norm(r1 - (r - Ad)) <= 1e-12 * np.linalg.norm(Ad)


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


def test_1d_smoother_builds_its_damped_factors_upper_band():
    # a smoothing step's back substitution reads L^T: built with the
    # smoother, by the smoother, not by its hierarchy or the first step
    _, sm = _setup(3, 16)
    assert "upper" in vars(sm.L_eff_solver)
