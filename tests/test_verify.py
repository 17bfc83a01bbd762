import numpy as np
import numpy.testing as npt
import pytest

from splinemg import build_space, assemble_1d, eval_spline, \
    build_constraint_basis, verify_inverse_inequality, verify_counterexample, \
    verify_approximation_constant, measure_CA, measure_smoothing_constant, \
    smoother_energy_norm, smoother_pencil, INVERSE_BOUND, APPROX_BOUND
from splinemg import build_prolongation, cli, NotSPDError, SmootherPencil, \
    SpaceSizeError
from splinemg.linalg import generalized_eig_max
from splinemg.verify import dense_space


def _product_of_steps(p, coarse_level, fine_level):
    """Embedding as the product of one-step prolongations (the oracle for
    the multi-level embedding the library builds in one pass)."""
    mat = np.eye(build_space(p, coarse_level).dim)
    for lev in range(coarse_level, fine_level):
        step = build_prolongation(build_space(p, lev), build_space(p, lev + 1))
        mat = step @ mat
    return mat


def _sym_sqrt(mat: np.ndarray, power: float = 0.5) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, np.finfo(float).tiny, None)
    return v @ np.diag(w**power) @ v.T


def _approximation_oracle(p, level, proxy, constrained=True):
    """||M^(1/2) (I - T) A^(-1/2)|| / h from two square roots and an SVD."""
    coarse = build_space(p, level)
    fine = build_space(p, level + proxy)
    disc = assemble_1d(fine)
    Af, Mf = disc.A.toarray(), disc.M.toarray()
    Z = _product_of_steps(p, level, level + proxy)
    if constrained:
        Z = Z @ build_constraint_basis(coarse)
    T = Z @ np.linalg.solve(Z.T @ Af @ Z, Z.T @ Af)
    X = _sym_sqrt(Mf) @ (np.eye(fine.dim) - T) @ _sym_sqrt(Af, -0.5)
    return np.linalg.svd(X, compute_uv=False)[0] / coarse.mesh_size


def _CA_oracle(pencil):
    """||L^(1/2) (I - T) A^(-1) L^(1/2)|| from a square root and an SVD."""
    A, L = pencil.A, pencil.L_eff
    T = pencil.P @ np.linalg.solve(pencil.A_c, pencil.P.T @ A)
    Lhalf = _sym_sqrt(L)
    X = Lhalf @ (np.eye(A.shape[0]) - T) @ np.linalg.solve(A, Lhalf)
    return np.linalg.svd(0.5 * (X + X.T), compute_uv=False)[0]


def test_constraint_basis_p1_is_full_space():
    sp = build_space(1, 3)
    cb = build_constraint_basis(sp)
    assert cb.shape[1] == sp.dim
    npt.assert_allclose(cb, np.eye(sp.dim))


@pytest.mark.parametrize("p,expected_codim", [
    (2, 2), (3, 2), (4, 4), (5, 4), (6, 6), (7, 6), (8, 8),
])
def test_constraint_basis_codimension(p, expected_codim):
    # dimensions differ by p for even degree, p-1 for odd degree
    sp = build_space(p, 1, p + 1)
    cb = build_constraint_basis(sp)
    assert sp.dim - cb.shape[1] == expected_codim


def test_constraint_basis_columns_independent():
    sp = build_space(4, 2)
    cb = build_constraint_basis(sp)
    assert np.linalg.matrix_rank(cb) == cb.shape[1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_constraint_basis_columns_satisfy_constraints(p):
    sp = build_space(p, 2)
    cb = build_constraint_basis(sp)
    for j in range(cb.shape[1]):
        for x in (0.0, 1.0):
            for q in range(1, p, 2):
                val = eval_spline(sp, cb[:, j], x, order=q)
                # scale by the derivative magnitude of the raw basis
                assert abs(val) <= 1e-9 * sp.mesh_size**-q


def test_constraint_basis_empty_space_rejected():
    sp = build_space(4, 0, 2)  # m = 6, 4 constraints, dim 2 still fine
    cb = build_constraint_basis(sp)
    assert cb.shape[1] == 2


@pytest.mark.parametrize("p", range(1, 9))
def test_inverse_inequality_bound(p):
    res = verify_inverse_inequality(p, 1, n0=p + 1)  # n = 2(p+1)
    assert res.constrained <= INVERSE_BOUND + 1e-8
    assert res.interior <= INVERSE_BOUND + 1e-8


def test_inverse_inequality_p1_equals_full_space_value():
    res = verify_inverse_inequality(1, 4)
    full = verify_counterexample(1, 4)
    assert abs(res.constrained - full) <= 1e-10
    assert 1.0 <= full <= INVERSE_BOUND + 1e-8


@pytest.mark.parametrize("p", range(2, 11))
def test_counterexample_growth(p):
    value = verify_counterexample(p, 4)  # n = 16
    assert value >= p


def test_counterexample_rejects_oversize():
    with pytest.raises(ValueError, match="dense verification limit"):
        verify_counterexample(2, 12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_approximation_constant_bound(p):
    value = verify_approximation_constant(p, 3, proxy_levels=4)
    assert value <= APPROX_BOUND + 0.01


def test_approximation_projector_fixes_subspace():
    p, level, proxy = 2, 3, 3
    coarse = build_space(p, level)
    fine = build_space(p, level + proxy)
    disc = assemble_1d(fine)
    Af = disc.A.toarray()
    Z = _product_of_steps(p, level, level + proxy) @ \
        build_constraint_basis(coarse)
    T = Z @ np.linalg.solve(Z.T @ Af @ Z, Z.T @ Af)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(Z.shape[1])
    u = Z @ c
    npt.assert_allclose(T @ u, u, atol=1e-10 * np.linalg.norm(u))


def test_approximation_constant_full_space_not_larger():
    # projecting onto the full spline space cannot be worse than onto the
    # constrained subspace
    full = _approximation_oracle(2, 3, 3, constrained=False)
    assert full <= _approximation_oracle(2, 3, 3) + 1e-12


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("p", range(1, 9))
def test_approximation_constant_matches_square_root_oracle(p, level):
    value = verify_approximation_constant(p, level)
    ref = _approximation_oracle(p, level, 4)
    assert abs(value - ref) <= 1e-12 * ref


def _projector_form(p, level, proxy=4):
    """The approximation constant from R = I - T and two dense products."""
    coarse, fine = build_space(p, level), build_space(p, level + proxy)
    disc = assemble_1d(fine)
    Af, Mf = disc.A.toarray(), disc.M.toarray()
    Z = build_prolongation(coarse, fine).toarray() @ \
        build_constraint_basis(coarse)
    R = np.eye(fine.dim) - Z @ np.linalg.solve(Z.T @ Af @ Z, Z.T @ Af)
    lam = generalized_eig_max(R.T @ Mf @ R, Af)
    return np.sqrt(max(lam, 0.0)) / coarse.mesh_size


@pytest.mark.parametrize("level", [0, 2, 4])
@pytest.mark.parametrize("p", range(1, 9))
def test_approximation_constant_rank_k_form_matches_projector(p, level):
    ref = _projector_form(p, level)
    assert abs(verify_approximation_constant(p, level) - ref) <= 1e-13 * ref


def test_size_checks_raise_one_named_error():
    with pytest.raises(SpaceSizeError, match="dense verification limit"):
        dense_space(1, 9)
    assert dense_space(2, 4, d=2).dim == 18
    with pytest.raises(SpaceSizeError, match="dense verification limit"):
        dense_space(15, 4, d=2)
    with pytest.raises(SpaceSizeError, match="dense verification limit"):
        verify_approximation_constant(2, 5)     # proxy n = 512
    with pytest.raises(SpaceSizeError, match="interior space empty"):
        verify_inverse_inequality(4, 2)         # n = p
    # a level without a smoother fails before its coarse level is built,
    # so level 0 raises the size error, not build_space's level error
    for level in (0, 2):
        with pytest.raises(SpaceSizeError, match="interior space empty"):
            smoother_pencil(4, level)


@pytest.mark.parametrize("d,level,degrees", [(1, 5, range(1, 9)),
                                             (2, 3, range(1, 4))])
def test_measure_CA_matches_square_root_oracle(d, level, degrees):
    for p in degrees:
        pencil = smoother_pencil(p, level, d=d)
        ref = _CA_oracle(pencil)
        assert abs(measure_CA(pencil) - ref) <= 1e-12 * ref


def test_measure_CA_identical_spaces_is_zero():
    # exact coarse space equal to the fine space: projector is the identity
    p, level = 2, 3
    sp = build_space(p, level)
    disc = assemble_1d(sp)
    Af = disc.A.toarray()
    from splinemg import build_smoother_1d
    from splinemg.smoother import smoother_matrix_1d
    sm = build_smoother_1d(disc, 0.14)
    L = smoother_matrix_1d(sm, disc, damped=True)
    T = np.eye(sp.dim)  # P = I, Ac = Af
    X = _sym_sqrt(L) @ (np.eye(sp.dim) - T) @ np.linalg.solve(Af, _sym_sqrt(L))
    assert np.abs(X).max() <= 1e-12


def test_measure_CA_bounded_sequence_1d():
    values = [measure_CA(smoother_pencil(p, 5, d=1)) for p in range(1, 7)]
    assert max(values) <= 3.0 * values[0]


def test_measure_CA_bounded_sequence_2d():
    values = [measure_CA(smoother_pencil(p, 3, d=2)) for p in range(1, 4)]
    assert max(values) <= 3.0 * values[0]


def test_smoothing_constant_bounded_by_inverse_tau():
    tau = 0.14
    for p in [1, 3, 6]:
        pencil = smoother_pencil(p, 5, d=1, tau=tau)
        for nu in range(1, 9):
            val = measure_smoothing_constant(pencil, nu)
            assert val <= 1.0 / tau + 1e-8


def test_smoothing_norm_sequence_non_increasing():
    for p in [1, 4]:
        pencil = smoother_pencil(p, 5, d=1)
        norms = [measure_smoothing_constant(pencil, nu) / nu
                 for nu in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_smoothing_constant_2d():
    tau = 0.08
    for p in [1, 2]:
        val = measure_smoothing_constant(smoother_pencil(p, 3, d=2, tau=tau),
                                         1)
        assert val <= 1.0 / tau + 1e-8


def test_smoother_energy_norm_at_most_one():
    for p in [1, 3, 6]:
        assert smoother_energy_norm(smoother_pencil(p, 5, d=1)) <= 1.0
    assert smoother_energy_norm(smoother_pencil(2, 3, d=2)) <= 1.0


def test_pencil_spectrum_names_a_non_spd_smoother_matrix():
    eye = np.eye(3)
    pencil = SmootherPencil(A=eye, A_c=eye[:1, :1], P=eye[:, :1], L_eff=-eye)
    with pytest.raises(NotSPDError,
                       match="effective smoother matrix L_eff not SPD"):
        measure_smoothing_constant(pencil, 1)


def test_corrupted_tau_violates_smoothing_bound():
    # with tau = 10 the bound 1/tau = 0.1 must be violated
    val = measure_smoothing_constant(smoother_pencil(2, 5, d=1, tau=10.0), 1)
    assert val > 1.0 / 10.0 + 1e-8


def _count_pencils(monkeypatch):
    built = []

    def counting(p, level, d=1, tau=None):
        built.append((p, level))
        return smoother_pencil(p, level, d=d, tau=tau)

    monkeypatch.setattr("splinemg.verify.smoother_pencil", counting)
    return built


def test_run_verify_builds_one_pencil_per_cell(monkeypatch):
    built = _count_pencils(monkeypatch)
    cli.run_verify(list(range(1, 9)), [4], d=1)
    assert built == [(p, 4) for p in range(1, 9)]
    # without p=1 in the range, one more pencil for the C_A reference
    built.clear()
    cli.run_verify([2, 3], [4], d=1)
    assert built == [(2, 4), (3, 4), (1, 4)]


@pytest.mark.parametrize("d,level,degrees", [(1, 4, range(1, 5)),
                                             (2, 3, range(1, 3))])
def test_run_verify_values_equal_the_public_functions(d, level, degrees):
    report = {(r.name, r.degree): r.value
              for r in cli.run_verify(list(degrees), [level], d=d)}
    ca = {}
    for p in degrees:
        pencil = smoother_pencil(p, level, d=d)
        assert report["smoothing-constant", p] == max(
            measure_smoothing_constant(pencil, nu) for nu in range(1, 9))
        assert report["smoother-energy-norm", p] == \
            smoother_energy_norm(pencil)
        ca[p] = measure_CA(pencil)
        if d == 1:
            res = verify_inverse_inequality(p, level)
            assert report["inverse-inequality-constrained", p] == \
                res.constrained
            assert report["inverse-inequality-interior", p] == res.interior
            assert report["counterexample-growth", p] == \
                verify_counterexample(p, level)
            assert report["approximation-constant", p] == \
                verify_approximation_constant(p, level)
    assert report["approximation-property-ratio", max(degrees)] == \
        max(ca.values()) / ca[1]
