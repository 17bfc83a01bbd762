import numpy as np
import numpy.testing as npt
import pytest

from splinemg import BandedSymMatrix, KronSumSolver, NotSPDError, cholesky, \
    kron_apply, generalized_eig_max, operator_norm, build_space, assemble_1d, \
    build_prolongation
from splinemg import linalg
from splinemg.linalg import BLOCK_ROWS, WindowBandMatrix, generalized_eigh
from splinemg.transfer import window_embedding


def _random_spd_banded(rng, m, b):
    a = BandedSymMatrix.zeros(m, b)
    for k in range(b + 1):
        a.bands[k, :m - k] = rng.uniform(-1, 1, m - k)
    # diagonal dominance makes it SPD
    a.bands[0, :] = 2.0 * (b + 1)
    return a


def test_banded_storage_round_trip():
    rng = np.random.default_rng(0)
    a = _random_spd_banded(rng, 9, 3)
    dense = a.toarray()
    npt.assert_allclose(dense, dense.T)
    again = BandedSymMatrix.from_dense(dense, 3)
    npt.assert_allclose(again.bands, a.bands)


def test_banded_apply_matches_dense():
    rng = np.random.default_rng(1)
    a = _random_spd_banded(rng, 12, 2)
    x = rng.standard_normal(12)
    npt.assert_allclose(a.apply(x), a.toarray() @ x, atol=1e-13)
    X = rng.standard_normal((12, 4))
    npt.assert_allclose(a.apply(X), a.toarray() @ X, atol=1e-13)


def test_principal_submatrix():
    rng = np.random.default_rng(2)
    a = _random_spd_banded(rng, 10, 3)
    sub = a.principal_submatrix(2, 7)
    npt.assert_allclose(sub.toarray(), a.toarray()[2:7, 2:7])


def test_rectangular_block():
    rng = np.random.default_rng(3)
    a = _random_spd_banded(rng, 8, 2)
    rows = np.array([0, 1, 6, 7])
    cols = np.array([2, 3])
    npt.assert_allclose(a.rectangular_block(rows, cols),
                        a.toarray()[np.ix_(rows, cols)])


def _dense_factor(f):
    """Dense lower-triangular factor read from ``f.factor`` (LAPACK's
    lower band storage, or a dense array whose upper triangle is unused)."""
    if f.kind == "dense":
        return np.tril(f.factor)
    b = f.factor.shape[0] - 1
    return np.tril(BandedSymMatrix(f.order, b, f.factor).toarray())


def test_cholesky_identity():
    f = cholesky(np.eye(4))
    npt.assert_allclose(_dense_factor(f), np.eye(4), atol=1e-15)
    npt.assert_allclose(f.solve(np.arange(4.0)), np.arange(4.0))


def test_cholesky_2x2_hand_elimination():
    f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    npt.assert_allclose(_dense_factor(f), [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_stiffness_p1_is_spd():
    disc = assemble_1d(build_space(1, 2))  # p=1, n=4
    # K is singular (constants) but A = K + M is SPD
    f = cholesky(disc.A)
    assert np.all(np.diag(_dense_factor(f)) > 0)


def test_cholesky_banded_round_trip_random():
    rng = np.random.default_rng(4)
    for m, b in [(20, 2), (57, 5), (200, 10)]:
        a = _random_spd_banded(rng, m, b)
        f = cholesky(a)
        L = _dense_factor(f)
        err = np.linalg.norm(a.toarray() - L @ L.T) / np.linalg.norm(a.toarray())
        assert err <= 1e-12


def test_cholesky_reports_pivot():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotSPDError) as exc:
        cholesky(bad)
    assert exc.value.pivot == 2
    assert "not SPD" in str(exc.value)

    banded_bad = BandedSymMatrix.from_dense(np.diag([1.0, 1.0, -3.0]), 1)
    with pytest.raises(NotSPDError) as exc:
        cholesky(banded_bad)
    assert exc.value.pivot == 3


def test_solve_round_trip():
    rng = np.random.default_rng(5)
    a = _random_spd_banded(rng, 30, 4)
    f = cholesky(a)
    v = rng.standard_normal(30)
    x = f.solve(a.apply(v))
    npt.assert_allclose(x, v, atol=1e-10)


def test_solve_residual_banded_mass():
    disc = assemble_1d(build_space(1, 1))  # p=1, n=2
    f = cholesky(disc.M)
    b = np.ones(3)
    x = f.solve(b)
    npt.assert_allclose(disc.M.apply(x), b, atol=1e-12)


def test_solve_dimension_mismatch():
    f = cholesky(np.eye(3))
    with pytest.raises(ValueError):
        f.solve(np.ones(4))


@pytest.mark.parametrize("kind", ["banded", "dense"])
def test_non_finite_factor_is_not_spd_and_a_solve_passes_its_rhs_through(kind):
    # the factor is checked once, in cholesky, and a non-finite one is a
    # breakdown like a failed pivot; a solve scans no rhs: a NaN stays in
    # its entry's solution column, for the solvers' non-finite stop
    good = BandedSymMatrix(3, 1, np.array([[2.0, 2.0, 2.0], [0.5, 0.5, 0.0]]))
    bad = BandedSymMatrix(3, 1, good.bands * [[np.inf], [1.0]])
    if kind == "dense":
        good, bad = good.toarray(), bad.toarray()
    with pytest.raises(NotSPDError, match=r"^probe \(non-finite Cholesky "
                       r"factor\) not SPD$") as exc:
        cholesky(bad, "probe")
    assert exc.value.pivot == 0
    rhs = np.array([[1.0, np.nan], [0.0, 0.0], [2.0, 0.0]])
    x = cholesky(good).solve(rhs)
    assert np.isfinite(x[:, 0]).all() and np.isnan(x[:, 1]).all()
    with pytest.raises(ValueError, match="leading dimension 2, expected 3"):
        cholesky(good).solve(rhs[:2])


@pytest.mark.parametrize("kind", ["banded", "dense"])
def test_forward_solve_applies_the_inverse_factor(kind):
    rng = np.random.default_rng(9)
    a = _random_spd_banded(rng, 30, 4)
    L = np.linalg.cholesky(a.toarray())
    rhs = rng.standard_normal((30, 3))
    chol = cholesky(a if kind == "banded" else a.toarray())
    npt.assert_allclose(chol.solve(rhs, forward=True), np.linalg.solve(L, rhs),
                        rtol=1e-12, atol=1e-12)
    # no rhs scan: a non-finite rhs gives a non-finite result, no error
    assert np.isnan(chol.solve(np.full(30, np.nan), forward=True)).all()
    with pytest.raises(ValueError, match="leading dimension 29, expected 30"):
        chol.solve(rhs[1:], forward=True)


def test_kron_apply_identity():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(25)
    npt.assert_allclose(kron_apply(np.eye(5), np.eye(5), v), v)


def test_kron_apply_matches_dense_kron():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5))
    v = rng.standard_normal(25)
    ref = np.kron(A, B) @ v
    npt.assert_allclose(kron_apply(A, B, v), ref, atol=1e-12)


def test_kron_apply_rectangular():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((7, 4))
    B = rng.standard_normal((6, 3))
    v = rng.standard_normal(12)
    npt.assert_allclose(kron_apply(A, B, v), np.kron(A, B) @ v, atol=1e-12)


def test_kron_apply_mixed_product_order():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5))
    v = rng.standard_normal(25)
    one = kron_apply(A, np.eye(5), kron_apply(np.eye(5), B, v))
    two = kron_apply(np.eye(5), B, kron_apply(A, np.eye(5), v))
    npt.assert_allclose(one, two, atol=1e-12)
    npt.assert_allclose(one, kron_apply(A, B, v), atol=1e-12)


def test_kron_apply_rejects_bad_length():
    with pytest.raises(ValueError):
        kron_apply(np.eye(3), np.eye(3), np.ones(8))


def _persymmetric_pair(rng, m):
    """Random SPD M and B that commute with the mirror J, as X + J X J."""
    X, Y = rng.standard_normal((2, m, m))
    M = X @ X.T + m * np.eye(m)
    B = Y @ Y.T + 0.1 * np.eye(m)
    return M + M[::-1, ::-1], B + B[::-1, ::-1]


def test_kron_sum_solver_matches_dense_inverse():
    rng = np.random.default_rng(14)
    for m in (6, 7):                    # odd m has an unpaired middle index
        M, B = _persymmetric_pair(rng, m)
        r = rng.standard_normal(m * m)
        ref = np.linalg.solve(np.kron(M, B) + np.kron(B, M), r)
        got = KronSumSolver.build(M, B, "pair").solve(r)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_kron_sum_solver_refuses_a_pair_that_is_not_persymmetric():
    rng = np.random.default_rng(14)
    X, Y = rng.standard_normal((2, 6, 6))
    M = X @ X.T + 6 * np.eye(6)
    B = Y @ Y.T + 0.1 * np.eye(6)
    with pytest.raises(ValueError, match="^pair not persymmetric: mirror "
                       "defect .* > 1e-09$"):
        KronSumSolver.build(M, B, "pair")


@pytest.mark.parametrize("m", [1, 6, 7])
def test_kron_sum_solver_runs_two_half_size_eigensolves(monkeypatch, m):
    orders = []

    def spy(A, B, what="B", **kw):
        orders.append(len(A))
        return generalized_eigh(A, B, what, **kw)

    monkeypatch.setattr(linalg, "generalized_eigh", spy)
    KronSumSolver.build(*_persymmetric_pair(np.random.default_rng(3), m),
                        "pair")
    assert orders == [(m + 1) // 2, m // 2]


def test_kron_sum_solver_rejects_non_spd_sums():
    M = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NotSPDError, match="^pair not SPD"):
        KronSumSolver.build(M, -M, "pair")          # every lam_i + lam_j = -2
    with pytest.raises(NotSPDError, match="^pair not SPD"):
        KronSumSolver.build(M, np.diag([1.0, 1.0, -3.0]), "pair")
    with pytest.raises(NotSPDError, match="^pair \\(mass factor\\) not SPD"):
        KronSumSolver.build(np.diag([1.0, -1.0, 1.0]), M, "pair")


def test_generalized_eig_max_trivial():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    B = q @ np.diag(rng.uniform(0.5, 2.0, 6)) @ q.T
    assert abs(generalized_eig_max(B, B) - 1.0) <= 1e-10
    assert abs(generalized_eig_max(2 * np.eye(4), np.eye(4)) - 2.0) <= 1e-12
    assert abs(generalized_eig_max(np.diag([1.0, 5.0, 3.0]), np.eye(3)) - 5.0) <= 1e-12


def test_generalized_eig_max_congruence_invariant():
    rng = np.random.default_rng(11)
    n = 8
    A = rng.standard_normal((n, n)); A = A + A.T
    B = rng.standard_normal((n, n)); B = B @ B.T + n * np.eye(n)
    C = rng.standard_normal((n, n)) + n * np.eye(n)
    lam = generalized_eig_max(A, B)
    lam_c = generalized_eig_max(C.T @ A @ C, C.T @ B @ C)
    assert abs(lam - lam_c) <= 1e-8 * (1 + abs(lam))


def test_generalized_eig_max_rejects_indefinite_B():
    with pytest.raises(NotSPDError):
        generalized_eig_max(np.eye(2), np.diag([1.0, -1.0]))


def test_operator_norm_identity_and_diag():
    assert abs(operator_norm(np.eye(5)) - 1.0) <= 1e-8
    assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) <= 1e-8


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((6, 6))
    ref = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(operator_norm(M) - ref) <= 1e-6 * ref
    # clustered top of the spectrum: a power iteration stalls here
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    C = q @ np.diag(np.r_[1.0, 0.999, np.linspace(0.5, 0.01, 38)]) @ q.T
    assert abs(operator_norm(C) - 1.0) <= 1e-12


def _random_band(m, p, seed):
    i, j = np.indices((m, m))
    a = np.random.default_rng(seed).standard_normal((m, m))
    return np.where(np.abs(i - j) <= p, a, 0.0)


def _symmetric_band(m, b, seed):
    """A random symmetric band of half-width b as a window band."""
    a = _random_band(m, b, seed)
    band = BandedSymMatrix.from_dense(a + a.T, b)
    return WindowBandMatrix.from_band(band), band.toarray()


def _zero_row_block():
    # a non-symmetric band whose second row block is all zero
    a = _random_band(3 * BLOCK_ROWS + 5, 3, 2)
    a[BLOCK_ROWS:2 * BLOCK_ROWS] = 0.0
    rows, cols = np.nonzero(a)
    window = (-3, BLOCK_ROWS, BLOCK_ROWS + 6)
    B = WindowBandMatrix.from_entries(a.shape, rows, cols, a[rows, cols],
                                      *window)
    B.T = WindowBandMatrix.from_entries(a.shape, cols, rows, a[rows, cols],
                                        *window)
    assert not B.blocks[1].any() and B.T.blocks[1].any()
    return B, a


def _embedding(p, coarse_level):
    coarse, fine = build_space(p, coarse_level), build_space(p, coarse_level + 1)
    return (window_embedding(coarse, fine),
            build_prolongation(coarse, fine).toarray())


CASES = {
    "not-a-multiple": lambda: _symmetric_band(2 * BLOCK_ROWS + 6, 3, 0),
    "below-one-block": lambda: _symmetric_band(BLOCK_ROWS - 3, 2, 1),
    "zero-row-block": _zero_row_block,
    "prolongation": lambda: _embedding(4, 5),
    **{f"half-width-{b}": (lambda b=b: _symmetric_band(3 * BLOCK_ROWS + 1, b, b))
       for b in range(4)},
    "p1": lambda: _embedding(1, 4),
    "p15": lambda: _embedding(15, 5),
    # the fine space is tight, n = p + 1
    "tight-p1": lambda: _embedding(1, 0),
    "tight-p15": lambda: _embedding(15, 3),
}


@pytest.mark.parametrize("case", CASES)
def test_block_band_product_matches_dense(case):
    B, a = CASES[case]()
    rng = np.random.default_rng(3)
    for op, dense in ((B, a), (B.T, a.T)):
        n = dense.shape[1]
        operands = (rng.standard_normal((n, 7)),       # C-contiguous
                    rng.standard_normal((9, n)).T,     # transposed, strided
                    rng.standard_normal(n))
        for x in operands:
            ref = dense @ x
            got = op @ x
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_block_band_symmetric_matrix_is_its_own_transpose():
    B, _ = _symmetric_band(40, 2, 4)
    assert B.T is B
    P, _ = _embedding(3, 3)
    assert P.T is not P and P.T.T is P


def test_window_band_rejects_a_nonzero_outside_its_window():
    a = _random_band(20, 2, 5)
    rows, cols = np.nonzero(a)
    with pytest.raises(ValueError, match="outside its window"):
        # the window of a half-width-1 band
        WindowBandMatrix.from_entries(a.shape, rows, cols, a[rows, cols],
                                      -1, BLOCK_ROWS, BLOCK_ROWS + 2)
    with pytest.raises(ValueError, match="outside its window"):
        window_embedding(build_space(3, 3), build_space(3, 5))   # ratio 4
