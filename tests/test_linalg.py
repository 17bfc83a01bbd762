import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

import scipy.sparse

from splinemg import BandedSymMatrix, KronSumSolver, NotSPDError, cholesky, \
    kron_apply, generalized_eig_max, operator_norm, build_space, assemble_1d, \
    build_prolongation, build_smoother_1d, build_hierarchy, \
    min_smoother_level, prolong, restrict
from splinemg import linalg
from splinemg.linalg import BLOCK_ROWS, CholeskyFactor, WindowBandMatrix, \
    WindowKron, csr_transpose, generalized_eigh
from splinemg.transfer import window_embedding


def _random_spd_banded(rng, m, b):
    a = BandedSymMatrix(m, b, np.zeros((b + 1, m)))
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


def _dense_band(order, bands):
    """The symmetric matrix of lower band storage, diagonal by diagonal."""
    a = np.zeros((order, order))
    for k in range(min(len(bands), order)):
        a += np.diag(bands[k, :order - k], -k)
        a += np.diag(bands[k, :order - k], k) if k else 0.0
    return a


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 40), data=st.data())
def test_band_apply_matches_the_dense_product(order, data):
    # every storage entry is drawn, the ignored ones past the matrix too
    bandwidth = data.draw(st.integers(0, order + 2), label="bandwidth")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bands = rng.standard_normal((bandwidth + 1, order))
    bands[rng.random(bands.shape) < data.draw(st.sampled_from(
        [0.0, 0.3, 1.0]), label="zero share")] = 0.0
    a = BandedSymMatrix(order, bandwidth, bands)
    dense = _dense_band(order, bands)
    npt.assert_array_equal(a.toarray(), dense)
    for x in (rng.standard_normal(order), rng.standard_normal((order, 2))):
        got = a.apply(x)
        assert got.shape == x.shape
        npt.assert_array_equal(got, a.sparse @ x)   # SciPy's own product
        scale = np.linalg.norm(np.abs(dense) @ np.abs(x))
        assert np.linalg.norm(got - dense @ x) <= 1e-14 * scale
        # a non-finite entry reaches the result, through a zero entry too
        x.flat[data.draw(st.integers(0, x.size - 1), label="entry")] = \
            data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        got = a.apply(x)
        assert not np.isfinite(got).all()
        npt.assert_array_equal(got, a.sparse @ x)


# The 1D cycle's band applies and held transfers call SciPy's compiled DIA
# and CSR kernels through linalg.sparse_matvec, and the held P~^T is built
# by its CSR transposition: SciPy's public @ and .T.tocsr() on the same
# objects are the oracles, so a change to those private kernels fails here.

@pytest.mark.parametrize("p", range(1, 39))
def test_kernel_products_equal_scipy_on_every_1d_level(p):
    h = build_hierarchy(1, p, min_smoother_level(p) - 1, 10)
    rng = np.random.default_rng(p)
    for lvl in h.levels:
        x = rng.standard_normal(lvl.op.order)
        npt.assert_array_equal(lvl.op.apply(x), lvl.op.sparse @ x)
        if lvl.P is not None:
            c = rng.standard_normal(lvl.P.shape[1])
            npt.assert_array_equal(restrict(lvl.P, x), lvl.P.T @ x)
            npt.assert_array_equal(prolong(lvl.P, c), lvl.P.matrix @ c)


def test_kernel_inputs_name_a_wrong_length_and_cast_as_scipy_does():
    # the kernels read raw pointers: a wrong length is refused by name, and
    # any other dtype or a strided view is cast to a C-contiguous float64
    # copy, which gives the bits of SciPy's @ on the same input
    lvl = build_hierarchy(1, 3, 2, 6).finest
    A, P = lvl.op, lvl.P
    calls = [(A.apply, A.sparse), (lambda v: restrict(P, v), P.T),
             (lambda v: prolong(P, v), P.matrix)]
    rng = np.random.default_rng(4)
    for call, oracle in calls:
        n = oracle.shape[1]
        for size in (0, n - 1, n + 1):
            with pytest.raises(ValueError, match=rf"^vector of shape "
                                                 rf"\({size},\), expected \({n},\)$"):
                call(np.ones(size))
        base = rng.standard_normal(2 * n)
        for x in (base[:n].astype(np.float32), rng.integers(-9, 9, n),
                  base[::2], base[::-2], base[1::2].astype(np.float32)):
            got = call(x)
            assert got.dtype == np.float64
            npt.assert_array_equal(got, oracle @ x)


@pytest.mark.parametrize("shape,density,index", [
    ((1, 1), 1.0, np.int32), ((7, 4), 0.4, np.int32), ((5, 9), 0.0, np.int32),
    ((30, 17), 0.2, np.int64), ((17, 30), 0.6, np.int32)])
def test_csr_transpose_holds_the_arrays_of_scipys(shape, density, index):
    a = scipy.sparse.random(*shape, density, "csr", rng=np.random.default_rng(
        shape[0]))
    a.indices, a.indptr = a.indices.astype(index), a.indptr.astype(index)
    got, ref = csr_transpose(a), a.T.tocsr()
    assert got.format == "csr" and got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(ref, name).dtype, name
        npt.assert_array_equal(getattr(got, name), getattr(ref, name))


def _smoother_factors(p, level):
    sm = build_smoother_1d(assemble_1d(build_space(p, level)), 0.14)
    return [sm.L_eff_solver, sm.L_solver]


BAND_FACTORS = {
    **{f"random-m{m}-b{b}": (lambda m=m, b=b: [cholesky(_random_spd_banded(
        np.random.default_rng(m), m, b))]) for m, b in
       [(1, 0), (2, 1), (20, 2), (57, 5), (200, 10)]},
    **{f"smoother-p{p}-l{level}": (lambda p=p, level=level:
                                  _smoother_factors(p, level))
       for p, level in [(1, 6), (3, 9), (8, 9), (15, 6), (30, 9), (34, 9),
                        (38, 6), (38, 9)]},
}


@pytest.mark.parametrize("case", BAND_FACTORS)
def test_band_solve_matches_pbtrs(case):
    # the back substitution runs untransposed on L^T's upper band storage,
    # pbtrs's transposed on L: both sum in their own order, so their
    # results differ by rounding that the factor's condition scales
    rng = np.random.default_rng(7)
    for chol in BAND_FACTORS[case]():
        m, b = chol.order, len(chol.factor) - 1
        L = np.tril(BandedSymMatrix(m, b, chol.factor).toarray())
        bound = max(1e-13, 1e-16 * np.linalg.cond(L))
        for rhs in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            ref = lapack.dpbtrs(chol.factor, rhs, lower=1)[0]
            got = chol.solve(rhs)
            assert got.shape == rhs.shape
            assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)
            residual = np.linalg.norm(L @ (L.T @ got) - rhs, np.inf)
            assert residual <= 1e-15 * np.linalg.norm(L @ L.T, np.inf) * \
                np.linalg.norm(got, np.inf)
            npt.assert_array_equal(chol.solve(rhs, forward=True),
                                   lapack.dtbtrs(chol.factor, rhs, uplo="L")[0])


@pytest.mark.parametrize("case", BAND_FACTORS)
def test_upper_storage_is_the_shifted_lower_band(case):
    # L^T's upper band storage, read straight from L's rows, holds what
    # rows b ... 2b of L's diagonals() hold, last first: that construction,
    # kept as the oracle, bit for bit; also for an order below the bandwidth
    rng = np.random.default_rng(5)
    for chol in BAND_FACTORS[case]() + [
            CholeskyFactor("banded", m, rng.standard_normal((b + 1, m)))
            for m, b in [(1, 3), (2, 5), (4, 4), (6, 2)]]:
        b = len(chol.factor) - 1
        assert chol.upper.flags.f_contiguous
        npt.assert_array_equal(chol.upper, BandedSymMatrix(
            chol.order, b, chol.factor).diagonals()[b:][::-1])


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


def test_kron_sum_solver_names_the_expected_length():
    M, B = _persymmetric_pair(np.random.default_rng(2), 7)
    solver = KronSumSolver.build(M, B, "pair")
    for rhs in (np.ones(48), np.ones(50), np.ones((7, 7))):
        with pytest.raises(ValueError, match=r"^vector of shape \(.*\), "
                           r"expected \(49,\)$"):
            solver.solve(rhs)


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
    """A random symmetric band of half-width b as a window band; its
    storage holds NaN past the matrix, which no product may read."""
    a = _random_band(m, b, seed)
    band = BandedSymMatrix.from_dense(a + a.T, b)
    for k in range(1, b + 1):
        band.bands[k, m - k:] = np.nan
    return WindowBandMatrix.from_band(band), band.toarray()


def _square(m, b, seed):
    """B (x) B of a symmetric band B."""
    B, a = _symmetric_band(m, b, seed)
    return [(WindowKron(B, B), np.kron(a, a))]


def _zero_row_block():
    # a non-symmetric band whose second row block is all zero, its
    # transpose, and both mixed
    a = _random_band(3 * BLOCK_ROWS + 5, 3, 2)
    a[BLOCK_ROWS:2 * BLOCK_ROWS] = 0.0
    rows, cols = np.nonzero(a)
    window = (-3, BLOCK_ROWS, BLOCK_ROWS + 6)
    B = WindowBandMatrix.from_entries(a.shape, rows, cols, a[rows, cols],
                                      *window)
    BT = WindowBandMatrix.from_entries(a.shape, cols, rows, a[rows, cols],
                                       *window)
    assert not B.blocks[1].any() and BT.blocks[1].any()
    return [(WindowKron(L, R), np.kron(x, y)) for L, x in ((B, a), (BT, a.T))
            for R, y in ((B, a), (BT, a.T))]


def _embedding(p, coarse_level):
    """P (x) P and P^T (x) P^T of a window embedding."""
    coarse, fine = build_space(p, coarse_level), build_space(p, coarse_level + 1)
    E, P = window_embedding(coarse, fine), \
        build_prolongation(coarse, fine).toarray()
    return [(E.matrix, np.kron(P, P)), (E.T, np.kron(P.T, P.T))]


def _stacked():
    # sum_i L_i (x) R_i, R_i stacked on shared windows and L_i's columns
    # interleaved, as the 2D operator holds K (x) M + M (x) A
    (L1, l1), (L2, l2), (R1, r1), (R2, r2) = (
        _symmetric_band(2 * BLOCK_ROWS + 5, 2, seed) for seed in range(4))
    m, (count, rows, width) = len(l1), L1.blocks.shape
    L = WindowBandMatrix((m, 2 * m), 2 * L1.lo, 2 * L1.stride,
                         np.stack([L1.blocks, L2.blocks], axis=3)
                         .reshape(count, rows, 2 * width))
    return [(WindowKron(L, R1, np.stack([R1.blocks, R2.blocks], axis=1)),
             np.kron(l1, r1) + np.kron(l2, r2))]


CASES = {
    "not-a-multiple": lambda: _square(2 * BLOCK_ROWS + 6, 3, 0),
    "below-one-block": lambda: _square(BLOCK_ROWS - 3, 2, 1),
    "zero-row-block": _zero_row_block,
    "prolongation": lambda: _embedding(4, 5),
    **{f"half-width-{b}": (lambda b=b: _square(3 * BLOCK_ROWS + 1, b, b))
       for b in range(4)},
    "p1": lambda: _embedding(1, 4),
    "p15": lambda: _embedding(15, 5),
    # the fine space is tight, n = p + 1
    "tight-p1": lambda: _embedding(1, 0),
    "tight-p15": lambda: _embedding(15, 3),
    "stacked-blocks": _stacked,
}


@pytest.mark.parametrize("case", CASES)
def test_block_band_product_matches_dense(case):
    rng = np.random.default_rng(3)
    for product, dense in CASES[case]():
        assert product.shape == dense.shape
        v = rng.standard_normal(dense.shape[1])
        for x in (v, v[::-1]):                  # contiguous, reversed view
            ref = dense @ x
            got = product @ x
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_window_band_rejects_a_nonzero_outside_its_window():
    a = _random_band(20, 2, 5)
    rows, cols = np.nonzero(a)
    with pytest.raises(ValueError, match="outside its window"):
        # the window of a half-width-1 band
        WindowBandMatrix.from_entries(a.shape, rows, cols, a[rows, cols],
                                      -1, BLOCK_ROWS, BLOCK_ROWS + 2)
    with pytest.raises(ValueError, match="outside its window"):
        window_embedding(build_space(3, 3), build_space(3, 5))   # ratio 4
