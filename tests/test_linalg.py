import numpy as np
import numpy.testing as npt
import pytest

from splinemg import BandedSymMatrix, NotSPDError, cholesky, kron_apply, \
    generalized_eig_max, operator_norm, build_space, assemble_1d


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


def test_cholesky_identity():
    f = cholesky(np.eye(4))
    npt.assert_allclose(f.toarray(), np.eye(4), atol=1e-15)
    npt.assert_allclose(f.solve(np.arange(4.0)), np.arange(4.0))


def test_cholesky_2x2_hand_elimination():
    f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    npt.assert_allclose(f.toarray(), [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_stiffness_p1_is_spd():
    disc = assemble_1d(build_space(1, 2))  # p=1, n=4
    # K is singular (constants) but A = K + M is SPD
    f = cholesky(disc.A)
    assert np.all(np.diag(f.toarray()) > 0)


def test_cholesky_banded_round_trip_random():
    rng = np.random.default_rng(4)
    for m, b in [(20, 2), (57, 5), (200, 10)]:
        a = _random_spd_banded(rng, m, b)
        f = cholesky(a)
        L = f.toarray()
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
