import numpy as np
import numpy.testing as npt
import pytest

from splinemg import build_space, assemble_1d, operator_2d, \
    apply_operator_2d, assemble_load, eval_basis
from splinemg.assembly import _span_quadrature


def test_mass_p1_n2_analytic():
    disc = assemble_1d(build_space(1, 1))
    h = 0.5
    ref = h * np.array([[1/3, 1/6, 0], [1/6, 2/3, 1/6], [0, 1/6, 1/3]])
    npt.assert_allclose(disc.M.toarray(), ref, atol=1e-15)


def test_stiffness_p1_n2_analytic():
    disc = assemble_1d(build_space(1, 1))
    h = 0.5
    ref = (1 / h) * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    npt.assert_allclose(disc.K.toarray(), ref, atol=1e-13)


@pytest.mark.parametrize("p,level", [(1, 3), (2, 2), (3, 3), (5, 2)])
def test_stiffness_kernel_is_constants(p, level):
    disc = assemble_1d(build_space(p, level))
    ones = np.ones(disc.space.dim)
    scale = np.abs(disc.K.bands).max()
    assert np.abs(disc.K.apply(ones)).max() <= 1e-12 * scale


@pytest.mark.parametrize("p,level", [(1, 2), (2, 3), (4, 2), (6, 2)])
def test_quadrature_exactness(p, level):
    sp = build_space(p, level)
    d1 = assemble_1d(sp)
    d2 = assemble_1d(sp, quad_nodes=2 * (p + 1))
    npt.assert_allclose(d1.M.bands, d2.M.bands, atol=1e-14)
    npt.assert_allclose(d1.K.bands, d2.K.bands, atol=1e-11)


@pytest.mark.parametrize("p,level", [(1, 3), (3, 3), (5, 2)])
def test_mass_total_and_row_sums(p, level):
    disc = assemble_1d(build_space(p, level))
    Md = disc.M.toarray()
    assert abs(Md.sum() - 1.0) <= 1e-13
    assert np.all(Md.sum(axis=1) > 0)  # row sums are basis integrals


def test_system_matrix_is_sum():
    disc = assemble_1d(build_space(3, 2))
    npt.assert_allclose(disc.A.bands, disc.M.bands + disc.K.bands)


def test_mass_spd_and_stiffness_psd():
    disc = assemble_1d(build_space(4, 2))
    evM = np.linalg.eigvalsh(disc.M.toarray())
    evK = np.linalg.eigvalsh(disc.K.toarray())
    assert evM.min() > 0
    assert evK.min() >= -1e-12 * evK.max()
    assert np.linalg.eigvalsh(disc.A.toarray()).min() > 0


def test_operator_2d_matches_dense_kron():
    rng = np.random.default_rng(0)
    disc = assemble_1d(build_space(2, 0, 3))  # m = 5
    op = operator_2d(disc)
    K, M = disc.K.toarray(), disc.M.toarray()
    dense = np.kron(K, M) + np.kron(M, K) + np.kron(M, M)
    v = rng.standard_normal(25)
    npt.assert_allclose(apply_operator_2d(op, v), dense @ v, atol=1e-12)
    npt.assert_array_equal(op.toarray(), dense)


def test_operator_2d_constant_vector():
    disc = assemble_1d(build_space(3, 2))
    op = operator_2d(disc)
    m = disc.space.dim
    ones = np.ones(m * m)
    got = apply_operator_2d(op, ones)
    M = disc.M.toarray()
    ref = np.kron(M, M) @ ones  # K contributions vanish on constants
    npt.assert_allclose(got, ref, atol=1e-12)


def test_operator_2d_symmetry():
    rng = np.random.default_rng(1)
    disc = assemble_1d(build_space(2, 2))
    op = operator_2d(disc)
    n = op.order
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    left = apply_operator_2d(op, u) @ v
    right = u @ apply_operator_2d(op, v)
    assert abs(left - right) <= 1e-12 * (abs(left) + 1)


def test_operator_2d_positive_definite():
    rng = np.random.default_rng(2)
    disc = assemble_1d(build_space(2, 1))
    op = operator_2d(disc)
    for _ in range(10):
        v = rng.standard_normal(op.order)
        assert apply_operator_2d(op, v) @ v > 0


def test_operator_2d_rejects_bad_length():
    disc = assemble_1d(build_space(2, 1))
    with pytest.raises(ValueError):
        apply_operator_2d(operator_2d(disc), np.ones(7))


def test_load_sums_to_zero_1d():
    load = assemble_load(build_space(3, 3), 1)
    assert abs(load.sum()) <= 1e-12


def test_load_sums_to_zero_2d():
    load = assemble_load(build_space(2, 2), 2)
    assert abs(load.sum()) <= 1e-11


def test_load_matches_high_order_quadrature_oracle():
    # p=2, n=8 against a 64-node Gauss rule per span
    sp = build_space(2, 3)
    load = assemble_load(sp, 1)
    nodes, weights = _span_quadrature(sp, 64)
    ref = np.zeros(sp.dim)
    for span in range(sp.intervals):
        for x, w in zip(nodes[span], weights[span]):
            first, vals = eval_basis(sp, float(x))
            ref[first:first + 3] += w * np.pi**2 * np.cos(np.pi * x) * vals
    npt.assert_allclose(load, ref, atol=1e-10)


def test_load_2d_is_tensor_of_1d_moments():
    sp = build_space(2, 2)
    l1 = assemble_load(sp, 1)
    l2 = assemble_load(sp, 2).reshape(sp.dim, sp.dim)
    # f_2d = 2 pi^2 cos cos, so entries are 2/pi^2 * outer(l1, l1)
    npt.assert_allclose(l2, 2.0 / np.pi**2 * np.outer(l1, l1), atol=1e-13)


def test_load_rejects_bad_dimension():
    with pytest.raises(ValueError):
        assemble_load(build_space(1, 1), 3)
