import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline

from splinemg import build_space, assemble_1d, operator_2d, \
    apply_operator_2d, assemble_load, eval_basis
from splinemg.assembly import _cosine_moments, _quadrature_bands, \
    _span_classes, _span_quadrature


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
    M2, K2 = _quadrature_bands(sp, 2 * (p + 1))
    npt.assert_allclose(d1.M.bands, M2, atol=1e-14)
    npt.assert_allclose(d1.K.bands, K2, atol=1e-11)


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


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_operator_2d_apply_matches_kron_property(p, seed):
    rng = np.random.default_rng(seed)
    for level in range(6):                  # every level with m <= 40
        disc = assemble_1d(build_space(p, level))
        K, M, A = disc.K.toarray(), disc.M.toarray(), disc.A.toarray()
        v = rng.standard_normal(disc.space.dim ** 2)
        ref = (np.kron(K, M) + np.kron(M, A)) @ v
        got = operator_2d(disc).apply(v)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


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
    # the apply itself names the length it needs, before any product
    op = operator_2d(assemble_1d(build_space(8, 7)))
    for v in (np.ones(op.order - 1), np.ones(op.order + 1),
              np.ones((op.order, 1))):
        with pytest.raises(ValueError, match=r"^vector of shape \(.*\), "
                           r"expected \(18496,\)$"):
            op.apply(v)


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


def _node_by_node_moments(space):
    """Cosine moments summed node by node over every span's basis values."""
    p, n, q = space.degree, space.intervals, space.degree + 3
    nodes, weights, classes, vals = _span_classes(space, q, 0)
    wcos = weights * np.cos(np.pi * nodes)
    contrib = sum(wcos[:, k, None] * vals[classes, k, 0] for k in range(q))
    g = np.zeros(space.dim)
    for b in range(p + 1):
        g[b:b + n] += contrib[:, b]
    return g


# n < 2p: every span its own class; n >= 2p: interior spans share one
@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 15])
def test_cosine_moments_match_node_by_node_quadrature(p):
    spaces = [build_space(p, 0, n) for n in range(1, 2 * p + 2)] + \
        [build_space(p, level) for level in (4, 9)]
    for space in spaces:
        ref = _node_by_node_moments(space)
        got = _cosine_moments(space)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _scalar_bands(space, q):
    """_quadrature_bands with its scalar loop over the entries (a, b) of the
    local matrix: the bit-for-bit oracle of the sliced band sums."""
    p, m, n = space.degree, space.dim, space.intervals
    _, weights, classes, vals = _span_classes(space, q, 1)
    bands = np.zeros((2, p + 1, m))
    for order in (0, 1):
        v = vals[:, :, order, :]
        loc = np.einsum("k,cka,ckb->cab", weights[0], v, v)
        for a in range(p + 1):
            for b in range(a + 1):
                bands[order, a - b, b:b + n] += loc[classes, a, b]
    return bands


def _masked_moments(space):
    """_cosine_moments with one boolean mask per span class: the
    bit-for-bit oracle of the run-by-run class products."""
    p, n, q = space.degree, space.intervals, space.degree + 3
    nodes, weights, classes, vals = _span_classes(space, q, 0)
    wcos = weights * np.cos(np.pi * nodes)
    contrib = np.empty((n, p + 1))
    for c, v in enumerate(vals[:, :, 0]):
        spans = classes == c
        contrib[spans] = wcos[spans] @ v
    g = np.zeros(space.dim)
    for b in range(p + 1):
        g[b:b + n] += contrib[:, b]
    return g


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 15, 16, 25, 31, 40])
def test_band_sums_and_moments_are_bitwise_the_scalar_loops(p):
    # n = 3 * 2^l spaces take the quadrature loop at every size
    for level in (0, 1, 2, 3, 5):
        for space in (build_space(p, level), build_space(p, level, 3)):
            assert _quadrature_bands(space, p + 1).tobytes() == \
                _scalar_bands(space, p + 1).tobytes(), (level, "bands")
            assert _cosine_moments(space).tobytes() == \
                _masked_moments(space).tobytes(), (level, "moments")


def _bspline_oracle(space):
    """M, K and load moments by dense Gauss quadrature on scipy B-splines,
    with the knot vector rebuilt from the degree and interval count."""
    p, n = space.degree, space.intervals
    knots = np.concatenate([np.zeros(p), np.linspace(0.0, 1.0, n + 1),
                            np.ones(p)])
    basis = BSpline(knots, np.eye(n + p), p)
    xg, wg = np.polynomial.legendre.leggauss(p + 8)
    x = (np.arange(n)[:, None] + (xg + 1.0) / 2.0).ravel() / n
    w = np.tile(wg / (2.0 * n), n)
    vals, ders = basis(x), basis.derivative()(x)
    return (vals.T @ (w[:, None] * vals), ders.T @ (w[:, None] * ders),
            vals.T @ (w * np.pi**2 * np.cos(np.pi * x)))


@pytest.mark.parametrize("p,level,n0", [
    (3, 0, 6),       # n = 2p: every span is a boundary span
    (3, 0, 7),       # n = 2p + 1: one interior span
    (15, 6, 1),      # many interior spans
])
def test_assembly_and_load_match_scipy_bspline_oracle(p, level, n0):
    space = build_space(p, level, n0)
    disc = assemble_1d(space)
    mass, stiff, load = _bspline_oracle(space)
    for got, ref in ((disc.M.toarray(), mass), (disc.K.toarray(), stiff),
                     (assemble_load(space, 1), load)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("p,level", [(1, 2), (3, 4), (8, 7), (15, 6),
                                     (30, 9)])
def test_dyadic_assembly_matches_the_quadrature_generator(p, level):
    # a dyadic space at (n = 4, 16, 64) or above the reference size copies
    # the degree's template: the left corner and the interior are the
    # quadrature loop's bits, the right corner is the left one mirrored
    space = build_space(p, level)
    disc = assemble_1d(space)
    n = space.intervals
    for got, ref in zip((disc.M, disc.K), _quadrature_bands(space, p + 1)):
        npt.assert_array_equal(got.bands[:, :n - p], ref[:, :n - p])
        dense = got.toarray()
        npt.assert_array_equal(dense, dense[::-1, ::-1])    # persymmetric
        assert np.abs(got.bands - ref).max() <= 1e-11 * np.abs(ref).max()


def test_load_2d_is_tensor_of_1d_moments():
    sp = build_space(2, 2)
    l1 = assemble_load(sp, 1)
    l2 = assemble_load(sp, 2).reshape(sp.dim, sp.dim)
    # f_2d = 2 pi^2 cos cos, so entries are 2/pi^2 * outer(l1, l1)
    npt.assert_allclose(l2, 2.0 / np.pi**2 * np.outer(l1, l1), atol=1e-13)


def test_load_rejects_bad_dimension():
    with pytest.raises(ValueError):
        assemble_load(build_space(1, 1), 3)


@pytest.mark.parametrize("d", [True, 2.0])
def test_load_refuses_a_non_integer_dimension(d):
    # True == 1 and 2.0 == 2 used to return the 1D and the 2D load
    with pytest.raises(ValueError,
                       match=rf"^dimension must be an integer, got {d!r}$"):
        assemble_load(build_space(1, 1), d)
