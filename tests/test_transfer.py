import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import binom

from splinemg import build_space, assemble_1d, eval_spline, \
    build_prolongation, prolong, restrict, prolong_2d, restrict_2d, kron_apply


def _pair(p, level):
    return build_space(p, level), build_space(p, level + 1)


def test_p1_interior_stencil():
    co, fi = _pair(1, 2)
    P = build_prolongation(co, fi).toarray()
    j = co.dim // 2
    col = P[:, j]
    nz = col[col != 0]
    npt.assert_allclose(nz, [0.5, 1.0, 0.5])


@pytest.mark.parametrize("p", [2, 3, 4])
def test_interior_columns_match_subdivision_mask(p):
    # interior columns carry the two-scale mask 2^-p * binom(p+1, k)
    co, fi = _pair(p, 3)
    P = build_prolongation(co, fi).toarray()
    mask = np.array([binom(p + 1, k) for k in range(p + 2)]) / 2.0**p
    j = co.dim // 2
    col = P[:, j]
    nz = col[np.abs(col) > 1e-14]
    npt.assert_allclose(nz, mask, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_constants_reproduced(p):
    co, fi = _pair(p, 2)
    P = build_prolongation(co, fi)
    npt.assert_allclose(prolong(P, np.ones(co.dim)), np.ones(fi.dim),
                        atol=1e-14)


@pytest.mark.parametrize("p,level", [(1, 2), (2, 2), (3, 3), (4, 2)])
def test_prolongation_pointwise_exact(p, level):
    rng = np.random.default_rng(p)
    co, fi = _pair(p, level)
    P = build_prolongation(co, fi)
    c = rng.standard_normal(co.dim)
    fc = prolong(P, c)
    for x in rng.uniform(0, 1, 50):
        assert abs(eval_spline(fi, fc, float(x)) -
                   eval_spline(co, c, float(x))) <= 1e-13


def test_restrict_is_adjoint():
    rng = np.random.default_rng(9)
    co, fi = _pair(3, 2)
    P = build_prolongation(co, fi)
    c = rng.standard_normal(co.dim)
    f = rng.standard_normal(fi.dim)
    assert abs(prolong(P, c) @ f - c @ restrict(P, f)) <= 1e-13 * (
        1 + abs(c @ restrict(P, f)))


@pytest.mark.parametrize("p,level", [(1, 3), (2, 2), (3, 2), (5, 3)])
def test_galerkin_identity_all_matrices(p, level):
    co, fi = _pair(p, level)
    P = build_prolongation(co, fi)
    dc, df = assemble_1d(co), assemble_1d(fi)
    for name in ("M", "K", "A"):
        fine = getattr(df, name).tocsr()
        coarse = getattr(dc, name).toarray()
        proj = (P.T @ fine @ P).toarray()
        scale = np.abs(coarse).max()
        assert np.abs(proj - coarse).max() <= 1e-12 * scale, name


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        build_prolongation(build_space(2, 1), build_space(3, 2))


def test_non_dyadic_rejected():
    with pytest.raises(ValueError, match="dyadic"):
        build_prolongation(build_space(2, 1), build_space(2, 3))


def test_2d_transfer_matches_dense_kron():
    rng = np.random.default_rng(4)
    co, fi = _pair(2, 1)  # fine dim 6 <= 8
    P = build_prolongation(co, fi)
    dense = np.kron(P.toarray(), P.toarray())
    c = rng.standard_normal(co.dim ** 2)
    npt.assert_allclose(prolong_2d(P, c), dense @ c, atol=1e-12)
    f = rng.standard_normal(fi.dim ** 2)
    npt.assert_allclose(restrict_2d(P, f), dense.T @ f, atol=1e-12)


def test_2d_transfer_agrees_with_kron_apply():
    rng = np.random.default_rng(5)
    co, fi = _pair(3, 1)
    P = build_prolongation(co, fi)
    c = rng.standard_normal(co.dim ** 2)
    npt.assert_allclose(prolong_2d(P, c),
                        kron_apply(P, P, c), atol=1e-13)
