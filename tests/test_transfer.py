import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import binom

from splinemg import build_space, assemble_1d, eval_spline, \
    build_hierarchy, build_prolongation, prolong, restrict, prolong_2d, \
    restrict_2d, kron_apply
from splinemg.linalg import butterfly, butterfly_T, butterfly_weight
from splinemg.transfer import parity_embedding, window_embedding


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


def _parity_oracle(P):
    """CSR data, indices and indptr of P~ = D_f^2 G_f^T P G_c, entry by entry
    from the top rows of a persymmetric CSR P: each entry P[a, j] lands in
    G_c's column min(j, m_c-1-j) unsummed, in the even block as itself
    (halved in the middle row of odd m_f, doubled in the middle column of
    odd m_c), in the odd block negated past the middle column (none in the
    middle column of odd m_c). Powers of two and signs: no rounding."""
    mf, mc = P.shape
    hc, middle = (mc + 1) // 2, mc // 2 if mc % 2 else -1
    data, indices, indptr = [], [], [0]
    for block, rows in (("even", range((mf + 1) // 2)),
                        ("odd", range(mf // 2))):
        for a in rows:
            for j, v in zip(P.indices[P.indptr[a]:P.indptr[a + 1]],
                            P.data[P.indptr[a]:P.indptr[a + 1]]):
                col = min(j, mc - 1 - j)
                if block == "even":
                    v = v / 2 if mf % 2 and a == mf // 2 else v
                    data.append(2 * v if j == middle else v)
                    indices.append(col)
                elif j != middle:
                    data.append(-v if j > col else v)
                    indices.append(hc + col)
            indptr.append(len(data))
    return np.array(data), np.array(indices), np.array(indptr)


def _assert_parity_embedding(E, P, seed):
    """E holds P~ bit for bit, with its CSR transpose, and P~ reproduces P
    through the butterflies elementwise: G_f P~ G_c^-1 c = P c and
    G_c^-T P~^T G_f^T f = P^T f (G^-1 = D^2 G^T), each entry within
    16 eps of its bound |P| (|v| + J|v|), the rounding of the folds in
    P's terms and their mirrors."""
    assert E.matrix.shape == P.shape and E.T.format == "csr"
    for got, ref in zip((E.matrix.data, E.matrix.indices, E.matrix.indptr),
                        _parity_oracle(P)):
        npt.assert_array_equal(got, ref)
    ref = E.matrix.T.tocsr()        # SciPy's transpose of P~, bit for bit
    for got, want in zip((E.T.data, E.T.indices, E.T.indptr),
                         (ref.data, ref.indices, ref.indptr)):
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)
    npt.assert_array_equal(E.T.toarray(), E.matrix.toarray().T)
    rng = np.random.default_rng(seed)
    mf, mc = P.shape
    c, f = rng.standard_normal(mc), rng.standard_normal(mf)
    eps, absP = np.finfo(float).eps, abs(P)
    for got, ref, bound in [
            (butterfly(prolong(E, butterfly_weight(mc) * butterfly_T(c))),
             prolong(P, c), absP @ (abs(c) + abs(c[::-1]))),
            (butterfly(butterfly_weight(mc) * restrict(E, butterfly_T(f))),
             restrict(P, f), absP.T @ (abs(f) + abs(f[::-1])))]:
        assert np.all(abs(got - ref) <= 16 * eps * bound)


def test_sparse_embedding_holds_the_restriction():
    # a 1D level holds P~ = G_f^-1 P G_c, the CSR P in the levels'
    # coordinates, with its CSR transpose, built in setup
    co, fi = _pair(4, 4)
    _assert_parity_embedding(build_hierarchy(1, 4, 4, 5).finest.P,
                             build_prolongation(co, fi), 10)


# n0 = 1 keeps m_c and m_f at p's parity, n0 = 3 on level 0 gives them
# opposite parities: every pairing of odd and even middles
@pytest.mark.parametrize("p,level,n0", [(3, 3, 1), (4, 3, 1), (2, 0, 3),
                                        (5, 0, 3), (15, 2, 1), (8, 1, 3)])
def test_parity_embedding_is_exact_from_the_top_rows(p, level, n0):
    co, fi = build_space(p, level, n0), build_space(p, level + 1, n0)
    _assert_parity_embedding(parity_embedding(co, fi),
                             build_prolongation(co, fi), p)


@pytest.mark.parametrize("transfer, size, expected", [
    (prolong, 5, 6), (restrict, 8, 10), (prolong_2d, 35, 36),
    (restrict_2d, 99, 100)])
def test_transfers_name_the_shape_and_the_expected_length(
        transfer, size, expected):
    pair = _pair(2, 2)                              # P is 10 x 6
    P = window_embedding(*pair) if transfer in (prolong_2d, restrict_2d) \
        else build_prolongation(*pair)
    with pytest.raises(ValueError, match=rf"^vector of shape \({size},\), "
                                         rf"expected \({expected},\)$"):
        transfer(P, np.ones(size))


@pytest.mark.parametrize("p,level", [(1, 3), (2, 2), (3, 2), (5, 3)])
def test_galerkin_identity_all_matrices(p, level):
    co, fi = _pair(p, level)
    P = build_prolongation(co, fi)
    dc, df = assemble_1d(co), assemble_1d(fi)
    for name in ("M", "K", "A"):
        fine = getattr(df, name).sparse
        coarse = getattr(dc, name).toarray()
        proj = (P.T @ fine @ P).toarray()
        scale = np.abs(coarse).max()
        assert np.abs(proj - coarse).max() <= 1e-12 * scale, name


def _oslo_row(t, p, tau, i, mu):
    """Row i of the knot insertion matrix by the scalar Oslo recurrence."""
    row = np.zeros(p + 1)
    row[0] = 1.0
    for r in range(1, p + 1):
        x = tau[i + r]
        saved = 0.0
        for s in range(r):
            tl, tr = t[mu - r + 1 + s], t[mu + 1 + s]
            tmp = row[s] / (tr - tl)
            row[s] = saved + (tr - x) * tmp
            saved = (x - tl) * tmp
        row[r] = saved
    return row


@pytest.mark.parametrize("p,level,k", [
    pytest.param(p, level, 1, id=f"{p}-{level}") for p, level in [
        (1, 3), (2, 1), (4, 4), (9, 5), (15, 4),
        # at or above the reference size: rows copied from the template
        (3, 8), (15, 7), (30, 8),
        (40, 6)]                     # n_c = 64 < 2p + 5: the recurrence
] + [pytest.param(5, 5, 3, id="5-5-ratio8"),
     pytest.param(8, 4, 4, id="8-4-ratio16")])    # the verify proxy pair
def test_prolongation_equals_row_by_row_oslo(p, level, k):
    co, fi = build_space(p, level), build_space(p, level + k)
    P = build_prolongation(co, fi)
    ref = np.zeros((fi.dim, co.dim))
    for i in range(fi.dim):
        mu = p + min(int(fi.knots[i] * co.intervals), co.intervals - 1)
        ref[i, mu - p:mu + 1] = _oslo_row(co.knots, p, fi.knots, i, mu)
    npt.assert_array_equal(P.toarray(), ref)     # same arithmetic, bitwise
    assert P.nnz == np.count_nonzero(ref)        # no stored zeros


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        build_prolongation(build_space(2, 1), build_space(3, 2))


@pytest.mark.parametrize("coarse, fine", [
    ((2, 2), (2, 1)),          # the "coarse" space is the finer one
    ((2, 1), (2, 1)),          # no refinement
    ((2, 0, 2), (2, 0, 6)),    # 3x the intervals: not 2^k
], ids=["coarse-finer", "same", "ratio-3"])
def test_non_nested_pair_rejected(coarse, fine):
    with pytest.raises(ValueError, match="dyadic"):
        build_prolongation(build_space(*coarse), build_space(*fine))


@pytest.mark.parametrize("p", [1, 2, 5, 11])
@pytest.mark.parametrize("k", [2, 4])
def test_multi_level_embedding_is_product_of_steps(p, k):
    coarse = build_space(p, 1)
    steps = np.eye(coarse.dim)
    for lev in range(1, 1 + k):
        steps = build_prolongation(build_space(p, lev),
                                   build_space(p, lev + 1)) @ steps
    P = build_prolongation(coarse, build_space(p, 1 + k)).toarray()
    npt.assert_allclose(P, steps, rtol=0, atol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_embedding_exact_when_intervals_not_power_of_two(p, k):
    # 3 * 2^l intervals: knots such as 7 * (1/24) round below their
    # breakpoint, so the coarse span must not come from floor(x * n)
    rng = np.random.default_rng(p)
    co, fi = build_space(p, 2, 3), build_space(p, 2 + k, 3)
    c = rng.standard_normal(co.dim)
    fc = build_prolongation(co, fi) @ c
    for x in np.linspace(0.0, 1.0, 97):
        assert abs(eval_spline(fi, fc, float(x)) -
                   eval_spline(co, c, float(x))) <= 1e-13


def test_2d_transfer_matches_dense_kron():
    rng = np.random.default_rng(4)
    co, fi = _pair(2, 1)  # fine dim 6 <= 8
    P = build_prolongation(co, fi)
    E = window_embedding(co, fi)
    dense = np.kron(P.toarray(), P.toarray())
    assert E.matrix.shape == dense.shape
    c = rng.standard_normal(co.dim ** 2)
    npt.assert_allclose(prolong_2d(E, c), dense @ c, atol=1e-12)
    f = rng.standard_normal(fi.dim ** 2)
    npt.assert_allclose(restrict_2d(E, f), dense.T @ f, atol=1e-12)


def test_2d_transfer_agrees_with_kron_apply():
    rng = np.random.default_rng(5)
    co, fi = _pair(3, 1)
    P = build_prolongation(co, fi)
    E = window_embedding(co, fi)
    c = rng.standard_normal(co.dim ** 2)
    npt.assert_allclose(prolong_2d(E, c),
                        kron_apply(P, P, c), atol=1e-13)
    f = rng.standard_normal(fi.dim ** 2)
    npt.assert_allclose(restrict_2d(E, f),
                        kron_apply(P.T, P.T, f), atol=1e-13)
