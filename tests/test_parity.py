"""The coordinates of the mirror butterfly G in which every 1D level is held:
the level operator G^T A G, the prolongation G_f^-1 P G_c, the butterfly
round trips and the residual norm's weight, each against a dense oracle,
and the 1D solvers' answers as vectors, checked with the level's own A."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from splinemg import CycleConfig, assemble_1d, assemble_load, \
    build_hierarchy, build_prolongation, build_space, \
    experiment_initial_guess, min_smoother_level, solve_mg, solve_pcg
from splinemg.linalg import BandedSymMatrix, butterfly, butterfly_T, \
    butterfly_weight, parity_band
from splinemg.solver import _norm
from splinemg.transfer import parity_embedding

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _butterfly(m):
    """Dense G: the even columns e_a + e_{m-1-a} (2 e_k in the middle of odd
    m = 2k + 1), then the odd columns e_a - e_{m-1-a}."""
    h, k = (m + 1) // 2, m // 2
    G = np.zeros((m, m))
    G[np.arange(h), np.arange(h)] += 1.0
    G[m - 1 - np.arange(h), np.arange(h)] += 1.0
    G[np.arange(k), h + np.arange(k)] = 1.0
    G[m - 1 - np.arange(k), h + np.arange(k)] = -1.0
    return G


def _cross_cleared(x, rows, cols):
    """x with its even-odd blocks (first ``rows`` rows and ``cols`` columns
    against the rest) zeroed, and their largest entry."""
    cross = max(np.abs(x[:rows, cols:]).max(initial=0.0),
                np.abs(x[rows:, :cols]).max(initial=0.0))
    x = x.copy()
    x[:rows, cols:] = x[rows:, :cols] = 0.0
    return x, cross


# n = p + extra intervals: m = n + p takes both parities
@PROPERTY
@given(p=st.integers(1, 20), extra=st.integers(1, 3 * 20))
def test_level_operator_is_the_butterflied_band(p, extra):
    disc = assemble_1d(build_space(p, 0, p + extra))
    m = disc.space.dim
    G = _butterfly(m)
    ref, _ = _cross_cleared(G.T @ disc.A.toarray() @ G, (m + 1) // 2,
                            (m + 1) // 2)
    band = parity_band(disc.A, "A")
    assert (band.order, band.bandwidth) == (m, p)
    assert np.abs(band.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def _gathered_operator_band(X):
    """G^T X G's even and odd band from four full gathers of X.entries, as
    tests/test_smoother.py's _gathered_band builds the smoother's band, for
    sigma = 1 and no boundary block: the oracle of the test below."""
    m, p = X.order, X.bandwidth
    h, k = (m + 1) // 2, m // 2
    b = np.arange(h)
    a = b + np.arange(p + 1)[:, None]
    same = X.entries(a, b) + X.entries(m - 1 - a, m - 1 - b)
    cross = X.entries(a, m - 1 - b) + X.entries(m - 1 - a, b)
    band = np.where(a < np.array([h, k])[:, None, None],
                    np.stack([same + cross, same - cross]), 0.0)
    return np.concatenate([band[0], band[1, :, :k]], axis=1)


# m = n + p takes both parities over n = p + 1, p + 2 (where the cross-parity
# terms reach the first column) and n = 64, 65
@pytest.mark.parametrize("p", range(1, 39))
def test_level_operator_band_equals_the_gathered_band(p):
    for n in (p + 1, p + 2, 64, 65):
        A = assemble_1d(build_space(p, 0, n)).A
        npt.assert_array_equal(parity_band(A, "1D system matrix").bands,
                               _gathered_operator_band(A))


# coarse spaces of n_c = 1 ... 9 intervals and their halvings, so both
# m_c = n_c + p and m_f = 2 n_c + p take both parities
@PROPERTY
@given(p=st.integers(1, 20), n=st.integers(1, 9), level=st.integers(0, 3))
def test_prolongation_is_block_diagonal_by_parity(p, n, level):
    coarse, fine = build_space(p, level, n), build_space(p, level + 1, n)
    P = build_prolongation(coarse, fine).toarray()
    mf, mc = P.shape
    ref = butterfly_weight(mf)[:, None] * (
        _butterfly(mf).T @ P @ _butterfly(mc))
    ref, cross = _cross_cleared(ref, (mf + 1) // 2, (mc + 1) // 2)
    assert cross <= 1e-13 * np.abs(P).max()
    E = parity_embedding(coarse, fine)
    npt.assert_allclose(E.matrix.toarray(), ref, rtol=0,
                        atol=1e-14 * np.abs(P).max())
    npt.assert_array_equal(E.T.toarray(), E.matrix.toarray().T)


@PROPERTY
@given(m=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_butterfly_round_trips_are_exact(m, seed):
    # integers keep every sum exact, so the maps must agree to the bit
    rng = np.random.default_rng(seed)
    u, y = rng.integers(-2**20, 2**20, (2, m)).astype(float)
    G, w = _butterfly(m), butterfly_weight(m)
    npt.assert_array_equal(butterfly_T(u), G.T @ u)
    npt.assert_array_equal(butterfly(y), G @ y)
    npt.assert_array_equal(w, 1.0 / np.diag(G.T @ G))
    npt.assert_array_equal(butterfly(w * butterfly_T(u)), u)   # G G^-1
    npt.assert_array_equal(w * butterfly_T(butterfly(y)), y)   # G^-1 G


@PROPERTY
@given(m=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_weighted_norm_is_the_vector_norm(m, seed):
    r = np.random.default_rng(seed).standard_normal(m)
    got = _norm(butterfly_T(r), butterfly_weight(m))
    assert abs(got - np.linalg.norm(r)) <= 1e-15 * np.linalg.norm(r)


@PROPERTY
@given(p=st.integers(1, 20), levels_above=st.integers(1, 3))
def test_1d_solvers_return_the_vector_solution(p, levels_above):
    # m = 2^l + p takes the parity of p
    coarse = min_smoother_level(p) - 1
    h = build_hierarchy(1, p, coarse, coarse + levels_above)
    f = assemble_load(h.finest.space, 1)
    u0 = experiment_initial_guess(len(f))
    A = h.finest.disc.A
    for solve in (solve_mg, solve_pcg):
        u, rep = solve(h, CycleConfig(), f, u0)
        assert rep.converged
        assert np.linalg.norm(f - A.apply(u)) <= \
            CycleConfig().tol * np.linalg.norm(f - A.apply(u0))


def test_a_dropped_coupling_is_refused_by_name():
    # one entry off its mirror by 1e-6 of itself: above the bound 1e-9
    disc = assemble_1d(build_space(3, 3))
    bands = disc.A.bands.copy()
    bands[0, 0] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match=r"^1D system matrix not "
                       r"persymmetric: mirror defect .* > 1e-09$"):
        parity_band(BandedSymMatrix(disc.A.order, 3, bands),
                    "1D system matrix")
