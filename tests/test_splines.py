import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from splinemg import build_space, eval_basis, eval_basis_derivatives, \
    eval_spline, index_split
from splinemg.assembly import assemble_load
from splinemg.smoother import damping
from splinemg.splines import as_dimension, eval_basis_array, find_span


def test_build_space_p1():
    sp = build_space(1, 1, 1)
    npt.assert_allclose(sp.knots, [0, 0, 0.5, 1, 1])
    assert sp.dim == 3
    assert sp.intervals == 2
    assert sp.mesh_size == 0.5


def test_build_space_p2_l2():
    sp = build_space(2, 2, 1)
    npt.assert_allclose(sp.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])
    assert sp.dim == 6


def test_build_space_dim_p3_l3():
    sp = build_space(3, 3, 1)
    assert sp.dim == 8 + 3
    assert len(sp.knots) == sp.intervals + 2 * 3 + 1


def test_build_space_knot_structure():
    sp = build_space(4, 2, 3)
    p, n = 4, 12
    npt.assert_array_equal(sp.knots[:p + 1], 0.0)
    npt.assert_array_equal(sp.knots[-(p + 1):], 1.0)
    interior = sp.knots[p + 1:-(p + 1)]
    npt.assert_allclose(interior, np.arange(1, n) / n)
    assert np.all(np.diff(interior) > 0)


@pytest.mark.parametrize("p,n0,level", [(0, 1, 1), (1, 0, 1), (1, 1, -1)])
def test_build_space_rejects_bad_input(p, n0, level):
    with pytest.raises(ValueError):
        build_space(p, level, n0)


def test_hat_is_interpolatory_at_knot():
    sp = build_space(1, 1)  # p=1, n=2
    first, vals = eval_basis(sp, 0.5)
    full = np.zeros(sp.dim)
    full[first:first + 2] = vals
    npt.assert_allclose(full, [0, 1, 0], atol=1e-15)


def test_endpoint_interpolation():
    sp = build_space(2, 2)  # p=2, n=4
    first, vals = eval_basis(sp, 0.0)
    assert first == 0
    npt.assert_allclose(vals, [1, 0, 0], atol=1e-15)
    first, vals = eval_basis(sp, 1.0)
    assert first == sp.dim - 3
    npt.assert_allclose(vals, [0, 0, 1], atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.0, 1.0), p=st.integers(1, 8), level=st.integers(0, 4))
def test_partition_of_unity(x, p, level):
    sp = build_space(p, level)
    _, vals = eval_basis(sp, x)
    assert vals.shape == (p + 1,)
    assert np.all(vals >= -1e-15)
    assert abs(vals.sum() - 1.0) <= 1e-13


def test_partition_of_unity_bulk():
    rng = np.random.default_rng(42)
    sp = build_space(5, 4)
    worst = max(abs(eval_basis(sp, x)[1].sum() - 1.0)
                for x in rng.uniform(0, 1, 1000))
    assert worst <= 1e-13


def test_local_support():
    # at any x at most p+1 basis values returned and they are the only
    # nonzero ones: spot-check against per-function evaluation via scipy
    from scipy.interpolate import BSpline
    sp = build_space(3, 3)
    rng = np.random.default_rng(3)
    for x in rng.uniform(0, 1, 20):
        first, vals = eval_basis(sp, x)
        full = np.zeros(sp.dim)
        full[first:first + 4] = vals
        for j in range(sp.dim):
            c = np.zeros(sp.dim)
            c[j] = 1.0
            ref = BSpline(sp.knots, c, 3)(x)
            assert abs(full[j] - ref) < 1e-13


def test_eval_basis_rejects_outside_domain():
    sp = build_space(2, 1)
    with pytest.raises(ValueError):
        eval_basis(sp, -0.01)
    with pytest.raises(ValueError):
        eval_basis(sp, 1.01)


def test_find_span_interior_knot_right_continuous():
    sp = build_space(2, 2)  # knots at multiples of 0.25
    assert find_span(sp, 0.25) == 2 + 1
    assert find_span(sp, 0.5) == 2 + 2
    assert find_span(sp, 1.0) == 2 + 3  # clamped to last span


def test_derivatives_row0_matches_eval_basis():
    sp = build_space(4, 2)
    for x in [0.0, 0.3, 0.77, 1.0]:
        f1, vals = eval_basis(sp, x)
        f2, ders = eval_basis_derivatives(sp, x, 4)
        assert f1 == f2
        npt.assert_allclose(ders[0], vals, atol=1e-14)


def test_p1_derivative_is_slope():
    sp = build_space(1, 2)  # h = 1/4
    _, ders = eval_basis_derivatives(sp, 0.3, 1)
    npt.assert_allclose(sorted(ders[1]), [-4.0, 4.0])


def test_derivative_rows_sum_to_zero():
    sp = build_space(5, 3)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0, 1, 30):
        _, ders = eval_basis_derivatives(sp, x, 5)
        for k in range(1, 6):
            scale = np.abs(ders[k]).max() + 1.0
            assert abs(ders[k].sum()) <= 1e-10 * scale


def test_first_derivative_matches_central_differences():
    # interior points, step 1e-6, 1e-5 relative
    step = 1e-6
    for p in [2, 3, 4]:
        sp = build_space(p, 3)
        for x in [0.11, 0.42, 0.73]:
            _, ders = eval_basis_derivatives(sp, x, 1)
            _, up = eval_basis(sp, x + step)
            _, dn = eval_basis(sp, x - step)
            fd = (up - dn) / (2 * step)
            npt.assert_allclose(ders[1], fd, rtol=1e-5, atol=1e-5)


def _endpoint_derivatives_by_divided_differences(sp, at_zero: bool):
    """Reconstruct each active basis polynomial on the first/last span by
    Newton divided differences and differentiate it at the endpoint.

    Exact for piecewise polynomials up to roundoff, independent of the
    all-orders recurrence used in the implementation.
    """
    p = sp.degree
    h = sp.mesh_size
    x0 = 0.0 if at_zero else 1.0 - h
    samples = x0 + h * (np.arange(p + 1) + 0.5) / (p + 1)
    first0 = None
    values = []
    for x in samples:
        first, vals = eval_basis(sp, float(x))
        first0 = first if first0 is None else first0
        assert first == first0
        values.append(vals)
    values = np.array(values)  # (p+1 samples, p+1 functions)
    target = 0.0 if at_zero else 1.0
    ders = np.empty((p + 1, p + 1))
    for j in range(p + 1):
        poly = np.polynomial.polynomial.Polynomial.fit(samples, values[:, j], p)
        for k in range(p + 1):
            ders[k, j] = poly.deriv(k)(target) if k else poly(target)
    return first0, ders


@pytest.mark.parametrize("p", [2, 3, 4])
def test_endpoint_derivative_matrix_against_divided_difference_oracle(p):
    sp = build_space(p, 3)
    for at_zero in (True, False):
        x = 0.0 if at_zero else 1.0
        first, ders = eval_basis_derivatives(sp, x, p)
        first_ref, ref = _endpoint_derivatives_by_divided_differences(sp, at_zero)
        assert first == first_ref
        scale = np.abs(ref).max(axis=1, keepdims=True)
        npt.assert_allclose(ders, ref, atol=1e-7, rtol=1e-5)


def test_derivatives_against_scipy():
    from scipy.interpolate import BSpline
    rng = np.random.default_rng(5)
    sp = build_space(4, 3)
    c = rng.standard_normal(sp.dim)
    spl = BSpline(sp.knots, c, 4)
    for k in [1, 2, 3]:
        dk = spl.derivative(k)
        for x in [0.13, 0.5, 0.86]:
            mine = eval_spline(sp, c, x, order=k)
            assert abs(mine - float(dk(x))) <= 1e-8 * (1 + abs(float(dk(x))))


def test_array_evaluation_equals_pointwise():
    sp = build_space(5, 2)
    x = np.concatenate([[0.0, 1.0], np.arange(1, 4) / 4,
                        np.random.default_rng(6).uniform(0, 1, 30)])
    first, ders = eval_basis_array(sp, x, 3)
    for xi, f, d in zip(x, first, ders):
        f_ref, d_ref = eval_basis_derivatives(sp, float(xi), 3)
        assert f == f_ref
        npt.assert_array_equal(d, d_ref)
    with pytest.raises(ValueError, match="outside"):
        eval_basis_array(sp, np.array([0.5, 1.5]))


def _scalar_a23(space, x, max_order):
    """Piegl-Tiller A2.3 with its scalar loops over the basis index, run
    over all points at once: the bit-for-bit oracle of eval_basis_array."""
    p, t = space.degree, space.knots
    mu = find_span(space, x)
    offsets = np.arange(p + 1)[:, None]
    left = x - t[mu + 1 - offsets]
    right = t[mu + offsets] - x
    ndu = np.empty((p + 1, p + 1, x.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            tmp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        ndu[j, j] = saved
    ders = np.empty((max_order + 1, p + 1, x.size))
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1, x.size))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, max_order + 1):
            d = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, max_order + 1):
        ders[k] *= fac
        fac *= p - k
    return mu - p, ders.transpose(2, 0, 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 15, 16, 25, 31, 40])
def test_array_evaluation_is_bitwise_the_scalar_recurrence(p):
    # derivative k of the scalar loop does not depend on max_order, so one
    # oracle call at max_order = p serves every order
    rng = np.random.default_rng(p)
    for level in (0, 1, 2, 3, 5):
        sp = build_space(p, level)
        x = np.concatenate([rng.uniform(0, 1, 200), sp.knots, [0.0, 1.0]])
        first_ref, ref = _scalar_a23(sp, x, p)
        for order in sorted({0, 1, min(2, p), p - 1, p}):
            first, ders = eval_basis_array(sp, x, order)
            npt.assert_array_equal(first, first_ref)
            assert ders.tobytes() == ref[:, :order + 1].tobytes(), \
                (level, order)


def test_eval_basis_derivatives_rejects_large_order():
    sp = build_space(2, 1)
    with pytest.raises(ValueError):
        eval_basis_derivatives(sp, 0.5, 3)


def test_index_split_p2():
    sp = build_space(2, 2)  # m = 6
    s = index_split(sp)
    npt.assert_array_equal(s.boundary, [0, 1, 4, 5])
    npt.assert_array_equal(s.interior, [2, 3])


def test_index_split_p1():
    sp = build_space(1, 1)  # m = 3
    s = index_split(sp)
    npt.assert_array_equal(s.boundary, [0, 2])
    npt.assert_array_equal(s.interior, [1])


def test_index_split_empty_interior():
    sp = build_space(3, 0, 3)  # n = 3, m = 6 = 2p
    with pytest.raises(ValueError, match="interior space empty"):
        index_split(sp)


def test_index_split_partition():
    sp = build_space(4, 3)
    s = index_split(sp)
    both = np.sort(np.concatenate([s.boundary, s.interior]))
    npt.assert_array_equal(both, np.arange(sp.dim))
    assert len(s.boundary) == 8


def test_interior_functions_vanish_at_boundary_with_derivatives():
    p = 3
    sp = build_space(p, 3)
    s = index_split(sp)
    for x in (0.0, 1.0):
        first, ders = eval_basis_derivatives(sp, x, p - 1)
        active = np.arange(first, first + p + 1)
        for k in range(p):
            for local, j in enumerate(active):
                if j in s.interior:
                    assert abs(ders[k, local]) <= 1e-9 * (np.abs(ders[k]).max() + 1)


def test_dimension_rule_has_one_owner_and_one_message():
    assert as_dimension(np.int64(2)) == 2
    assert type(as_dimension(np.int64(2))) is int
    with pytest.raises(ValueError) as owner:
        as_dimension(3)
    assert str(owner.value) == "dimension must be 1 or 2, got 3"
    for call in (lambda: damping(3), lambda: damping(3, 0.5),
                 lambda: assemble_load(build_space(1, 1), 3)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == str(owner.value)
    for d in (True, 2.0):
        with pytest.raises(ValueError,
                           match=rf"^dimension must be an integer, got {d!r}$"):
            as_dimension(d)
