"""Acceptance suite: one test per criterion, each printing a PASS line.

The frozen fixtures below are the reference iteration counts this solver is
expected to reproduce for the model problem (1D/2D V-cycle counts and
CG-preconditioned counts). Table cells are solved through the same
experiment driver the CLI uses.
"""
import numpy as np
import pytest

from splinemg import (
    APPROX_BOUND,
    INVERSE_BOUND,
    apply_Linv_1d,
    apply_Linv_2d,
    assemble_1d,
    build_prolongation,
    build_smoother_1d,
    build_smoother_2d,
    build_space,
    eval_basis,
    eval_spline,
    measure_CA,
    measure_smoothing_constant,
    operator_2d,
    prolong,
    smoother_pencil,
    verify_approximation_constant,
    verify_counterexample,
    verify_inverse_inequality,
)
from splinemg.cli import ExperimentConfig, run_table
from splinemg.smoother import smoother_matrix_1d, smoother_matrix_2d

DEGREES = list(range(1, 16))

TABLE_1D = {  # level -> counts for p = 1..15
    12: [23, 20, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 18, 18],
    11: [23, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 18, 19, 18],
    10: [23, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 18, 17, 17, 17],
}

TABLE_2D = {  # level -> counts for p = 1..15, None where infeasible
    7: [86, 88, 99, 102, 99, 100, 99, 98, 97, 96, 94, 95, 93, 92, 92],
    6: [84, 89, 101, 104, 100, 101, 100, 97, 97, 96, 94, 94, 94, 93, 92],
    5: [83, 92, 103, 103, 100, 100, 101, 97, 97, 96, 94, 93, 94, 91, 91],
    4: [66, 95, 104, 105, 102, 100, 99, 96, 96, 95, 94, 92, 92, 91, 91],
    3: [45, 97, 105, 107, 103, 101, 101] + [None] * 8,
    2: [32, 97, 114] + [None] * 12,
    1: [32] + [None] * 14,
}

TABLE_2D_CG = [21, 21, 23, 23, 23, 22, 23, 22, 22, 22, 21, 21, 21, 21, 21]


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def table_1d():
    config = ExperimentConfig(dim=1, degrees=DEGREES, levels=[10, 11, 12],
                              coarse=5, tau=0.14)
    return run_table(config)


@pytest.fixture(scope="module")
def table_2d():
    config = ExperimentConfig(dim=2, degrees=DEGREES,
                              levels=list(range(1, 8)), coarse="auto",
                              tau=0.08)
    return run_table(config)


def test_criterion_1_table_1d_reproduction(table_1d):
    worst = 0
    for level, row in zip(table_1d.levels, table_1d.cells):
        for cell, ref in zip(row, TABLE_1D[level]):
            assert cell.isdigit(), f"non-convergent cell at level {level}"
            worst = max(worst, abs(int(cell) - ref))
    _report("1 (1D iteration table, +-3)", worst <= 3, f"worst |diff| = {worst}")


def test_criterion_2_table_2d_reproduction(table_2d):
    worst_rel = 0.0
    for level, row in zip(table_2d.levels, table_2d.cells):
        for cell, ref in zip(row, TABLE_2D[level]):
            if ref is None:
                assert cell == "-", \
                    f"expected infeasible cell at level {level}, got {cell}"
                continue
            assert cell.isdigit(), f"non-convergent cell at level {level}"
            diff = abs(int(cell) - ref)
            tol = max(5.0, 0.1 * ref)
            worst_rel = max(worst_rel, diff / tol)
            assert diff <= tol, f"level {level}: {cell} vs {ref}"
    _report("2 (2D iteration table, +-max(5,10%), '-' pattern)",
            worst_rel <= 1.0, f"worst diff/tol = {worst_rel:.2f}")


def test_criterion_3_cg_table_reproduction():
    config = ExperimentConfig(dim=2, degrees=DEGREES, levels=[7],
                              coarse="auto", tau=0.08, solver="cg-mg")
    result = run_table(config)
    worst = 0
    for cell, ref in zip(result.cells[0], TABLE_2D_CG):
        assert cell.isdigit()
        worst = max(worst, abs(int(cell) - ref))
    _report("3 (CG + V-cycle table, +-3)", worst <= 3, f"worst |diff| = {worst}")


def test_criterion_4_inverse_inequality():
    worst = 0.0
    for p in range(1, 9):
        res = verify_inverse_inequality(p, 1, n0=p + 1)  # n = 2(p+1)
        worst = max(worst, res.constrained, res.interior)
    _report("4 (inverse inequality <= 2*sqrt(3))",
            worst <= INVERSE_BOUND + 1e-8, f"max measured = {worst:.6f}")


def test_criterion_5_counterexample_growth():
    ok = True
    vals = {}
    for p in range(2, 11):
        vals[p] = verify_counterexample(p, 4)  # n = 16
        ok = ok and vals[p] >= p
    _report("5 (unconstrained growth >= p)", ok,
            f"measured {min(vals[p] / p for p in vals):.3f} * p at worst")


def test_criterion_6_approximation_constant():
    worst = 0.0
    for p in range(1, 5):
        worst = max(worst, verify_approximation_constant(p, 3, proxy_levels=4))
    _report("6 (approximation constant <= 2*sqrt(2) + 0.01)",
            worst <= APPROX_BOUND + 0.01, f"max measured = {worst:.6f}")


def test_criterion_7_smoothing_property():
    tau = 0.14
    worst = 0.0
    for p in range(1, 7):
        pencil = smoother_pencil(p, 5, d=1, tau=tau)
        for nu in range(1, 9):
            worst = max(worst, measure_smoothing_constant(pencil, nu))
    _report("7 (smoothing property <= 1/tau)", worst <= 1.0 / tau + 1e-8,
            f"max measured = {worst:.4f}, bound = {1 / tau:.4f}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst1 = 0.0
    for p in range(1, 5):
        for n in (8, 16, 32):
            if n <= p:
                continue
            disc = assemble_1d(build_space(p, int(np.log2(n))))
            sm = build_smoother_1d(disc, 0.14)
            L = smoother_matrix_1d(sm, disc)
            r = rng.standard_normal(disc.space.dim)
            ref = np.linalg.solve(L, r)
            err = np.linalg.norm(apply_Linv_1d(sm, r) - ref) / np.linalg.norm(ref)
            worst1 = max(worst1, err)
    worst2 = 0.0
    for p in range(1, 4):
        for n in (4, 8):
            if n <= p:
                continue
            disc = assemble_1d(build_space(p, int(np.log2(n))))
            s2 = build_smoother_2d(operator_2d(disc), 0.08)
            LL = smoother_matrix_2d(s2, disc)
            r = rng.standard_normal(disc.space.dim ** 2)
            ref = np.linalg.solve(LL, r)
            err = np.linalg.norm(apply_Linv_2d(s2, r) - ref) / np.linalg.norm(ref)
            worst2 = max(worst2, err)
    _report("8 (smoother-inverse oracle equivalence)",
            worst1 <= 1e-10 and worst2 <= 1e-9,
            f"1D {worst1:.2e} (<=1e-10), 2D {worst2:.2e} (<=1e-9)")


def test_criterion_9_structural_identities():
    rng = np.random.default_rng(99)
    galerkin_worst = 0.0
    for p, level in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        co, fi = build_space(p, level), build_space(p, level + 1)
        P = build_prolongation(co, fi)
        dc, df = assemble_1d(co), assemble_1d(fi)
        proj = (P.T @ df.A.sparse @ P).toarray()
        ref = dc.A.toarray()
        galerkin_worst = max(galerkin_worst,
                             np.abs(proj - ref).max() / np.abs(ref).max())

    pou_worst = max(abs(eval_basis(build_space(6, 3), x)[1].sum() - 1.0)
                    for x in rng.uniform(0, 1, 1000))

    k1_worst = 0.0
    for p, level in [(2, 3), (5, 2)]:
        disc = assemble_1d(build_space(p, level))
        ones = np.ones(disc.space.dim)
        k1_worst = max(k1_worst, np.abs(disc.K.apply(ones)).max()
                       / np.abs(disc.K.bands).max())

    prolong_worst = 0.0
    for p in (2, 3):
        co, fi = build_space(p, 2), build_space(p, 3)
        P = build_prolongation(co, fi)
        c = rng.standard_normal(co.dim)
        fc = prolong(P, c)
        prolong_worst = max(prolong_worst,
                            max(abs(eval_spline(fi, fc, float(x)) -
                                    eval_spline(co, c, float(x)))
                                for x in rng.uniform(0, 1, 30)))

    ok = (galerkin_worst <= 1e-12 and pou_worst <= 1e-13
          and k1_worst <= 1e-12 and prolong_worst <= 1e-13)
    _report("9 (structural identities)", ok,
            f"galerkin {galerkin_worst:.1e}, unity {pou_worst:.1e}, "
            f"K*1 {k1_worst:.1e}, embed {prolong_worst:.1e}")


def test_criterion_10_robustness(table_1d):
    row12 = [int(c) for c in table_1d.cells[table_1d.levels.index(12)]]
    spread = max(row12) - min(row12)

    ca = {p: measure_CA(smoother_pencil(p, 5, d=1)) for p in range(1, 11)}
    ratio = max(ca.values()) / ca[1]
    _report("10 (degree robustness)", spread <= 6 and ratio <= 3.0,
            f"iteration spread = {spread} (<=6), CA ratio = {ratio:.3f} (<=3)")


def test_property_h_robustness(table_1d):
    # counts for fixed degree vary by at most 2 across levels 10..12
    by_level = {lvl: [int(c) for c in row]
                for lvl, row in zip(table_1d.levels, table_1d.cells)}
    for j in range(len(DEGREES)):
        counts = [by_level[lvl][j] for lvl in (10, 11, 12)]
        assert max(counts) - min(counts) <= 2


def test_property_p_trend(table_1d):
    # counts at level 12 do not increase by more than 3 anywhere from p=2 on
    row12 = [int(c) for c in table_1d.cells[table_1d.levels.index(12)]]
    tail = row12[1:]
    assert all(b <= a + 3 for a, b in zip(tail, tail[1:]))
    assert tail[-1] <= tail[0]
