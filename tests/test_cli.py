import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splinemg import CycleConfig, InadmissibleLevels, build_hierarchy, \
    min_smoother_level
from splinemg.cli import ExperimentConfig, TableResult, run_table, \
    run_verify, write_table, format_verify_report, main, _build_parser, \
    _parse_range
from splinemg.linalg import NotSPDError
from splinemg.splines import SpaceSizeError
from splinemg.verify import ConstraintRankError, SmootherPencil, \
    dense_limit, smoother_pencil

GOLDEN = Path(__file__).resolve().parent / "golden"


def _small_config(**kw):
    base = dict(dim=1, degrees=[1, 2], levels=[7], coarse=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_parse_range():
    assert _parse_range("3") == [3]
    assert _parse_range("1-4") == [1, 2, 3, 4]
    assert _parse_range("1,5,7") == [1, 5, 7]
    assert _parse_range("-1") == [-1]
    with pytest.raises(ValueError):
        _parse_range("7-2")
    with pytest.raises(ValueError):
        _parse_range("")
    for bad in ("3-", "-", "1-x", "2,a"):
        token = bad.split(",")[-1]
        with pytest.raises(ValueError, match=f"malformed range token '{token}'"):
            _parse_range(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dim=3, degrees=[1], levels=[2])
    with pytest.raises(ValueError):
        ExperimentConfig(dim=1, degrees=[], levels=[2])
    for tau in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be positive"):
            ExperimentConfig(dim=1, degrees=[1], levels=[2], tau=tau)
    with pytest.raises(ValueError):
        ExperimentConfig(dim=1, degrees=[1], levels=[2], tol=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(dim=1, degrees=[1], levels=[2], solver="gauss")
    with pytest.raises(ValueError, match="coarse must be 'auto'"):
        ExperimentConfig(dim=1, degrees=[1], levels=[3], coarse=5,
                         cycle="two-grid")
    for coarse in (2.7, True):     # not truncated to a level
        with pytest.raises(ValueError, match="coarse level must be an "
                           f"integer or 'auto', got {coarse!r}"):
            ExperimentConfig(dim=1, degrees=[1], levels=[3], coarse=coarse)
    with pytest.raises(ValueError, match="degree must be an integer, "
                       "got 3.5"):      # not only the smallest degree
        ExperimentConfig(dim=1, degrees=[2, 3.5], levels=[5])
    with pytest.raises(ValueError, match="level must be an integer, got 6.0"):
        ExperimentConfig(dim=1, degrees=[2], levels=[5, 6.0])
    assert min_smoother_level(np.int64(4)) == 3


def test_table_defaults_are_the_experiment_configs_and_the_cycle_configs():
    # one set of solve defaults: CycleConfig states them, ExperimentConfig
    # and the table parser read them
    args = _build_parser().parse_args(["table"])
    cycle = CycleConfig()
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                if f.default is not dataclasses.MISSING}
    assert defaults == {"coarse": "auto", "cycle": cycle.cycle,
                        "pre_smooth": cycle.pre_smooth,
                        "post_smooth": cycle.post_smooth, "tau": None,
                        "solver": "mg", "tol": cycle.tol,
                        "max_iter": cycle.max_iter}
    for option, name in (("coarse", "coarse"), ("cycle", "cycle"),
                         ("pre", "pre_smooth"), ("post", "post_smooth"),
                         ("tau", "tau"), ("solver", "solver"), ("tol", "tol"),
                         ("max_iter", "max_iter")):
        assert getattr(args, option) == defaults[name], option


def test_run_table_grid_shape_and_values():
    res = run_table(_small_config())
    assert res.levels == [7]
    assert res.degrees == [1, 2]
    assert len(res.cells) == 1 and len(res.cells[0]) == 2
    assert all(c.isdigit() for c in res.cells[0])
    assert not res.any_failure


def test_run_table_infeasible_cells_marked():
    res = run_table(ExperimentConfig(dim=2, degrees=[1, 2, 3, 4], levels=[2],
                                     coarse="auto"))
    assert res.cells[0][0] != "-"      # p=1 feasible at level 2
    assert res.cells[0][1] != "-"      # p=2 feasible at level 2
    assert res.cells[0][2] != "-"      # p=3 feasible at level 2
    assert res.cells[0][3] == "-"      # p=4 needs level >= 3


def test_run_table_nonconvergence_marked():
    res = run_table(_small_config(max_iter=2))
    assert res.cells[0][0] == ">2"
    assert res.any_failure


@pytest.mark.parametrize("cells, any_failure, early_stop", [
    ([["12", "-"]], False, False),
    ([["12", ">500"]], True, False),
    ([["not-spd@0", "12"]], True, True),
    ([[">500"], ["non-finite@16"]], True, True),
])
def test_table_outcomes_are_read_from_the_cells(cells, any_failure,
                                                early_stop):
    res = TableResult(degrees=[1], levels=[7], cells=cells, timings=[])
    assert (res.any_failure, res.early_stop) == (any_failure, early_stop)


def test_csv_round_trip():
    res = run_table(_small_config())
    buf = io.StringIO()
    write_table(res, buf, fmt="csv")
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    assert header == ["level/degree"] + [str(p) for p in res.degrees]
    assert [int(row[0]) for row in rows] == res.levels
    assert [row[1:] for row in rows] == res.cells


def test_csv_output_deterministic():
    outs = []
    for _ in range(2):
        res = run_table(_small_config())
        buf = io.StringIO()
        write_table(res, buf, fmt="csv")
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_markdown_layout():
    res = run_table(_small_config())
    buf = io.StringIO()
    write_table(res, buf, fmt="markdown")
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].startswith("| level/degree |")
    assert set(lines[1].replace("|", "")) == {"-"}
    assert len(lines) == 2 + len(res.levels)
    with pytest.raises(ValueError, match="unknown format 'html'"):
        write_table(res, buf, fmt="html")


def test_run_verify_all_pass():
    results = run_verify([1, 2, 3], [4], d=1)
    assert results
    assert all(r.status in ("PASS", "SKIP") for r in results)
    assert any(r.name == "inverse-inequality-constrained" for r in results)
    assert any(r.name == "counterexample-growth" for r in results)


def test_run_verify_corrupted_tau_fails():
    results = run_verify([2], [5], d=1, tau=10.0)
    assert any(r.status == "FAIL" for r in results)


def test_run_verify_skips_oversize():
    results = run_verify([2], [9], d=1)
    assert any(r.status == "SKIP" for r in results)
    # one past the limit, the CLI skips and the library's dense paths refuse
    for d, level in [(1, 8), (2, 4)]:
        p = dense_limit(d) - 2**level + 1          # m = n + p
        assert run_verify([p], [level], d=d)[0].note == "size beyond dense limit"
        with pytest.raises(ValueError, match="dense verification limit"):
            smoother_pencil(p, level, d=d)


def test_run_verify_skips_what_the_library_refuses_by_size():
    notes = {(r.name, r.degree, r.level): r.note
             for r in run_verify([2, 4], [2, 5], d=1) if r.status == "SKIP"}
    assert notes == {
        ("inverse-inequality", 4, 2): "interior block empty",
        ("smoothing-constant", 4, 2): "no valid coarse/fine smoother pair",
        ("approximation-constant", 2, 5): "proxy space beyond dense limit",
        ("approximation-constant", 4, 5): "proxy space beyond dense limit"}


@pytest.mark.parametrize("error, skipped", [
    (SpaceSizeError("too small"), True), (ValueError("other"), False)])
def test_run_verify_maps_only_the_size_error_to_skip(monkeypatch, error,
                                                     skipped):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr("splinemg.verify.smoother_pencil", refuse)
    if skipped:
        result = run_verify([2], [2], d=2)
        assert [(r.name, r.status, r.note) for r in result] == [
            ("smoothing-constant", "SKIP",
             "no valid coarse/fine smoother pair")]
    else:
        with pytest.raises(ValueError, match="other"):
            run_verify([2], [2], d=2)


def test_verify_reports_a_rank_deficient_constraint_basis_as_one_skip(capsys):
    # at one interval the constraint rows of an even p >= 16 lose numerical
    # rank; each such check reads SKIP with the rank and the report goes on
    code = main(["verify", "--dim", "1", "--degrees", "14-20",
                 "--levels", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * 7 + 1     # four lines per degree, the summary
    rank_skips = [line for line in lines if "constraint matrix rank" in line]
    assert rank_skips
    assert all(re.fullmatch(r"approximation-constant +p=\d+ +l=0 +SKIP "
                            r"\(constraint matrix rank \d+ below expected "
                            r"\d+\)", line) for line in rank_skips)
    assert code == (1 if any(line.endswith("FAIL") for line in lines) else 0)


@pytest.mark.parametrize("target, name", [
    ("verify_inverse_inequality", "inverse-inequality"),
    ("verify_approximation_constant", "approximation-constant")])
def test_run_verify_skips_only_the_check_whose_basis_lost_rank(
        monkeypatch, target, name):
    def refuse(*args, **kwargs):
        raise ConstraintRankError("constraint matrix rank 3 below expected 4")

    monkeypatch.setattr(f"splinemg.verify.{target}", refuse)
    results = run_verify([2], [4], d=1)
    assert [(r.name, r.note) for r in results if r.status == "SKIP"] == [
        (name, "constraint matrix rank 3 below expected 4")]
    others = [r for r in results if r.status != "SKIP"]
    assert {r.status for r in others} == {"PASS"}
    assert others[-1].name == "approximation-property-ratio"


@pytest.mark.parametrize("args, golden", [
    ("--dim 1 --degrees 1-8 --levels 4", "verify_d1_p1-8_l4.txt"),
    ("--dim 2 --degrees 1-4 --levels 3", "verify_d2_p1-4_l3.txt")])
def test_verify_report_matches_committed_output(capsys, args, golden):
    assert main(["verify", *args.split()]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def _table_rows():
    text = (GOLDEN / "table_rows.txt").read_text()
    return [pytest.param(*line.split(": "), id=line.split(": ")[0])
            for line in text.splitlines()]


# cheap rows through every small-space path (quadrature loop, Oslo
# recurrence, load); a changed count fails here and must be explained
@pytest.mark.parametrize("args, counts", _table_rows())
def test_table_row_matches_committed_counts(capsys, args, counts):
    assert main(["table", *args.split()]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split(",")[1:] == counts.split(",")


def test_format_verify_report():
    results = run_verify([2], [4], d=1)
    text = format_verify_report(results)
    assert "PASS" in text
    assert "passed" in text.splitlines()[-1]


def test_main_table_stdout(capsys):
    code = main(["table", "--dim", "1", "--degrees", "1-2", "--levels", "7",
                 "--coarse", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("level/degree,1,2")


def test_main_table_writes_files(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["table", "--dim", "1", "--degrees", "1", "--levels", "7",
                 "--coarse", "5", "--out", str(out)])
    assert code == 0
    assert out.exists()
    timing = tmp_path / "t.timing.csv"
    assert timing.exists()
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["level/degree", "1"] and [row[0] for row in rows] == ["7"]
    assert rows[0][1].isdigit()


def test_unwritable_out_is_a_configuration_error_before_any_cell(
        tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a cell was solved before --out was checked")
    monkeypatch.setattr("splinemg.solver.build_hierarchy", no_build)
    code = main(["table", "--dim", "1", "--degrees", "1", "--levels", "7",
                 "--coarse", "5", "--out", str(tmp_path / "missing" / "t.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_failed_run_leaves_an_existing_out_file_unchanged(tmp_path, capsys):
    # the preconditioner's symmetry check fails before the output files
    # are opened
    out = tmp_path / "t.csv"
    out.write_bytes(b"level/degree,1\n7,9\n")
    code = main(["table", "--dim", "1", "--degrees", "1", "--levels", "7",
                 "--coarse", "5", "--solver", "cg-mg", "--pre", "1",
                 "--post", "0", "--out", str(out)])
    assert code == 2
    assert "pre_smooth == post_smooth" in capsys.readouterr().err
    assert out.read_bytes() == b"level/degree,1\n7,9\n"


@pytest.mark.parametrize("flags, message", [
    (["--tau", "nan"], "tau must be positive and finite, got nan"),
    (["--solver", "cg-mg", "--pre", "1", "--post", "0"],
     "pre_smooth == post_smooth"),
    (["--degrees", "0"], "degree must be >= 1, got 0"),
    (["--levels=-1"], "level must be >= 0, got -1"),
    (["--cycle", "two-grid", "--coarse", "2"], "coarse must be 'auto'"),
    (["--coarse", "x"], "coarse level must be an integer or 'auto', got 'x'"),
    (["--coarse", "-1"], "coarse must be >= 0, got -1"),
], ids=["tau-nan", "cg-asymmetric", "degree-0", "level-neg", "two-grid-coarse",
        "coarse-not-int", "coarse-neg"])
def test_table_configuration_error_builds_nothing_and_writes_no_file(
        tmp_path, capsys, monkeypatch, flags, message):
    def no_build(*args, **kwargs):
        raise AssertionError("a hierarchy was built for a bad configuration")
    monkeypatch.setattr("splinemg.solver.build_hierarchy", no_build)
    argv = ["table", "--dim", "2", "--degrees", "8", "--levels", "5"]
    code = main(argv + flags + ["--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_run_verify_propagates_a_failing_reference_pencil(monkeypatch):
    def pencil(p, level, d=1, tau=None):
        if p == 1:
            raise NotSPDError(0, "reference pencil")
        return smoother_pencil(p, level, d=d, tau=tau)
    monkeypatch.setattr("splinemg.verify.smoother_pencil", pencil)
    with pytest.raises(NotSPDError, match="reference pencil"):
        run_verify([2, 3], [4], d=1)


def test_verify_reports_a_breakdown_as_its_checks_fail_line(capsys):
    # at p = 29 on one interval the mass matrix M loses definiteness in
    # double precision; counterexample-growth reads FAIL with that cause and
    # the rest of the report is still printed
    code = main(["verify", "--dim", "1", "--degrees", "29", "--levels", "0"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1 and captured.err == ""
    assert [line.split() for line in lines[:2]] == [
        ["inverse-inequality", "p=29", "l=0", "SKIP", "(interior", "block",
         "empty)"],
        ["counterexample-growth", "p=29", "l=0", "FAIL", "(mass", "matrix",
         "M", "not", "SPD)"]]
    assert lines[-1] == "0 passed, 1 failed, 3 skipped"


def test_run_verify_reports_a_non_spd_smoother_matrix_as_fail_lines(
        monkeypatch):
    # a pencil whose L_eff is -I: each check that reads its spectrum is one
    # FAIL line naming L_eff, C_A's too (L_eff is the B of its
    # eigenproblem), and the report goes on to the next p
    def pencil(p, level, d=1, tau=None):
        good = smoother_pencil(p, level, d=d, tau=tau)
        return SmootherPencil(good.A, good.A_c, good.P,
                              -np.eye(len(good.A)) if p == 2 else good.L_eff)
    monkeypatch.setattr("splinemg.verify.smoother_pencil", pencil)
    results = run_verify([1, 2, 3], [4], d=1)
    failed = {(r.name, r.degree): r.note for r in results
              if r.status == "FAIL"}
    note = "effective smoother matrix L_eff not SPD"
    assert failed == {("smoothing-constant", 2): note,
                      ("smoother-energy-norm", 2): note,
                      ("approximation-property-ratio", 2): note}
    report = format_verify_report(results)
    assert report.count(f"FAIL ({note})") == 3
    assert "B not SPD" not in report
    ratio = [r for r in results if r.name == "approximation-property-ratio"
             and r.status != "FAIL"]
    assert [(r.degree, r.status) for r in ratio] == [(3, "PASS")]


def test_main_verify_exit_codes(capsys):
    assert main(["verify", "--degrees", "2", "--levels", "4"]) == 0
    assert main(["verify", "--degrees", "2", "--levels", "5",
                 "--tau", "10.0"]) == 1
    capsys.readouterr()


def test_main_config_error_exit_code(capsys):
    assert main(["table", "--degrees", "5-3", "--levels", "8"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert main(["table", "--degrees", "3-", "--levels", "8"]) == 2
    assert "malformed range token '3-'" in capsys.readouterr().err


def test_levels_below_fixed_coarse_marked_infeasible(capsys):
    # a fine-level range at or below the fixed coarse level yields no
    # solvable cells; they are marked like other infeasible cells
    assert main(["table", "--dim", "1", "--degrees", "1", "--levels", "8",
                 "--coarse", "9"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "8,-"


def test_main_bad_flag_exit_code(capsys):
    assert main(["table", "--cycle", "zigzag"]) == 2
    capsys.readouterr()


def test_nonconvergent_cell_sets_exit_code(capsys):
    code = main(["table", "--dim", "1", "--degrees", "1", "--levels", "7",
                 "--coarse", "5", "--max-iter", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert ">2" in out


@pytest.mark.parametrize("solver,cell", [("mg", "non-finite@16"),
                                         ("cg-mg", "breakdown@0")])
def test_early_stop_cell_shows_reason_and_iteration(capsys, solver, cell):
    # tau = 20 makes the 2D smoother diverge: solve_mg stops at the first
    # non-finite residual and solve_pcg at an indefinite preconditioner,
    # neither at max_iter; an early stop has its own exit code
    code = main(["table", "--dim", "2", "--degrees", "3", "--levels", "4",
                 "--coarse", "1", "--tau", "20", "--solver", solver])
    out = capsys.readouterr().out
    assert code == 3
    assert out == f"level/degree,3\n4,{cell}\n"


@pytest.mark.parametrize("max_iter, code, cell", [
    ("2", 1, ">2"), ("3", 3, "breakdown@2")])
def test_cg_cell_budget_bounds_the_cycles(capsys, max_iter, code, cell):
    # at tau = 0.15 the cycle after the second CG iteration meets r^T z <= 0;
    # a budget of 2 iterations stops before running it
    assert main(["table", "--dim", "2", "--degrees", "3", "--levels", "4",
                 "--tau", "0.15", "--solver", "cg-mg",
                 "--max-iter", max_iter]) == code
    assert capsys.readouterr().out == f"level/degree,3\n4,{cell}\n"


@pytest.mark.parametrize("dim, tau, cell", [
    (1, "1e300", "non-finite@1"), (1, "1e-310", "not-spd@0"),
    (2, "1e300", "non-finite@1")])
def test_a_blow_up_is_a_table_cell_not_a_warning_or_an_error(
        capsys, dim, tau, cell):
    # an extreme tau overflows in the 1D level solves or the 2D cycle, or in
    # the 1D smoother factor; each is its cell's stop reason, printed
    # without a numpy warning (the suite turns warnings into errors)
    code = main(["table", "--dim", str(dim), "--degrees", "2", "--levels",
                 "4", "--tau", tau])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, f"level/degree,2\n4,{cell}\n", "")


def test_setup_breakdown_marks_its_cell_and_the_table_goes_on(capsys):
    # p = 37 loses definiteness in the 2D setup (NotSPDError); that cell
    # reads not-spd@0 and the converged p = 30 cell is kept
    code = main(["table", "--dim", "2", "--degrees", "30,37", "--levels", "6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 3
    assert out[0] == "level/degree,30,37"
    level, p30, p37 = out[1].split(",")
    assert level == "6" and p30.isdigit() and p37 == "not-spd@0"


def test_an_unmirrored_smoother_block_is_a_cell_not_a_configuration_error(
        tmp_path, capsys):
    # the boundary block Q of p = 43, l = 10 on coarse level 7 is 1.4e-8
    # off its mirror; that changes the smoother, not the solution, so the
    # cell reads its setup's breakdown and both files are written
    out = tmp_path / "t.csv"
    code = main(["table", "--dim", "1", "--degrees", "43", "--levels", "10",
                 "--coarse", "7", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (3, "")
    assert out.read_text() == "level/degree,43\n10,not-spd@0\n"
    assert (tmp_path / "t.timing.csv").read_text().startswith(
        "level/degree,43\n10,")


@pytest.mark.parametrize("dim, degrees, levels, coarse", [
    (1, [1, 2, 3, 4, 5, 8], [3, 4, 6], "auto"),
    (2, [1, 2, 3, 4], [2, 3, 4], "auto"),
])
def test_two_grid_table_is_v_cycle_on_two_levels(dim, degrees, levels, coarse):
    # each cell solves, or reads "-", on the two-level hierarchy from
    # level - 1, exactly as a V-cycle table with that coarse level does
    two_grid = run_table(ExperimentConfig(dim=dim, degrees=degrees,
                                          levels=levels, coarse=coarse,
                                          cycle="two-grid"))
    assert "-" in two_grid.cells[-1]
    for level, row in zip(two_grid.levels, two_grid.cells):
        v = run_table(ExperimentConfig(dim=dim, degrees=degrees,
                                       levels=[level], coarse=level - 1))
        assert row == v.cells[0]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cycle, coarse", [("two-grid", "auto"), ("v", "auto"),
                                           *(("v", c) for c in range(5))])
def test_a_cell_reads_dash_exactly_when_its_levels_are_inadmissible(
        dim, cycle, coarse):
    degrees, levels = list(range(1, 9)), list(range(7))
    res = run_table(ExperimentConfig(dim=dim, degrees=degrees, levels=levels,
                                     coarse=coarse, cycle=cycle, max_iter=1))
    for level, row in zip(res.levels, res.cells):
        for p, cell in zip(res.degrees, row):
            c = (level - 1 if cycle == "two-grid" else
                 min_smoother_level(p) - 1 if coarse == "auto" else coarse)
            try:
                build_hierarchy(dim, p, c, level)
            except InadmissibleLevels:
                assert cell == "-", (p, level)
            else:
                assert cell != "-", (p, level)


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_non_finite_tau_is_a_configuration_error(capsys, tau):
    assert main(["table", "--dim", "2", "--degrees", "3", "--levels", "4",
                 "--tau", tau]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_python_m_splinemg_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "splinemg", "--help"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert "table" in done.stdout
