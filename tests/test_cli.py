import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splinemg import cli
from splinemg.cli import ExperimentConfig, run_table, run_verify, \
    write_table, format_verify_report, main, _cell_feasible, _parse_range
from splinemg.linalg import NotSPDError
from splinemg.verify import dense_limit, smoother_pencil


def _small_config(**kw):
    base = dict(dim=1, degrees=[1, 2], levels=[7], coarse=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_parse_range():
    assert _parse_range("3") == [3]
    assert _parse_range("1-4") == [1, 2, 3, 4]
    assert _parse_range("1,5,7") == [1, 5, 7]
    with pytest.raises(ValueError):
        _parse_range("7-2")
    with pytest.raises(ValueError):
        _parse_range("")


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
    monkeypatch.setattr(cli, "build_hierarchy", no_build)
    code = main(["table", "--dim", "1", "--degrees", "1", "--levels", "7",
                 "--coarse", "5", "--out", str(tmp_path / "missing" / "t.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_failed_run_leaves_an_existing_out_file_unchanged(tmp_path, capsys):
    # the output files are opened before the first cell, which then fails
    # the preconditioner's symmetry check
    out = tmp_path / "t.csv"
    out.write_bytes(b"level/degree,1\n7,9\n")
    code = main(["table", "--dim", "1", "--degrees", "1", "--levels", "7",
                 "--coarse", "5", "--solver", "cg-mg", "--pre", "1",
                 "--post", "0", "--out", str(out)])
    assert code == 2
    assert "pre_smooth == post_smooth" in capsys.readouterr().err
    assert out.read_bytes() == b"level/degree,1\n7,9\n"


def test_run_verify_propagates_a_failing_reference_pencil(monkeypatch):
    def pencil(p, level, d=1, tau=None):
        if p == 1:
            raise NotSPDError(0, "reference pencil")
        return smoother_pencil(p, level, d=d, tau=tau)
    monkeypatch.setattr(cli, "smoother_pencil", pencil)
    with pytest.raises(NotSPDError, match="reference pencil"):
        run_verify([2, 3], [4], d=1)


def test_main_verify_exit_codes(capsys):
    assert main(["verify", "--degrees", "2", "--levels", "4"]) == 0
    assert main(["verify", "--degrees", "2", "--levels", "5",
                 "--tau", "10.0"]) == 1
    capsys.readouterr()


def test_main_config_error_exit_code(capsys):
    assert main(["table", "--degrees", "5-3", "--levels", "8"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
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


def test_setup_breakdown_marks_its_cell_and_the_table_goes_on(capsys):
    # p = 37 loses definiteness in the 2D setup (NotSPDError); that cell
    # reads not-spd@0 and the converged p = 30 cell is kept
    code = main(["table", "--dim", "2", "--degrees", "30,37", "--levels", "6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 3
    assert out[0] == "level/degree,30,37"
    level, p30, p37 = out[1].split(",")
    assert level == "6" and p30.isdigit() and p37 == "not-spd@0"


@pytest.mark.parametrize("dim, degrees, levels, coarse", [
    (1, [1, 2, 3, 4, 5, 8], [3, 4, 6], 2),
    (2, [1, 2, 3, 4], [2, 3, 4], "auto"),
])
def test_two_grid_table_is_v_cycle_on_two_levels(dim, degrees, levels, coarse):
    # --coarse decides which cells are feasible; each feasible cell solves
    # on the two-level hierarchy from level - 1
    two_grid = run_table(ExperimentConfig(dim=dim, degrees=degrees,
                                          levels=levels, coarse=coarse,
                                          cycle="two-grid"))
    assert "-" in two_grid.cells[0] + two_grid.cells[-1]
    for level, row in zip(two_grid.levels, two_grid.cells):
        v = run_table(ExperimentConfig(dim=dim, degrees=degrees,
                                       levels=[level], coarse=level - 1))
        for p, cell, v_cell in zip(degrees, row, v.cells[0]):
            assert cell == ("-" if not _cell_feasible(two_grid.config, p, level)
                            else v_cell)


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
