"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sm = run.import_library(ROOT)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run_cli(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _bindings() -> dict:
    """Every callable bound in a library module or class, by location."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "splinemg" and not name.startswith("splinemg."):
            continue
        for key, value in vars(mod).items():
            if isinstance(value, type) and value.__module__.startswith("splinemg"):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
            elif callable(value):
                out[(name, key)] = value
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert f"{name} = {entry['value']:.6g} {entry['unit']}" in proc.stdout


def test_wrong_reference_count_fails_the_run(monkeypatch, capsys):
    wrong = [count + 10 for count in workloads.TABLE_1D[10]]
    monkeypatch.setitem(workloads.TABLE_1D, 10, wrong)
    code = run.main(["--workload", "mg1d_verify", "--seed", "0",
                     "--seconds", "0.1", "--smoke"])
    out = capsys.readouterr().out
    result = _result(out)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert "FAIL mg-d1-p3-l10" in out
    record = json.loads(
        (run.RESULTS / "mg1d_verify-seed0-trace0-smoke.json").read_text())
    assert record["detail"]["failed_fraction"]["median"] > 0


def test_case_that_raises_is_a_failed_case(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("broken setup")

    monkeypatch.setattr(sm, "build_hierarchy", broken)
    cases = workloads.build_cases(
        "mg2d", lambda p: sm.min_smoother_level(p) - 1, smoke=True)
    samples, _ = harness.measure(sm, cases, 0, 0.0)
    capsys.readouterr()
    assert [s.failures for s in samples] == [["raised ValueError: broken setup"]]


def test_relative_times_divide_each_phase_by_the_reference_before_it():
    cases = [workloads.Case("mg", 1, 3, 10, 5, 20),
             workloads.Case("verify", 1, 2, 3, 0)]
    samples = [
        harness.Sample(case=0, setup_s=2.0, solve_s=3.0, ref_s=0.5,
                       solve_ref_s=1.0),
        harness.Sample(case=1, verify_s=1.0, ref_s=0.25),
        # a case that raised has no times and no reference times
        harness.Sample(case=1, failures=["raised"]),
    ]
    e2e = harness.end_to_end(cases, samples)
    assert e2e["time_to_solution_s"]["median"] == 5.0 + 0.5
    assert e2e["solve_rel"]["median"] == 3.0
    assert e2e["time_to_solution_rel"]["median"] == (4.0 + 3.0) + 2.0
    assert e2e["reference_ms"]["median"] == 1e3 * (0.5 + 0.25) / 2


def test_untraced_run_replaces_no_library_function(monkeypatch, capsys):
    before = _bindings()
    checked = []
    real_run_case = harness.run_case

    def checking_run_case(*args, **kwargs):
        checked.append(_bindings() == before)
        return real_run_case(*args, **kwargs)

    monkeypatch.setattr(harness, "run_case", checking_run_case)
    monkeypatch.setattr(tracing.Tracer, "install",
                        lambda self: pytest.fail("tracer installed"))
    assert run.main(["--workload", "mg2d", "--seed", "0", "--seconds", "0.1",
                     "--smoke"]) == 0
    capsys.readouterr()
    assert checked and all(checked)
    assert _bindings() == before


def test_tracer_restores_library_and_accounts_for_all_traced_time():
    before = _bindings()
    case = workloads.build_cases("mg2d", lambda p: sm.min_smoother_level(p) - 1,
                                 smoke=True)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        tracer.case = 0
        sample = harness.run_case(sm, case, 0, 0, tracer)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert not sample.failures

    metrics = tracing.layer_metrics(tracer.spans, [1])
    layers = ("splines", "assembly", "transfer", "linalg", "smoother",
              "solver", "verify")
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in layers) + \
        metrics["cli.verify_self_s"][0]
    assert self_total == pytest.approx(tracing.covered_time(tracer.spans))
    assert metrics["linalg.solve_calls"][0] > 0
    assert metrics["smoother.smooth_calls"][0] == 2 * sample.cycles * \
        (case.level - case.coarse)
    # the gate's own operator applies are not traced: solve_mg applies once
    # before the first cycle and once per cycle, a cycle four times per
    # smoothed level (two residuals, two smoothing steps)
    assert metrics["assembly.op_apply_calls"][0] == 1 + sample.cycles * \
        (1 + 4 * (case.level - case.coarse))


def test_solve_work_counts_band_and_dense_substitutions():
    banded = sm.cholesky(sm.BandedSymMatrix.from_dense(4 * np.eye(6), 2))
    assert tracing._solve_work(banded, np.zeros(6)) == \
        (1, 2 * 6 * 5, 2 * (8 * 3 * 6 + 16 * 6))
    dense = sm.cholesky(np.eye(4))
    assert tracing._solve_work(dense, np.ones((4, 3))) == \
        (3, 2 * 3 * 16, 2 * (4 * 4 * 5 + 16 * 4 * 3))


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_cli("--workload", "mg1d_verify", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path,
                    script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
