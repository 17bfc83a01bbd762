"""``cli`` parses, prints and picks the exit code; the library owns the rules.

The table runner and its coarse-level rule live in ``solver``, the verify
runner and every pass bound in ``verify``. From the package, ``cli.py`` may
import only the two runners, their records and ``damping`` (whose defaults its
help text prints). It names no bound, no coarse-level rule and no verify
check, so a rule moved back into it fails here, with the line and the name in
the message.
"""
import ast
from pathlib import Path

import splinemg.verify

CLI = Path(__file__).resolve().parents[1] / "src" / "splinemg" / "cli.py"
#: all that cli.py may import from the package
ALLOWED = {"ExperimentConfig", "TableResult", "run_table", "CheckResult",
           "run_verify", "damping"}
#: the bounds, the coarse-level rule and the checks that cli.py must not name
FORBIDDEN = (set(splinemg.verify.__all__) | {"min_smoother_level"}) - ALLOWED


def _package_imports(tree: ast.Module):
    """(line, name) of every name imported from the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "splinemg"):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name.split(".")[0] == "splinemg")


def _forbidden_uses(tree: ast.Module):
    """(line, name) of every read, attribute or string of a forbidden name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in FORBIDDEN:
            yield node.lineno, name


def test_cli_imports_only_the_runners_their_records_and_damping():
    tree = ast.parse(CLI.read_text())
    imports = [f"cli.py:{line} imports {name}"
               for line, name in _package_imports(tree) if name not in ALLOWED]
    assert imports == []


def test_cli_names_no_bound_no_coarse_rule_and_no_check():
    assert {"INVERSE_BOUND", "APPROX_BOUND", "measure_CA",
            "verify_counterexample", "smoother_pencil"} <= FORBIDDEN
    uses = [f"cli.py:{line} uses {name}"
            for line, name in _forbidden_uses(ast.parse(CLI.read_text()))]
    assert uses == []


def test_the_rules_see_every_form_of_a_use():
    source = ("from .verify import run_verify, INVERSE_BOUND\n"
              "from . import solver\nimport splinemg.verify\n"
              "from splinemg.smoother import damping\nimport numpy\n"
              "x = verify.APPROX_BOUND + min_smoother_level(3)\n"
              "getattr(verify, 'measure_CA')\n")
    tree = ast.parse(source)
    assert [item for item in _package_imports(tree)
            if item[1] not in ALLOWED] == [
        (1, "INVERSE_BOUND"), (2, "solver"), (3, "splinemg.verify")]
    assert sorted(_forbidden_uses(tree)) == [
        (6, "APPROX_BOUND"), (6, "min_smoother_level"), (7, "measure_CA")]
