"""The names the benchmark's tracer wraps all exist in the library, and the
ones only the tracer and the tests reach stay unused inside it.

``bench/tracing.py`` wraps every ``(module, qualname)`` of its ``TRACED``
table by name. A library change that deletes one of those names, or binds
two of them to the same object (which the tracer would then wrap twice),
fails here with the name in the message, not only inside a bench run.
"""
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import splinemg.cli
import splinemg.verify

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "splinemg").glob("*.py"))
#: reached only from ``TRACED`` and the tests; deleting one of them must stay
#: a deletion of its definition, its ``__all__`` entry and its re-export
#: (``from_dense`` is the classmethod ``BandedSymMatrix.from_dense``)
UNUSED_IN_LIBRARY = {"apply_operator_2d", "smooth_step_1d", "smooth_step_2d",
                     "operator_norm", "from_dense", "kron_apply"}


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


def _resolve(package, module, qualname):
    """The object the tracer replaces: a module attribute, or a method as
    found in its class's own namespace."""
    owner = importlib.import_module(f"{package}.{module}")
    *classes, attr = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return vars(owner).get(attr) if classes else getattr(owner, attr, None)


def test_every_traced_name_resolves_to_its_own_object():
    package, traced = _traced()
    seen = {}
    for module, qualname, _ in traced:
        name = f"{module}.{qualname}"
        obj = _resolve(package, module, qualname)
        assert obj is not None, f"{name} does not exist in {package}"
        assert id(obj) not in seen, f"{name} is the same object as {seen[id(obj)]}"
        seen[id(obj)] = name
    assert len(seen) == len(traced)


def _uses(tree: ast.Module, is_init: bool):
    """(line, name) of every read, import or string of an unused-in-library
    name, outside ``__all__`` and, in ``__init__``, the re-exports."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exempt.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and not is_init:
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        yield from ((node.lineno, n) for n in names if n in UNUSED_IN_LIBRARY)


def test_names_only_the_tracer_reaches_are_unused_in_the_library():
    assert SOURCES
    uses = [f"{path.name}:{line} uses {name}" for path in SOURCES
            for line, name in _uses(ast.parse(path.read_text()),
                                    path.name == "__init__.py")]
    assert uses == []


def test_the_cli_binds_the_verify_runner_itself():
    assert splinemg.cli.run_verify is splinemg.verify.run_verify, (
        "bench/harness.py calls sm.cli.run_verify and the tracer wraps it "
        "as ('cli', 'run_verify'): cli must import verify.run_verify "
        "itself, not a wrapper")


def test_readme_names_exactly_the_names_only_the_tracer_reaches():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"the names only the tracer and the tests reach "
                       r"\(([^)]*)\)", text)
    assert listed, "README.md lost its list of the traced-only names"
    names = {name.rsplit(".", 1)[-1]
             for name in re.findall(r"`([\w.]+)`", listed[1])}
    assert names == UNUSED_IN_LIBRARY
