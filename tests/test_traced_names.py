"""The names the benchmark's tracer wraps all exist in the library.

``bench/tracing.py`` wraps every ``(module, qualname)`` of its ``TRACED``
table by name. A library change that deletes one of those names, or binds
two of them to the same object (which the tracer would then wrap twice),
fails here with the name in the message, not only inside a bench run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
