"""The public surface of ccv and the functions the per-layer trace wraps.

Every name in a module's ``__all__`` must resolve.  ``perfbench/spans.py``
wraps ccv functions by (module, name) when a benchmark runs with
``--trace 1``; a rename inside ccv would break that run without failing
any other test, so each wrapped name is checked here.  So is the other
direction: every module-level function and class in ccv is loaded
somewhere in the package, so dead code fails here.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ccv

MODULES = ["ccv"] + sorted(f"ccv.{m.name}"
                           for m in pkgutil.iter_modules(ccv.__path__))
SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # the tracer wraps enumerate_points besides the SPANS table
    return sorted(spans.SPANS) + [("ffutil", "enumerate_points")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported, f"{name} exports nothing"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"


def test_every_traced_function_exists():
    traced = _traced_functions()
    assert ("poly", "expand_line_pencil") in traced
    missing = [
        (mod, fn) for mod, fn in traced
        if not callable(getattr(importlib.import_module(f"ccv.{mod}"), fn,
                                None))]
    assert not missing, f"perfbench/spans.py wraps missing functions: {missing}"


def test_only_the_record_base_writes_to_json():
    # every result renders through fields.Record and its one encoder; a
    # class with its own to_json would decide its JSON shape a second way
    owners = sorted(
        f"{name}.{attr}" for name in MODULES
        for attr, cls in vars(importlib.import_module(name)).items()
        if isinstance(cls, type) and cls.__module__ == name
        and "to_json" in vars(cls))
    assert owners == ["ccv.fields.Record"]


def _unloaded_definitions(src):
    """Module-level functions and classes under ``src`` that no module
    there loads, by name, attribute or import."""
    defined, loaded = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update((path.stem, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    return sorted(f"{mod}.{name}" for mod, name in defined
                  if name not in loaded)


def test_every_definition_is_used_in_the_package():
    # methods are left out: Polynomial.variable and support are library API
    assert _unloaded_definitions(Path(ccv.__file__).parent) == []
