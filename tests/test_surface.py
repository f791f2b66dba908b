"""The public surface of ccv and the functions the per-layer trace wraps.

Every name in a module's ``__all__`` must resolve.  ``perfbench/spans.py``
wraps ccv functions by (module, name) when a benchmark runs with
``--trace 1``; a rename inside ccv would break that run without failing
any other test, so each wrapped name is checked here.  So is the other
direction: every module-level function, class and constant in ccv, and
every method that is not a dunder, is loaded somewhere in the package,
apart from a short list of library API, so dead code fails here.
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


def _definitions(tree):
    """Module-level functions, classes and assigned names, and the methods
    of each class as Class.method, leaving out dunder methods, which the
    language calls, and ``__all__``, which the test above reads."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("__")]
        elif isinstance(node, ast.Assign):
            names += [t.id for target in node.targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)
                      and t.id != "__all__"]
    return names


def _unloaded_definitions(src):
    """Module-level functions, classes and constants, and methods, under
    ``src`` that no module there loads, by name, attribute or import.  A
    method counts as loaded when any attribute has its name."""
    defined, loaded = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update((path.stem, name) for name in _definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    return sorted(f"{mod}.{name}" for mod, name in defined
                  if name.rpartition(".")[2] not in loaded)


# library API that no command or check in the package uses
UNLOADED = ["__init__.__version__", "poly.Polynomial.variable"]


def test_every_definition_is_used_in_the_package():
    assert _unloaded_definitions(Path(ccv.__file__).parent) == UNLOADED
