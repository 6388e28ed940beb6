"""Each module's ``__all__`` lists exactly the public names it defines, and
each exception class the package defines is raised somewhere in it."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("linalg", "su2", "calculus", "bundles", "chern", "invariants", "sphere_oracle")
PACKAGE = Path(importlib.import_module("fuzzychern").__file__).parent


def public_definitions(module):
    """Public functions, classes and constants bound at the module's top level."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module("fuzzychern." + name)
    assert [a for a in module.__all__ if not hasattr(module, a)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    assert sorted(module.__all__) == sorted(public_definitions(module))


def raised_names(tree):
    """The names in ``raise X`` and ``raise X(...)`` statements."""
    excs = [n.exc for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None]
    return {e.id for e in (x.func if isinstance(x, ast.Call) else x for x in excs)
            if isinstance(e, ast.Name)}


def test_every_exception_class_is_raised():
    defined, raised = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "fuzzychern" if path.stem == "__init__" else "fuzzychern." + path.stem
        module = importlib.import_module(name)
        defined.update(attr for attr, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, BaseException)
                       and obj.__module__ == name)
        raised |= raised_names(ast.parse(path.read_text()))
    assert defined, "no exception class found"
    assert sorted(defined - raised) == []
