"""Each module's ``__all__`` lists exactly the public names it defines."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("linalg", "su2", "calculus", "bundles", "chern", "invariants", "sphere_oracle")


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
