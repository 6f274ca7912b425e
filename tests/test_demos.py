"""The demos take minutes, so they are checked without running them: every
name a demo imports from fracinv, or reads off a fracinv module it has
imported (``fi.<name>``, ``fem.<name>``), must still exist."""

import ast
import importlib
import types
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def fracinv_names(tree):
    """(module, name) for each name the parsed script takes from fracinv."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fracinv":
                    bound = alias.name if alias.asname else "fracinv"
                    modules[alias.asname or "fracinv"] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "fracinv":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names.append((module, alias.name))
                if isinstance(getattr(module, alias.name, None), types.ModuleType):
                    modules[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return names


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    names = fracinv_names(ast.parse(path.read_text(), filename=str(path)))
    assert names, f"{path.name} takes nothing from fracinv"
    missing = [f"{module.__name__}.{name}" for module, name in names
               if not hasattr(module, name)]
    assert not missing, f"{path.name} uses names fracinv no longer has: {missing}"
