"""The demos take minutes, so they are checked without running them: every
name a demo imports from fracinv, or reads off a fracinv module it has
imported (``fi.<name>``, ``fem.<name>``), must still exist.  The README's
example config and Python blocks are held to the same rule."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

from fracinv.cli import parse_config_text, resolve_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(),
                      flags=re.M | re.S)


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


def test_readme_config_resolves():
    (config,) = readme_blocks("ini")
    cfg = resolve_config(parse_config_text(config), [])
    assert cfg["problem"]["name"] == "1d-sine"


def test_readme_python_names_resolve():
    blocks = readme_blocks("python")
    assert blocks, "README has no Python example"
    names = [name for block in blocks for name in fracinv_names(ast.parse(block))]
    missing = [f"{module.__name__}.{name}" for module, name in names
               if not hasattr(module, name)]
    assert names and not missing, f"README uses names fracinv no longer has: {missing}"
