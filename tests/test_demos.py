"""Each config file in demos/ runs, as written, through the command its name
begins with and writes that command's files.  The README's example config
must resolve, and its Python blocks are checked without running them: every
name a block imports from fracinv, or reads off a fracinv module it has
imported (``fi.<name>``, ``fem.<name>``), must still exist, and every call
of such a name must bind to the callee's signature."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

from fracinv.cli import main, parse_config_text, resolve_config

ROOT = Path(__file__).resolve().parent.parent
WRITES = {
    "forward": ("mesh.txt", "u_terminal.field"),
    "invert": ("history.csv", "q_reconstructed.field"),
    "bench": ("report.csv", "report.json"),
    "verify": ("decay.csv", "positivity.csv", "stability.csv"),
}


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.cfg")), ids=lambda p: p.name)
def test_demo_config_runs(path, tmp_path):
    command = re.split(r"[-.]", path.name)[0]
    assert main([command, str(path), "--set", f"output.directory={tmp_path}"]) == 0
    for name in ("effective-config.cfg", *WRITES[command]):
        assert (tmp_path / name).is_file(), f"{path.name} wrote no {name}"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(),
                      flags=re.M | re.S)


def fracinv_names(tree):
    """{(module, name): calls} for each name the parsed script takes from
    fracinv, with the call nodes that call it directly."""
    modules, imported = {}, {}
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
                imported[alias.asname or alias.name] = (module, alias.name)
                if isinstance(getattr(module, alias.name, None), types.ModuleType):
                    modules[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(node):
        if isinstance(node, ast.Name) and node.id in imported:
            return imported[node.id]
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return modules[node.value.id], node.attr
        return None

    names = {key: [] for key in imported.values()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and resolve(node):
            names.setdefault(resolve(node), [])
        if isinstance(node, ast.Call) and resolve(node.func):
            names.setdefault(resolve(node.func), []).append(node)
    return names


def misuses(names):
    """Each name fracinv no longer has, and each call that does not bind to
    its callee's signature."""
    found = []
    for (module, name), calls in names.items():
        if not hasattr(module, name):
            found.append(f"{module.__name__}.{name} is gone")
            continue
        for call in calls:
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(kw.arg is None for kw in call.keywords)):
                continue  # the argument count is only known at run time
            try:
                inspect.signature(getattr(module, name)).bind(
                    *call.args, **{kw.arg: kw.value for kw in call.keywords})
            except TypeError as exc:
                found.append(f"line {call.lineno}: {module.__name__}.{name}: {exc}")
    return found


def test_readme_config_resolves():
    (config,) = readme_blocks("ini")
    cfg = resolve_config(parse_config_text(config), [])
    assert cfg["problem"]["name"] == "1d-sine"


def test_readme_python_names_resolve():
    blocks = readme_blocks("python")
    assert blocks, "README has no Python example"
    names = [fracinv_names(ast.parse(block)) for block in blocks]
    assert any(names), "README's Python examples take nothing from fracinv"
    found = [misuse for block_names in names for misuse in misuses(block_names)]
    assert not found, f"README misuses fracinv: {found}"


def test_a_call_that_no_longer_binds_is_caught():
    # solve_truth once took (problem, mesh, alpha, T, n_steps)
    names = fracinv_names(ast.parse(
        "from fracinv.experiments import solve_truth\n"
        "solve_truth(problem, fine, 0.5, 1.0, 1280)\n"))
    assert misuses(names) and "too many positional" in misuses(names)[0]
