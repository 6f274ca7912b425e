"""Each config file in demos/ runs, as written, through the command its name
begins with and writes that command's files.  The README's example config
must resolve, and each of its Python blocks runs in a fresh namespace."""

import re
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
    blocks = re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    assert blocks, f"README has no {language} block"
    return blocks


def test_readme_config_resolves():
    (config,) = readme_blocks("ini")
    cfg = resolve_config(parse_config_text(config), [])
    assert cfg["problem"]["name"] == "1d-sine"


@pytest.mark.parametrize("n", range(len(readme_blocks("python"))))
def test_readme_python_block_runs(n):
    # a name fracinv no longer has, or a call that no longer binds, raises
    exec(compile(readme_blocks("python")[n], f"README.md python block {n}", "exec"), {})
