"""Print every statement of ``src/fracinv`` that no tier-1 test executes.

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this process (by default the tier-1 run, ``-q
--continue-on-collection-errors`` over the configured test paths) under a
``sys.settrace`` line tracer that watches only frames of ``src/fracinv``,
and prints ``path:line: source`` for each statement none of whose own lines
(a compound statement's header, not its body) raised a line event.  A
statement without bytecode, such as a docstring, is not counted, and neither
is the body of a module's ``if __name__ == "__main__":`` block, which runs
only as a script.  Code that tests run only in a subprocess counts as
untested.  It needs nothing beyond the standard library and pytest, and
exits with pytest's status if that is not 0, else 1 if any statement is
printed, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracinv"


def bytecode_lines(source: str, path: Path) -> set[int]:
    """Lines that carry bytecode in the module or in any code object nested
    in it."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(source: str, path: Path) -> dict[int, set[int]]:
    """First line -> own lines with bytecode, for every statement (and
    except clause) of the module outside a main block."""
    code = bytecode_lines(source, path)
    tree = ast.parse(source)
    skip = {id(s) for node in tree.body if _is_main_block(node)
            for s in ast.walk(node) if s is not node}
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or id(node) in skip:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(start, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        if own & code:
            found[start] = own & code
    return found


def _is_main_block(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and ast.unparse(node.test) == "__name__ == '__main__'")


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest  # imported before tracing starts, fracinv only after

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, seen = source.splitlines(), executed.get(str(path), set())
        for start, own in sorted(statements(source, path).items()):
            if not own & seen:
                print(f"{path.relative_to(ROOT)}:{start}: {lines[start - 1].strip()}")
                missed += 1
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
