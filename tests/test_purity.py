"""The package keeps no process state: no function rebinds a module-level
or enclosing name, so every result depends only on the arguments."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spectop"


def test_no_global_or_nonlocal_statements():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []
