"""Repository-wide checks on the package source."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tlk"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a soundness check written
    # as one would silently vanish; checks raise explicitly instead.
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
