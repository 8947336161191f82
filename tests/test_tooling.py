"""Repository-wide checks on the package source."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tlk import parse_model_file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tlk"


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


def test_readme_model_file_examples_parse():
    # The README documents the model-file format by example; the reader
    # must accept every example it shows.
    examples = re.findall(r"```text\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert examples
    for text in examples:
        model = parse_model_file(text)
        assert model.structure is not None or model.teams or model.kripkes
