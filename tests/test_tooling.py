"""Repository-wide checks on the package source."""

from __future__ import annotations

import ast
import importlib
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


# perfbench/bench.py still wraps these Team-level operations, but the
# evaluators no longer call them, so their wrappers measure nothing; they
# stay importable from tlk.evaluator until the benchmark drops them.
_WRAPPED_BUT_UNCALLED = {
    ("tlk.evaluator", name) for name in ("duplicate", "successor_teams", "supplement")
}


def _called_names(module: str) -> set[str]:
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    return {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_benchmark_wraps_names_the_program_calls():
    # perfbench/bench.py traces the evaluator and the solver by replacing
    # module-level names of tlk.evaluator and tlk.solver; a name that a
    # refactor removes, moves or stops calling would break its traced runs
    # or leave a per-layer reading at zero.  The file is read, not
    # imported: importing it runs the host-speed probe.
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text())
    aliases = {
        alias.asname or alias.name: f"tlk.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tlk"
        for alias in node.names
    }
    install = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "install_tracing"
    )
    loops = {
        node.target.id: [e.value for e in node.iter.elts]
        for node in ast.walk(install)
        if isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List))
    }
    wrapped = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "install":
            module, name = node.args[0], node.args[1]
            names = [name.value] if isinstance(name, ast.Constant) else loops[name.id]
            wrapped |= {(aliases[module.id], n) for n in names}
    assert {module for module, _ in wrapped} == {"tlk.evaluator", "tlk.solver"}
    checked = sorted(wrapped - _WRAPPED_BUT_UNCALLED)
    missing = [
        (module, name) for module, name in checked
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    uncalled = [(module, name) for module, name in checked if name not in _called_names(module)]
    assert uncalled == []
