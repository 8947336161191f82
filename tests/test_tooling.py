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


def _readme_code_lines():
    inside = False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside:
            yield line


def test_readme_commands_name_files_that_exist():
    # A python3/pytest command in the README that names a moved or deleted
    # file fails for every reader who copies it.
    named = [
        word.split("::")[0]
        for line in _readme_code_lines()
        for words in [line.split("#")[0].split()]
        if words and words[0] in ("python", "python3", "pytest")
        for word in words[1:]
        if not word.startswith("-") and ("/" in word or word.endswith(".py"))
    ]
    assert named
    assert [path for path in named if not (ROOT / path).exists()] == []


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


# Every function of the package that calls itself, with the bound that
# keeps its recursion inside Python's limit.  The syntax passes run on
# ``syntax.fold``'s explicit stack and take formulas of any depth, so a
# new self-recursive function fails the test below until its bound is
# stated here.
_RECURSIVE = {
    # terms and formulas the parser nests at most MAX_TEAM_DEPTH deep,
    # and that _Prepared refuses past that depth
    "evaluator.eval_fo": "MAX_TEAM_DEPTH",
    "evaluator.eval_ml": "MAX_TEAM_DEPTH",
    "structures.eval_term": "MAX_TEAM_DEPTH",
    "syntax.term_vars": "MAX_TEAM_DEPTH",
    "syntax.term_functions": "MAX_TEAM_DEPTH",
    # the second-order passes refuse formulas past MAX_DEPTH
    "so_bridge._nnf": "MAX_DEPTH",
    "so_bridge._eta": "MAX_DEPTH",
    "so_bridge._eval_so_term": "MAX_DEPTH",
    "syntax._shallow": "40 levels",
    "syntax.ovee_all": "logarithmic in the number of disjuncts",
    "syntax.pred_names": "one level, into a dependency's defining sentence",
    # open: ROADMAP item 8 (a deep formula ends in RecursionError, which
    # the command line maps to exit 2)
    "normal_form._Expander.expand": "none yet",
}


def _self_calls(tree: ast.Module):
    """The qualified names of the functions that call themselves by name
    (methods through ``self``)."""

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for sub in ast.walk(child):
                    if not isinstance(sub, ast.Call):
                        continue
                    f = sub.func
                    if (not in_class and isinstance(f, ast.Name) and f.id == name) or (
                        in_class and isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"
                    ):
                        yield ".".join(scope + [name])
                        break
                yield from visit(child, scope + [name], False)
            else:
                yield from visit(child, scope, in_class)

    return set(visit(tree, [], False))


def test_self_recursive_functions_are_the_allowed_ones():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _self_calls(ast.parse(path.read_text(), str(path)))
    }
    assert found == set(_RECURSIVE)
