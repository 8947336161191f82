"""The ``tlk`` command line: verdicts, exit codes, and output formats."""

from __future__ import annotations

import json

import pytest

from tlk import eval_team, parse
from tlk.cli import EXIT_FALSE, EXIT_NOFILE, EXIT_RESOURCE, EXIT_TRUE, EXIT_USAGE, main
from tlk.structures import parse_model_file

MODEL = """\
domain 3
rel P 1 { (1) (2) }
rel R 2 { (0,1) (1,2) (2,2) }
T = team x y { (0,1) (1,2) }
U = team x { }
K = kripke 3 {
  edges (0,1) (1,2) (2,2) ;
  val p { 1 2 } ;
  val q { 2 } ;
  team { 0 }
}
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "example.model"
    path.write_text(MODEL, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse


def test_parse_reprints_canonical_form(capsys):
    code, out, err = run(capsys, ["parse", "--formula", "E x. dep(x,y)"])
    assert code == EXIT_TRUE
    assert out == "E x. dep(x,y)\n"
    assert err == ""


def test_parse_json_reports_measures(capsys):
    code, out, _ = run(
        capsys, ["parse", "--json", "--formula", "E x. (P(x) & (~R(x,y)))"]
    )
    assert code == EXIT_TRUE
    payload = json.loads(out)
    assert payload == {
        "formula": "E x. (P(x) & (~R(x,y)))",
        "size": 5,
        "width": 2,
        "quantifier_rank": 1,
        "modal_depth": 0,
    }


def test_parse_error_exits_64_on_stderr(capsys):
    code, out, err = run(capsys, ["parse", "--formula", "E x. ("])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("tlk: ")


def test_parse_respects_vocabulary_sidecar(capsys, tmp_path):
    vocab = tmp_path / "narrow.vocab"
    vocab.write_text("pred P 1\nequality off\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["parse", "--formula", "P(x) & Q(x)", "--vocab", str(vocab)],
    )
    assert code == EXIT_USAGE
    assert "Q" in err
    code, _, err = run(
        capsys, ["parse", "--formula", "x = y", "--vocab", str(vocab)]
    )
    assert code == EXIT_USAGE


def test_parse_accepts_custom_dependency_declarations(capsys, tmp_path):
    vocab = tmp_path / "custom.vocab"
    vocab.write_text(
        'pred P 1\ndependency solo 1 "A x. A y. ((!P(x)) | (!P(y)) | x = y)"\n',
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, ["parse", "--formula", "solo(x)", "--vocab", str(vocab)]
    )
    assert code == EXIT_TRUE
    assert out == "solo(x)\n"


# ---------------------------------------------------------------------------
# mc


def test_mc_true_and_false_verdicts(capsys, model_file):
    code, out, _ = run(
        capsys, ["mc", "--structure", model_file, "--formula", "P(y)"]
    )
    assert (code, out) == (EXIT_TRUE, "true\n")
    code, out, _ = run(
        capsys, ["mc", "--structure", model_file, "--formula", "P(x)"]
    )
    assert (code, out) == (EXIT_FALSE, "false\n")


def test_mc_selects_named_team(capsys, model_file):
    code, out, _ = run(
        capsys,
        ["mc", "--structure", model_file, "--formula", "NE P(x)", "--team", "U"],
    )
    assert (code, out) == (EXIT_FALSE, "false\n")


def test_mc_json_includes_stats(capsys, model_file):
    code, out, _ = run(
        capsys,
        ["mc", "--json", "--structure", model_file, "--formula", "dep(x,y)"],
    )
    assert code == EXIT_TRUE
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert set(payload["stats"]) == {"nodes", "splits", "hooks", "alternations"}
    assert payload["stats"]["nodes"] >= 1


def test_mc_json_reports_hooks(capsys, model_file):
    code, out, _ = run(
        capsys,
        ["mc", "--json", "--structure", model_file, "--formula", "(!P(x)) | (P(x) & dep(x,y))"],
    )
    assert code == EXIT_TRUE
    assert json.loads(out)["stats"]["hooks"] >= 1


def test_mc_modal_language_uses_kripke_block(capsys, model_file):
    code, out, _ = run(
        capsys,
        [
            "mc",
            "--structure",
            model_file,
            "--language",
            "mtl",
            "--formula",
            "<>(p & ([]q))",
        ],
    )
    assert (code, out) == (EXIT_TRUE, "true\n")
    code, out, _ = run(
        capsys,
        ["mc", "--structure", model_file, "--language", "mtl", "--formula", "p"],
    )
    assert (code, out) == (EXIT_FALSE, "false\n")


def test_mc_budget_exit_code(capsys, model_file):
    code, _, err = run(
        capsys,
        [
            "mc",
            "--structure",
            model_file,
            "--formula",
            "E x. E y. (dep(x,y) | dep(y,x))",
            "--budget",
            "2",
        ],
    )
    assert code == EXIT_RESOURCE
    assert "budget" in err


def test_mc_missing_file_exits_66(capsys):
    code, _, err = run(
        capsys, ["mc", "--structure", "/nonexistent.model", "--formula", "top"]
    )
    assert code == EXIT_NOFILE
    assert "cannot read" in err


@pytest.mark.parametrize(
    "command, formula",
    [
        ("parse", "(" * 400 + "P(x)" + ")" * 400),
        ("mc", " & ".join(["P(x)"] * 1500)),
    ],
)
def test_deep_nesting_is_a_resource_failure_not_a_verdict(capsys, model_file, command, formula):
    # Each input exhausts Python's recursion limit; that must not read as
    # the verdict "false" (exit 1) or end in a traceback.
    argv = [command, "--formula", formula]
    if command == "mc":
        argv += ["--structure", model_file]
    code, out, err = run(capsys, argv)
    assert code == EXIT_RESOURCE
    assert (out, err) == ("", "tlk: formula nested too deeply\n")


# ---------------------------------------------------------------------------
# mc-so


def test_mc_so_with_assignment_file(capsys, model_file, tmp_path):
    assign = tmp_path / "vals.assign"
    assign.write_text("elem x 1\nrel X 1 { (1) (2) }\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        [
            "mc-so",
            "--structure",
            model_file,
            "--formula",
            "X(x) & (A y. (X(y) -> P(y)))",
            "--assign",
            str(assign),
        ],
    )
    assert (code, out) == (EXIT_TRUE, "true\n")


def test_mc_so_quantified_formula_needs_no_assignment(capsys, model_file):
    code, out, _ = run(
        capsys,
        [
            "mc-so",
            "--structure",
            model_file,
            "--formula",
            "E2 X:1. ((E x. X(x)) & (A x. (X(x) -> P(x))))",
        ],
    )
    assert (code, out) == (EXIT_TRUE, "true\n")


def test_mc_so_reads_the_structures_functions(capsys, tmp_path):
    model = tmp_path / "fun.model"
    model.write_text("domain 2\nfun f { (0)->1 (1)->1 }\n", encoding="utf-8")
    for formula, want in [
        ("E x. f(x) = x", (EXIT_TRUE, "true\n")),
        ("A x. f(x) = x", (EXIT_FALSE, "false\n")),
        # the function variable f shadows the structure's f inside its scope only
        ("(Ef f:1. A x. !(f(x) = x)) & (E x. f(x) = x)", (EXIT_TRUE, "true\n")),
    ]:
        code, out, _ = run(capsys, ["mc-so", "--structure", str(model), "--formula", formula])
        assert (code, out) == want, formula


# ---------------------------------------------------------------------------
# translate


def test_translate_so_golden(capsys):
    code, out, _ = run(
        capsys, ["translate", "so", "--formula", "dep(x)", "--rel", "R0"]
    )
    assert code == EXIT_TRUE
    assert out == (
        "E2 S0:1. ((A z0. (S0(z0) <-> (E x. (R0(x) & x = z0)))) &"
        " (A v. A w. ((!S0(v)) | (!S0(w)) | v = w)))\n"
    )


def test_translate_so_auto_rel_name_avoids_formula_predicates(capsys):
    code, out, _ = run(capsys, ["translate", "so", "--formula", "NE R(x,y)"])
    assert code == EXIT_TRUE
    assert out == "!A x. A y. (R0(x,y) -> (!R(x,y)))\n"


def test_translate_so_sparse_flag(capsys):
    code, out, _ = run(
        capsys,
        ["translate", "so", "--formula", "dep(x)", "--rel", "R0", "--sparse"],
    )
    assert code == EXIT_TRUE
    assert out.startswith("Ep[scaled:1,1] S0:1.")
    code, out, _ = run(
        capsys,
        [
            "translate",
            "so",
            "--formula",
            "dep(x)",
            "--rel",
            "R0",
            "--sparse",
            "poly:7",
        ],
    )
    assert out.startswith("Ep[poly:7] S0:1.")


def test_translate_st_golden(capsys):
    code, out, _ = run(capsys, ["translate", "st", "--formula", "<>p"])
    assert (code, out) == (EXIT_TRUE, "E y. (R(x,y) & P(y))\n")
    code, out, _ = run(
        capsys, ["translate", "st", "--formula", "<>p", "--var", "y"]
    )
    assert out == "E x. (R(y,x) & P(x))\n"


def test_translate_so_reports_variable_errors(capsys):
    code, _, err = run(
        capsys,
        ["translate", "so", "--formula", "dep(x,y)", "--vars", "x"],
    )
    assert code == EXIT_USAGE
    assert "free variables" in err


# ---------------------------------------------------------------------------
# dnf


def test_dnf_golden(capsys):
    code, out, _ = run(capsys, ["dnf", "--json", "--formula", "NE P(x)"])
    assert code == EXIT_TRUE
    assert json.loads(out) == {"disjuncts": 1, "formula": "top & NE (!!P(x))"}


def test_dnf_size_budget_exit(capsys):
    base = "P(x) \\/ Q(x)"
    one = f"~((~({base})) & (~({base})))"
    two = f"~((~({one})) & (~({one})))"
    code, _, err = run(
        capsys, ["dnf", "--formula", two, "--size-budget", "50"]
    )
    assert code == EXIT_RESOURCE
    assert "size budget" in err


# ---------------------------------------------------------------------------
# sat / valid


def test_sat_witness_reparses_and_satisfies(capsys):
    formula = "(NE P(x)) & (NE (!P(x)))"
    code, out, _ = run(
        capsys, ["sat", "--formula", formula, "--max-domain", "2"]
    )
    assert code == EXIT_TRUE
    lines = out.splitlines()
    assert lines[0] == "sat"
    reloaded = parse_model_file("\n".join(lines[1:]))
    team = reloaded.team("T")
    assert eval_team(reloaded.structure, team, parse(formula, "team"))


def test_sat_json_witness_shape(capsys):
    code, out, _ = run(
        capsys,
        ["sat", "--json", "--formula", "(NE P(x)) & (NE (!P(x)))", "--max-domain", "2"],
    )
    assert code == EXIT_TRUE
    payload = json.loads(out)
    assert payload["verdict"] == "sat"
    assert payload["witness"]["structure"]["domain"] == 2
    assert payload["witness"]["team"]["variables"] == ["x"]
    assert sorted(payload["witness"]["team"]["rows"]) == [[0], [1]]


def test_sat_unsat_exit_code(capsys):
    code, out, _ = run(
        capsys, ["sat", "--formula", "~(x = x)", "--max-domain", "2"]
    )
    assert code == EXIT_FALSE
    assert out == "unsat up to domain 2\n"


def test_sat_two_var_method(capsys):
    code, out, _ = run(
        capsys,
        [
            "sat",
            "--method",
            "two-var",
            "--formula",
            "(NE P(x)) & (NE (!P(x)))",
            "--max-domain",
            "2",
        ],
    )
    assert code == EXIT_TRUE
    assert out.startswith("sat\n")


def test_sat_budget_exhaustion_exit(capsys):
    code, out, _ = run(
        capsys,
        [
            "sat",
            "--json",
            "--formula",
            "(NE P(x)) & (NE (!P(x)))",
            "--budget",
            "5",
        ],
    )
    assert code == EXIT_RESOURCE
    assert json.loads(out)["verdict"] == "resource-exhausted"


def test_valid_verdicts(capsys):
    code, out, _ = run(
        capsys, ["valid", "--formula", "x = x", "--max-domain", "2"]
    )
    assert (code, out) == (EXIT_TRUE, "valid up to domain 2\n")
    code, out, _ = run(
        capsys, ["valid", "--formula", "P(x)", "--max-domain", "2"]
    )
    assert code == EXIT_FALSE
    assert out.startswith("counterexample\n")


# ---------------------------------------------------------------------------
# reduce


def test_reduce_ptl_sat_check_runs_the_instance(capsys):
    code, out, _ = run(
        capsys, ["reduce", "ptl-sat", "--formula", "p & (~q)", "--check"]
    )
    assert code == EXIT_TRUE
    assert "# vocabulary" in out
    assert "equality on" in out
    assert "E z. A x1. A x2. (top | x1 = z & (~x2 = z))" in out
    assert out.rstrip().endswith("true")


def test_reduce_ptl_sat_no_equality_variant(capsys):
    code, out, _ = run(
        capsys,
        ["reduce", "ptl-sat", "--formula", "p & (~p)", "--no-equality", "--check"],
    )
    assert code == EXIT_FALSE
    assert "equality off" in out
    assert "pred P 1" in out
    assert out.rstrip().endswith("false")


def test_reduce_ptl_mc_uses_kripke_block(capsys, model_file):
    code, out, _ = run(
        capsys,
        [
            "reduce",
            "ptl-mc",
            "--formula",
            "p | (~q)",
            "--structure",
            model_file,
            "--check",
        ],
    )
    # World 0 lacks q, so the whole team fits the ~q half of the split.
    assert code == EXIT_TRUE
    payload_lines = out.splitlines()
    assert payload_lines[-1] == "true"
    assert "P(x) | (~Q(x))" in out


def test_reduce_ptl_mc_requires_structure(capsys):
    code, _, err = run(capsys, ["reduce", "ptl-mc", "--formula", "p"])
    assert code == EXIT_USAGE
    assert "requires --structure" in err


def test_reduce_json_payload(capsys):
    code, out, _ = run(
        capsys, ["reduce", "ptl-sat", "--json", "--formula", "p"]
    )
    assert code == EXIT_TRUE
    payload = json.loads(out)
    assert payload["prop_vars"] == {"p": "x1"}
    assert payload["formula"] == "E z. A x1. (top | x1 = z)"
    assert payload["structure"]["domain"] == 2
    assert payload["team"]["rows"] == [[]]


# ---------------------------------------------------------------------------
# interface stability


def test_seed_and_jobs_flags_are_accepted_everywhere(capsys):
    code, out, _ = run(
        capsys,
        ["sat", "--seed", "7", "--jobs", "4", "--formula", "P(x)", "--max-domain", "2"],
    )
    assert code == EXIT_TRUE
    assert out.startswith("sat\n")


def test_unknown_subcommand_exits_64(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == EXIT_USAGE
