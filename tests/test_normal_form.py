"""Disjunctive normal form, the rewrite laws, and satisfiability transfer."""

from __future__ import annotations

import random

import pytest

from tlk import Assignment, BudgetExceeded, eval_fo, eval_team, parse
from tlk import syntax as S
from tlk.normal_form import (
    DNF,
    LAWS,
    Disjunct,
    apply_law,
    build_gamma,
    dnf_expand,
    reconstruct,
)

from tlk import Structure, Team

from helpers import all_teams, random_structure, random_team_formula


def _pqr_structure(rng):
    """A 2-element structure interpreting P, Q (unary) and R (binary)."""
    n = 2
    def rel(arity):
        import itertools
        return frozenset(
            t for t in itertools.product(range(n), repeat=arity) if rng.random() < 0.5
        )
    return Structure(
        n,
        {"P": rel(1), "Q": rel(1), "R": rel(2)},
        arities={"P": 1, "Q": 1, "R": 2},
    )


def _t(text):
    return parse(text, "team")


# ---------------------------------------------------------------------------
# Disjuncts and normal forms


def test_disjunct_requires_first_order_parts():
    ok = Disjunct(_t("P(x)"), (_t("Q(x)"),))
    assert S.format_formula(ok.formula()) == "P(x) & NE Q(x)"
    assert ok.weight() == S.size(_t("P(x)")) + S.size(_t("Q(x)"))
    with pytest.raises(ValueError, match="first-order"):
        Disjunct(_t("dep(x)"))
    with pytest.raises(ValueError, match="first-order"):
        Disjunct(_t("P(x)"), (_t("~Q(x)"),))


def test_dnf_requires_a_disjunct():
    with pytest.raises(ValueError, match="at least one"):
        DNF(())
    one = DNF((Disjunct(_t("P(x)")),))
    assert S.format_formula(reconstruct(one)) == "P(x)"
    two = DNF((Disjunct(_t("P(x)")), Disjunct(_t("Q(x)"), (_t("top"),))))
    assert S.format_formula(reconstruct(two)) == "P(x) \\/ Q(x) & NE top"


def test_reconstruct_nests_logarithmically():
    # 240 disjuncts: a left-nested disjunction of them was 730 levels
    # deep, which eval_team refuses with NestingTooDeep
    phi = _t("E x. ((~~P(x)) \\/ (~~P(x)))")
    back = reconstruct(dnf_expand(phi))
    assert S.check_language(back, "team") == 39
    T = Team.from_tuples((), [()])
    for P in ((), (0,)):
        A = Structure(2, {"P": frozenset((v,) for v in P)}, arities={"P": 1})
        assert eval_team(A, T, back) is eval_team(A, T, phi) is bool(P)


# ---------------------------------------------------------------------------
# Expansion


def _expansion(text):
    dnf = dnf_expand(_t(text))
    return [
        (S.format_formula(d.alpha), [S.format_formula(b) for b in d.betas])
        for d in dnf.disjuncts
    ]


def test_expand_flat_formula_is_a_single_plain_disjunct():
    assert _expansion("P(x)") == [("P(x)", [])]
    assert _expansion("E y. R(x,y)") == [("E y. R(x,y)", [])]


def test_expand_nonemptiness_witness():
    assert _expansion("NE P(x)") == [("top", ["!!P(x)"])]


def test_expand_boolean_negation_of_flat():
    assert _expansion("~P(x)") == [("top", ["!P(x)"])]


def test_expand_conjunction_merges_witnesses():
    assert _expansion("P(x) & (NE R(x,y))") == [("P(x) & top", ["!!R(x,y)"])]


def test_expand_split_disjunction_guards_witnesses():
    assert _expansion("(NE P(x)) | (NE Q(x))") == [
        ("top | top", ["top & (!!P(x))", "top & (!!Q(x))"])
    ]


def test_expand_exists_guards_witnesses_with_alpha():
    assert _expansion("E y. (NE P(y))") == [("E y. top", ["E y. (top & (!!P(y)))"])]


def test_expand_forall_keeps_witnesses_existential():
    assert _expansion("A y. (P(y) & (NE R(x,y)))") == [
        ("A y. (P(y) & top)", ["E y. !!R(x,y)"])
    ]


def test_expand_boolean_disjunction_multiplies_disjuncts():
    assert _expansion("P(x) \\/ Q(x)") == [
        ("top", ["!(top & top)"]),
        ("!!P(x)", []),
        ("!!Q(x)", []),
    ]


def test_expand_rejects_dependency_atoms_and_foreign_languages():
    with pytest.raises(ValueError, match="dependency atoms"):
        dnf_expand(_t("dep(x,y)"))
    with pytest.raises(Exception):
        dnf_expand(parse("<>p", "mtl"))


def test_expand_size_budget_is_enforced():
    # Chained Boolean negations of splits multiply the disjunct count,
    # so nesting twice is already past any small budget.
    base = "P(x) \\/ Q(x)"
    one = f"~((~({base})) & (~({base})))"
    two = f"~((~({one})) & (~({one})))"
    with pytest.raises(BudgetExceeded, match="size budget"):
        dnf_expand(_t(two), size_budget=50)
    # An adequate budget lets the single-level expansion finish.
    done = dnf_expand(_t(one), size_budget=100_000)
    assert len(done.disjuncts) == 1260


def test_expand_reconstruct_preserves_team_semantics():
    rng = random.Random(31337)
    xy = ("x", "y")
    teams = list(all_teams(2, xy))
    checked = 0
    for _ in range(120):
        phi = random_team_formula(rng, rng.randint(1, 6), xy, dep_rate=0.0)
        if not S.free_vars(phi) <= {"x", "y"}:
            continue
        try:
            psi = reconstruct(dnf_expand(phi, size_budget=50_000))
        except BudgetExceeded:
            continue
        A = random_structure(rng, 2)
        for T in teams:
            assert eval_team(A, T, psi) is eval_team(A, T, phi), S.format_formula(phi)
        checked += 1
    assert checked >= 80


# ---------------------------------------------------------------------------
# The nine laws


LAW_GOLDEN = {
    1: ("P(x) & (NE Q(x)) & (NE R(x,y))", "P(x) & NE Q(x) | P(x) & NE R(x,y)"),
    2: (
        "(P(x) & (NE Q(x))) | (P(y) & (NE Q(y)))",
        "(P(x) | P(y)) & NE (P(x) & Q(x)) & NE (P(y) & Q(y))",
    ),
    3: ("(P(x) \\/ Q(x)) | R(x,y)", "P(x) | R(x,y) \\/ Q(x) | R(x,y)"),
    4: ("P(x) | (Q(x) \\/ R(x,y))", "P(x) | Q(x) \\/ P(x) | R(x,y)"),
    5: ("E y. (P(y) \\/ Q(y))", "(E y. P(y)) \\/ (E y. Q(y))"),
    6: ("E y. (P(y) | Q(y))", "(E y. P(y)) | (E y. Q(y))"),
    7: ("E y. (P(y) & (NE Q(y)))", "(E y. P(y)) & NE (E y. (P(y) & Q(y)))"),
    8: ("A y. (P(y) & (NE Q(y)))", "(A y. P(y)) & (A y. NE Q(y))"),
    9: ("A y. (~P(y))", "~A y. P(y)"),
}


def test_law_registry_names():
    assert [LAWS[i][0] for i in range(1, 10)] == [
        "and_e_over_or",
        "or_of_and_e",
        "ovee_out_of_or_left",
        "ovee_out_of_or_right",
        "exists_over_ovee",
        "exists_over_or",
        "exists_over_and_e",
        "forall_over_and",
        "forall_over_boolnot",
    ]


@pytest.mark.parametrize("index", sorted(LAW_GOLDEN))
def test_law_golden_instances_round_trip(index):
    lhs_text, rhs_text = LAW_GOLDEN[index]
    lhs = _t(lhs_text)
    out = apply_law(index, lhs, "lr")
    assert out is not None
    assert S.format_formula(out) == rhs_text
    back = apply_law(index, out, "rl")
    assert back == lhs


@pytest.mark.parametrize("index", sorted(LAW_GOLDEN))
def test_law_mismatch_returns_none(index):
    # A bare flat atom matches no law in either direction.
    assert apply_law(index, _t("P(x)"), "lr") is None
    assert apply_law(index, _t("P(x)"), "rl") is None


def test_apply_law_validates_arguments():
    with pytest.raises(ValueError, match="law index"):
        apply_law(0, _t("P(x)"))
    with pytest.raises(ValueError, match="law index"):
        apply_law(10, _t("P(x)"))
    with pytest.raises(ValueError, match="direction"):
        apply_law(1, _t("P(x)"), "sideways")


def test_law_golden_instances_preserve_team_semantics():
    rng = random.Random(8888)
    xy = ("x", "y")
    teams = list(all_teams(2, xy))
    for index, (lhs_text, _) in LAW_GOLDEN.items():
        lhs = _t(lhs_text)
        rhs = apply_law(index, lhs, "lr")
        for _ in range(3):
            A = _pqr_structure(rng)
            for T in teams:
                assert eval_team(A, T, lhs) is eval_team(A, T, rhs), index


# ---------------------------------------------------------------------------
# Satisfiability transfer


def test_build_gamma_golden():
    d = Disjunct(_t("P(x)"), (_t("Q(x)"), _t("R(x,y)")))
    gamma = build_gamma(d)
    assert S.format_formula(gamma) == (
        "(E x. E y. (P(x) & Q(x))) & (E x. E y. (P(x) & R(x,y)))"
    )
    assert S.free_vars(gamma) == frozenset()


def test_build_gamma_without_witnesses_is_top():
    # The empty team satisfies any flat alpha, so the transfer is trivial.
    assert build_gamma(Disjunct(_t("A x. P(x)"))) == S.TOP


def test_build_gamma_rejects_extra_variables():
    with pytest.raises(ValueError, match="beyond x, y"):
        build_gamma(Disjunct(_t("P(z)"), (_t("Q(x)"),)))


def test_build_gamma_matches_team_satisfiability():
    rng = random.Random(606)
    for _ in range(30):
        alpha = _t(rng.choice(["P(x)", "R(x,y)", "P(x) | Q(y)", "top", "!P(x)"]))
        betas = tuple(
            _t(rng.choice(["Q(x)", "R(y,x)", "P(y)"]))
            for _ in range(rng.randint(0, 2))
        )
        d = Disjunct(alpha, betas)
        gamma = build_gamma(d)
        A = _pqr_structure(rng)
        classical = eval_fo(A, Assignment.of(), gamma)
        team_sat = any(
            eval_team(A, T, d.formula()) for T in all_teams(2, ("x", "y"))
        )
        assert classical is team_sat
