"""Modal-to-first-order translation and the propositional reductions."""

from __future__ import annotations

import random

import pytest

from tlk import (
    KripkeStructure,
    Structure,
    Team,
    eval_mtl,
    eval_team,
    parse,
)
from tlk import syntax as S
from tlk.mtl_bridge import (
    ReducedInstance,
    interpret_kripke,
    kripke_vocabulary,
    lift_team,
    reduce_ptl_mc_to_fo_mc,
    reduce_ptl_sat_to_mc,
    reverse_interpret,
    standard_translation,
    subst_props_fo,
)

from helpers import (
    DEEP_MTL_TEXTS,
    ptl_satisfiable,
    random_kripke,
    random_mtl_formula,
    recursion_limit,
    valuation_team,
)


def _kripke():
    return KripkeStructure(
        3,
        frozenset({(0, 1), (1, 2), (2, 2)}),
        {"p": frozenset({1, 2}), "q": frozenset({2})},
    )


# ---------------------------------------------------------------------------
# The standard translation


def test_standard_translation_golden_strings():
    def st(text, var="x"):
        return S.format_formula(standard_translation(parse(text, "mtl"), var))

    assert st("p") == "P(x)"
    assert st("~p") == "~P(x)"
    assert st("!p") == "!P(x)"
    assert st("<>p") == "E y. (R(x,y) & P(y))"
    # The box goes through the guarded disjunction so each half of the
    # split stays within the successor set.
    assert st("[](p & q)") == "A y. ((!R(x,y)) | R(x,y) & (P(y) & Q(y)))"
    # Nested modalities alternate between the two variables.
    assert st("<>(p | (~[]q))") == (
        "E y. (R(x,y) & (P(y) | (~A x. ((!R(y,x)) | R(y,x) & Q(x)))))"
    )
    assert st("<>p", var="y") == "E x. (R(y,x) & P(x))"


def test_standard_translation_is_two_variable():
    rng = random.Random(1212)
    for _ in range(50):
        phi = random_mtl_formula(rng, rng.randint(1, 6), 2)
        out = standard_translation(phi)
        assert S.all_vars(out) <= {"x", "y"}
        assert S.free_vars(out) <= {"x"}


def test_standard_translation_from_a_third_variable():
    # z starts the alternation; the modalities below it use y and x
    assert S.format_formula(standard_translation(parse("<>(([]p) & (~<>q))", "mtl"), "z")) == (
        "E y. (R(z,y) & ((A x. ((!R(y,x)) | R(y,x) & P(x))) & (~E x. (R(y,x) & Q(x)))))"
    )


@pytest.mark.parametrize("shape", sorted(DEEP_MTL_TEXTS))
def test_standard_translation_takes_any_depth(shape):
    text = DEEP_MTL_TEXTS[shape]
    phi = parse(text, "mtl")
    modal = text.count("<>")
    with recursion_limit(750):
        out = standard_translation(phi)
        measures = (S.size(out), S.quantifier_rank(out), S.modal_depth(out), S.all_vars(out))
        printed = S.format_formula(out)
    # each diamond becomes E, & and its edge atom
    assert measures == (S.size(phi) + 2 * modal, modal, 0, {"x", "y"} if modal else {"x"})
    if modal:  # E y. (R(x,y) & (E x. (R(y,x) & (... P(x)))))
        pairs = [("x", "y") if i % 2 == 0 else ("y", "x") for i in range(modal)]
        opening = "(".join(f"E {o}. (R({v},{o}) & " for v, o in pairs)
        assert printed == opening + f"P({pairs[-1][1]})" + ")" + "))" * (modal - 1)
    else:
        assert printed == text.replace("p", "P(x)")


def test_standard_translation_rejects_colliding_proposition_names():
    with pytest.raises(ValueError, match="edge relation"):
        standard_translation(parse("r", "mtl"))
    with pytest.raises(ValueError, match="collide on predicate"):
        standard_translation(parse("foo & Foo", "mtl"))
    with pytest.raises(Exception):
        standard_translation(parse("P(x)", "team"))  # not modal language


# ---------------------------------------------------------------------------
# Structure interpretation


def test_interpret_kripke_builds_edge_and_valuation_predicates():
    A = interpret_kripke(_kripke())
    assert A.domain_size == 3
    assert sorted(A.relations["R"]) == [(0, 1), (1, 2), (2, 2)]
    assert sorted(A.relations["P"]) == [(1,), (2,)]
    assert sorted(A.relations["Q"]) == [(2,)]
    assert A.arities == {"R": 2, "P": 1, "Q": 1}


def test_lift_team_is_one_variable():
    T = lift_team(frozenset({0, 2}))
    assert T.domain == ("x",)
    assert sorted(s.get("x") for s in T.rows) == [0, 2]
    assert lift_team(frozenset(), var="w").domain == ("w",)


def test_reverse_interpret_round_trip():
    K = _kripke()
    K2, worlds = reverse_interpret(interpret_kripke(K), lift_team(frozenset({0, 2})))
    assert K2 == K
    assert worlds == frozenset({0, 2})


def test_reverse_interpret_rejects_non_kripke_shapes():
    with pytest.raises(ValueError, match="missing edge relation"):
        reverse_interpret(
            Structure(2, {"Q": frozenset()}, arities={"Q": 1}), lift_team(frozenset())
        )
    with pytest.raises(ValueError, match="must be unary"):
        reverse_interpret(
            Structure(2, {"R": frozenset(), "S": frozenset()}, arities={"R": 2, "S": 2}),
            lift_team(frozenset()),
        )
    with pytest.raises(ValueError, match="exactly one variable"):
        reverse_interpret(
            interpret_kripke(_kripke()), Team.from_tuples(("x", "y"), [(0, 0)])
        )


def test_kripke_vocabulary():
    v = kripke_vocabulary({"p", "q"})
    assert v.predicates == {"R": 2, "P": 1, "Q": 1}
    with pytest.raises(ValueError, match="edge relation"):
        kripke_vocabulary({"r"})


# ---------------------------------------------------------------------------
# Proposition substitution


def test_subst_props_fo():
    phi = parse("p | (~(q & p))", "mtl")
    mapping = {"p": parse("P(x)", "team"), "q": parse("x = y", "team")}
    out = subst_props_fo(phi, mapping)
    assert S.format_formula(out) == "P(x) | (~(x = y & P(x)))"
    with pytest.raises(ValueError, match="no replacement"):
        subst_props_fo(parse("p & zebra", "mtl"), mapping)
    with pytest.raises(ValueError, match="modality-free"):
        subst_props_fo(parse("<>p", "mtl"), mapping)


# ---------------------------------------------------------------------------
# Reductions


def test_reduce_mc_to_fo_mc_matches_modal_verdicts():
    K = _kripke()
    rng = random.Random(909)
    teams = [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]
    for _ in range(40):
        phi = random_mtl_formula(rng, rng.randint(1, 5), 0)
        for team in teams:
            inst = reduce_ptl_mc_to_fo_mc(K, team, phi)
            assert isinstance(inst, ReducedInstance)
            assert S.quantifier_rank(inst.formula) == 0
            direct = eval_mtl(K, team, phi)
            assert eval_team(inst.structure, inst.team, inst.formula) is direct


def test_reduce_mc_to_fo_mc_rejects_bad_inputs():
    K = _kripke()
    with pytest.raises(ValueError, match="modality-free"):
        reduce_ptl_mc_to_fo_mc(K, frozenset({0}), parse("<>p", "mtl"))
    with pytest.raises(ValueError, match="does not value"):
        reduce_ptl_mc_to_fo_mc(K, frozenset({0}), parse("p & zeta9", "mtl"))


def test_reduce_sat_to_mc_equality_variant_golden():
    inst = reduce_ptl_sat_to_mc(parse("p & (~q)", "mtl"))
    assert S.format_formula(inst.formula) == "E z. A x1. A x2. (top | x1 = z & (~x2 = z))"
    assert inst.prop_vars == {"p": "x1", "q": "x2"}
    assert inst.structure.domain_size == 2
    assert not inst.structure.relations
    assert inst.team == Team.unit()
    assert inst.vocabulary.equality_enabled is True
    assert inst.vocabulary.predicates == {}


def test_reduce_sat_to_mc_predicate_variant_golden():
    inst = reduce_ptl_sat_to_mc(parse("p & (~q)", "mtl"), equality=False)
    assert S.format_formula(inst.formula) == "A x1. A x2. (top | P(x1) & (~P(x2)))"
    assert inst.structure.relations == {"P": frozenset({(1,)})}
    assert inst.vocabulary.equality_enabled is False
    assert inst.vocabulary.predicates == {"P": 1}


def test_reduce_sat_to_mc_agrees_with_brute_force():
    rng = random.Random(5005)
    for _ in range(60):
        phi = random_mtl_formula(rng, rng.randint(1, 5), 0)
        expected = ptl_satisfiable(phi)
        for equality in (True, False):
            inst = reduce_ptl_sat_to_mc(phi, equality=equality)
            got = eval_team(inst.structure, inst.team, inst.formula)
            assert got is expected, S.format_formula(phi)


@pytest.mark.parametrize("shape", sorted(DEEP_MTL_TEXTS))
def test_reduce_sat_to_mc_takes_any_depth(shape):
    phi = parse(DEEP_MTL_TEXTS[shape], "mtl")
    with recursion_limit(750):
        if S.modal_depth(phi):
            with pytest.raises(ValueError, match="modality-free"):
                reduce_ptl_sat_to_mc(phi)
            return
        inst = reduce_ptl_sat_to_mc(phi)
        # E z. A x1. (top | phi*), with p turned into x1 = z
        assert S.size(inst.formula) == S.size(phi) + 4
        assert S.free_vars(inst.formula) == set()
        assert inst.prop_vars == {"p": "x1"}


def test_subst_props_fo_reports_the_first_offender_in_reading_order():
    mapping = {"p": parse("P(x)", "team")}
    for text, message in [
        ("(<>zebra) & zebra", "modality-free team formula: <>zebra"),
        ("zebra & (<>p)", "no replacement for proposition 'zebra'"),
        ("(~<>p) & ([]q)", "modality-free team formula: <>p"),
    ]:
        with pytest.raises(ValueError, match=message):
            subst_props_fo(parse(text, "mtl"), mapping)


def test_reduce_sat_to_mc_rejects_modalities():
    with pytest.raises(ValueError, match="modality-free"):
        reduce_ptl_sat_to_mc(parse("[]p", "mtl"))


# ---------------------------------------------------------------------------
# End-to-end: modal truth equals first-order truth on the interpretation


def test_translation_commutes_with_interpretation():
    rng = random.Random(77)
    for _ in range(40):
        K = random_kripke(rng, rng.randint(1, 3), ("p", "q"))
        team = frozenset(w for w in range(K.worlds) if rng.random() < 0.5)
        phi = random_mtl_formula(rng, rng.randint(1, 5), 2)
        direct = eval_mtl(K, team, phi)
        lifted = eval_team(interpret_kripke(K), lift_team(team), standard_translation(phi))
        assert lifted is direct, S.format_formula(phi)
