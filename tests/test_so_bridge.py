"""Second-order values, the SO evaluator, and the team-to-SO compilers."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, note, settings
from hypothesis import strategies as st

from tlk import (
    Assignment,
    Budget,
    BudgetExceeded,
    EvalStats,
    Structure,
    Team,
    eval_team,
    parse,
)
from tlk import so_bridge
from tlk import syntax as S
from tlk.so_bridge import (
    EMPTY_SO_ASSIGNMENT,
    FunValue,
    RelValue,
    SOAssignment,
    eval_so,
    parse_so_assignment,
    sufficient_bound,
    team_relation,
    to_nnf,
    translate_eta,
    translate_zeta,
)

from helpers import (
    SO_ELEMENTS,
    SmallDraws,
    random_so_sentence,
    random_structure,
    random_team,
    random_team_formula,
)

XY = ("x", "y")


def _structure():
    return Structure(
        2,
        {"P": frozenset({(0,)}), "R": frozenset({(0, 1)})},
        arities={"P": 1, "R": 2},
    )


# ---------------------------------------------------------------------------
# Second-order values


def test_rel_value_normalises_and_hashes():
    r1 = RelValue.of(2, [(0, 1), (1, 0)])
    r2 = RelValue.of(2, [(1, 0), (0, 1)])
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert r1.arity == 2
    assert (0, 1) in r1.tuples


def test_fun_value_apply_and_equality():
    f = FunValue.of(1, {(0,): 1, (1,): 0})
    assert f.apply((0,)) == 1
    assert f.apply((1,)) == 0
    with pytest.raises(KeyError):
        f.apply((5,))
    g = FunValue.of(1, {(1,): 0, (0,): 1})
    assert f == g
    assert hash(f) == hash(g)


def test_so_assignment_bind_get_restrict():
    J = SOAssignment.of(x=0)
    J2 = J.bind("X", RelValue.of(1, [(0,)]))
    assert J2.get("x") == 0
    assert J2.get("X").arity == 1
    assert not J.has("X")  # bind is persistent, not mutating
    assert J2.has("X")
    kept = J2.restrict({"X"})
    assert kept.has("X") and not kept.has("x")
    with pytest.raises(KeyError):
        J.get("X")
    assert EMPTY_SO_ASSIGNMENT.entries == ()


def test_team_relation_projects_in_variable_order():
    A = Structure(3, {}, arities={})
    T = Team.from_tuples(("x", "y"), [(0, 1), (2, 0)])
    assert sorted(team_relation(A, T, ("x", "y")).tuples) == [(0, 1), (2, 0)]
    assert sorted(team_relation(A, T, ("y", "x")).tuples) == [(0, 2), (1, 0)]
    assert sorted(team_relation(A, T, ("x",)).tuples) == [(0,), (2,)]


def test_parse_so_assignment_formats():
    text = """
    # an assignment
    elem x 1
    rel X 2 { (0,1) (1,0) }
    fun f 1 { (0)->1 (1)->0 }
    """
    J = parse_so_assignment(text)
    assert J.get("x") == 1
    assert sorted(J.get("X").tuples) == [(0, 1), (1, 0)]
    assert J.get("f").apply((0,)) == 1
    assert J.has("x") and not J.has("nope")


def test_parse_so_assignment_rejects_bad_lines():
    from tlk.syntax import ParseError

    with pytest.raises(ParseError):
        parse_so_assignment("what is this")
    with pytest.raises(ParseError):
        parse_so_assignment("rel X 2 { (0,1,2) }")  # tuple arity mismatch
    with pytest.raises(ParseError):
        parse_so_assignment("fun f 2 { (0)->1 }")  # entry arity mismatch


@pytest.mark.parametrize(
    "text",
    [
        "elem y 0\nfun f 1 { (0)->1 (1)->0 junk }",  # stray text, as model files reject it
        "elem y 0\nrel X two { (0) }",
        "elem y 0\nelem x one",
        "elem y 0\nelem y 1",  # a later entry never overrides an earlier one
        "elem y 0\nrel y 1 { (0) }",
        "rel X 1 { (0) }\nfun X 1 { (0)->0 (1)->0 }",
        "elem y 0\nfun f 1 { (0)->1 (1)->0 (0)->0 }",
    ],
)
def test_parse_so_assignment_errors_carry_the_line(text):
    from tlk.syntax import ParseError

    with pytest.raises(ParseError) as info:
        parse_so_assignment(text)
    assert info.value.line == 2


# ---------------------------------------------------------------------------
# Negation normal form


def test_to_nnf_golden_shapes():
    def nnf(text):
        return S.format_formula(to_nnf(parse(text, "so")))

    assert nnf("P(x) -> R(x,y)") == "(!P(x)) | R(x,y)"
    assert nnf("P(x) <-> Q(x)") == "((!P(x)) | Q(x)) & ((!Q(x)) | P(x))"
    assert nnf("!(!P(x))") == "P(x)"
    assert nnf("!(E y. (P(y) & (A z. R(z,y))))") == "A y. ((!P(y)) | (E z. !R(z,y)))"
    assert nnf("!(E2 X:1. X(x))") == "A2 X:1. !X(x)"
    assert nnf("!(Ep[scaled:2,1] X:1. X(x))") == "Ap[scaled:2,1] X:1. !X(x)"
    assert nnf("!(Ef F:1. P(F(x)))") == "Af F:1. !P(F(x))"
    assert nnf("!top") == "bot"
    assert nnf("!bot") == "top"
    assert nnf("!(P(x) <-> Q(x))") == "P(x) & (!Q(x)) | Q(x) & (!P(x))"
    assert nnf("!(P(x) -> Q(x))") == "P(x) & (!Q(x))"
    assert nnf("!(A2 X:1. X(x))") == "E2 X:1. !X(x)"
    assert nnf("!(Ap[scaled:2,1] X:1. X(x))") == "Ep[scaled:2,1] X:1. !X(x)"
    assert nnf("!(Af F:1. P(F(x)))") == "Ef F:1. !P(F(x))"
    assert nnf("!(A x. P(x))") == "E x. !P(x)"


def test_to_nnf_preserves_so_truth():
    A = _structure()
    cases = [
        ("!(P(x) -> R(x,y))", {"x": 0, "y": 1}),
        ("!((E y. R(x,y)) <-> P(x))", {"x": 1, "y": 0}),
        ("!(A2 X:1. ((E y. X(y)) -> X(x)))", {"x": 0}),
    ]
    for text, binding in cases:
        phi = parse(text, "so")
        J = SOAssignment.of(binding)
        assert eval_so(A, J, to_nnf(phi)) is eval_so(A, J, phi)


def _distinct_nodes(phi):
    seen, stack = set(), [phi]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(S.children(node))
    return len(seen)


def test_to_nnf_of_nested_iffs_is_a_dag_of_linear_size():
    # each <-> reads both its sides at both polarities, so as a tree the
    # NNF of 15 nested <-> would have over 4^15 nodes
    A = Structure(
        3, {"P": frozenset({(0,), (1,)}), "Q": frozenset({(1,)})}, arities={"P": 1, "Q": 1}
    )
    text = "P(x)"
    for i in range(15):
        text = f"({'Q' if i % 2 else 'P'}(x) <-> {text})"
    for quantifier, expected in (("A", all), ("E", any)):
        phi = parse(f"{quantifier} x. {text}", "so")
        assert _distinct_nodes(to_nnf(phi)) <= 10 * 16
        verdicts = []
        for a in range(3):
            p, q = a in (0, 1), a == 1
            value = p
            for i in range(15):
                value = (q if i % 2 else p) == value
            verdicts.append(value)
        assert eval_so(A, EMPTY_SO_ASSIGNMENT, phi) is expected(verdicts)
        assert eval_so(A, EMPTY_SO_ASSIGNMENT, phi, memo=False) is expected(verdicts)


# ---------------------------------------------------------------------------
# The SO evaluator


def test_eval_so_element_quantifiers():
    A = _structure()
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, parse("E x. E y. R(x,y)", "so")) is True
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, parse("A x. E y. R(x,y)", "so")) is False
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, parse("E x. ((!P(x)) & (A y. !R(x,y)))", "so")) is True


def test_eval_so_relation_quantifiers():
    A = _structure()
    # X = {0} satisfies: contains x and only P-elements.
    assert (
        eval_so(A, SOAssignment.of(x=0), parse("E2 X:1. (X(x) & (A y. (X(y) -> P(y))))", "so"))
        is True
    )
    assert (
        eval_so(A, SOAssignment.of(x=1), parse("E2 X:1. (X(x) & (A y. (X(y) -> P(y))))", "so"))
        is False
    )
    # Every unary relation is empty or inhabited.
    assert (
        eval_so(A, EMPTY_SO_ASSIGNMENT, parse("A2 X:1. ((E x. X(x)) | (A x. (!X(x))))", "so"))
        is True
    )


def test_eval_so_function_quantifiers():
    A = _structure()
    # R = {(0,1)} is not total, so no choice function for it exists...
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, parse("Ef F:1. A x. R(x,F(x))", "so")) is False
    # ...but one restricted to P = {0} does (F(0) = 1).
    assert (
        eval_so(A, EMPTY_SO_ASSIGNMENT, parse("Ef F:1. A x. (P(x) -> R(x,F(x)))", "so")) is True
    )


def test_eval_so_sparse_quantifier_respects_cardinality_cap():
    A = _structure()
    small_subset_of_p = parse(
        "Ep[scaled:1,0] X:1. ((E x. X(x)) & (A x. (X(x) -> P(x))))", "so"
    )
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, small_subset_of_p) is True
    # The full domain has 2 elements; a 1-element cap cannot cover it,
    # while the unbounded quantifier can.
    capped_total = parse("Ep[scaled:1,0] X:1. A x. X(x)", "so")
    free_total = parse("E2 X:1. A x. X(x)", "so")
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, capped_total) is False
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, free_total) is True


def test_eval_so_alternation_meter():
    A = _structure()
    meters = [
        ("E x. E y. R(x,y)", 0),
        ("A x. E y. ((!R(x,y)) | R(x,y))", 1),
        ("E2 X:1. A2 Y:1. E x. ((X(x) | Y(x)) | P(x))", 2),
    ]
    for text, expected in meters:
        stats = EvalStats()
        eval_so(A, EMPTY_SO_ASSIGNMENT, parse(text, "so"), memo=False, guards=False, stats=stats)
        assert stats.alternations == expected, text


def test_eval_so_vacuous_quantifier_skips_enumeration():
    A = _structure()
    J = SOAssignment.of(x=0)
    vacuous = EvalStats()
    eval_so(A, J, parse("A2 X:3. x = x", "so"), stats=vacuous, memo=False)
    # An unused arity-3 relation variable has 2**8 candidates; skipping
    # the enumeration leaves just the quantifier and its body.
    assert vacuous.nodes == 2
    used = EvalStats()
    eval_so(
        A,
        J,
        parse("A2 X:3. (x = x & (X(x,x,x) | (!X(x,x,x))))", "so"),
        stats=used,
        memo=False,
    )
    assert used.nodes > 100


def test_eval_so_reports_unassigned_and_mismatched_variables():
    A = _structure()
    relx = S.RelApp("X", (S.Var("x"),))
    with pytest.raises(ValueError, match="unassigned"):
        eval_so(A, SOAssignment.of(x=0), relx)
    with pytest.raises(ValueError, match="arity 2, used with 1"):
        eval_so(A, SOAssignment.of({"X": RelValue.of(2, [(0, 1)]), "x": 0}), relx)
    with pytest.raises(ValueError, match="not a relation variable"):
        eval_so(A, SOAssignment.of({"X": 3, "x": 0}), relx)
    with pytest.raises(ValueError, match="unassigned"):
        eval_so(A, EMPTY_SO_ASSIGNMENT, parse("P(x)", "so"))


def test_eval_so_budget_and_stats():
    A = _structure()
    # A tautology forces the universal quantifier through all 16 binary
    # relations, so a small budget must run out along the way.
    phi = parse("A2 X:2. ((E x. E y. X(x,y)) | (A x. A y. (!X(x,y))))", "so")
    with pytest.raises(BudgetExceeded):
        eval_so(A, EMPTY_SO_ASSIGNMENT, phi, Budget(max_steps=20), guards=False)
    stats = EvalStats()
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, phi, stats=stats, guards=False) is True
    assert stats.nodes > 50
    # The first disjunct guards X: any X with a tuple makes the body
    # true, so with guards only the empty relation is tried.
    guarded = EvalStats()
    assert eval_so(A, EMPTY_SO_ASSIGNMENT, phi, stats=guarded) is True
    assert guarded.nodes < 20


def _fun_structure():
    """Unary P = {0}; f(0) = f(1) = 1."""
    return Structure(2, {"P": frozenset({(0,)})}, {"f": {(0,): 1, (1,): 1}})


@pytest.mark.parametrize(
    "text, want",
    [
        ("E x. f(x) = x", True),
        ("A x. f(x) = f(f(x))", True),
        ("A x. (P(x) -> f(x) = x)", False),
        # a function variable shadows the structure's f inside its scope only
        ("(Ef f:1. A x. !(f(x) = x)) & (E x. f(x) = x)", True),
        ("(E x. f(x) = x) & (Ef f:1. A x. !(f(x) = x))", True),
        ("(A x. f(x) = f(f(x))) & (Ef f:1. E x. !(f(x) = f(f(x))))", True),
        ("Af f:1. E x. f(x) = x", False),
        # the structure's f is free while f is bound at another sort
        ("(E y. f(y) = y) & (A f. P(f))", False),
        ("(A f. P(f)) & (E y. f(y) = y)", False),
        ("(E x. f(x) = x) & (E2 f:1. E x. f(x))", True),
        ("(E x. f(x) = x) & (A2 f:1. E x. f(x))", False),
        ("(E x. f(x) = x) & (Ef g:1. E x. g(f(x)) = x)", True),
    ],
)
def test_eval_so_reads_the_structures_functions(text, want):
    phi = parse(text, "so")
    for memo in (True, False):
        assert eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, phi, memo=memo) is want, memo


def test_eval_so_an_assigned_function_overrides_the_structures():
    swap = FunValue.of(1, {(0,): 1, (1,): 0})
    for memo in (True, False):
        J = SOAssignment.of(f=swap)
        assert eval_so(_fun_structure(), J, parse("E x. f(x) = x", "so"), memo=memo) is False


def test_eval_so_a_shared_atom_inside_and_outside_a_shadowing_quantifier():
    x = S.Var("x")
    fixpoint = S.Eq(S.Func("f", (x,)), x)  # one object, under Ef f and outside it
    phi = S.And(
        S.Exists("x", fixpoint), S.ExistsFun("f", 1, S.Forall("x", S.Not(fixpoint)))
    )
    for memo in (True, False):
        assert eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, phi, memo=memo) is True
        flipped = S.And(phi.right, phi.left)
        assert eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, flipped, memo=memo) is True


@pytest.mark.parametrize(
    "text, message",
    [
        ("E x. (!P(x,x))", "relation 'P' has arity 1, used with 2"),
        ("E x. P(x,x)", "relation 'P' has arity 1, used with 2"),
        ("E x. Q(x)", "structure has no relation 'Q'"),
        ("E x. g(x) = x", "structure has no function 'g'"),
        ("(Ef g:1. E x. g(x) = x) & (E x. g(x) = x)", "structure has no function 'g'"),
        ("E x. E y. f(x,y) = x", "function 'f' has arity 1, used with 2"),
        ("E x. P(f(x,x))", "function 'f' has arity 1, used with 2"),
    ],
)
def test_eval_so_checks_the_structures_symbols(text, message):
    phi = parse(text, "so")
    for memo in (True, False):
        with pytest.raises(ValueError) as info:
            eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, phi, memo=memo)
        assert str(info.value) == message


def test_eval_so_checks_an_assigned_functions_arity():
    swap = SOAssignment.of(g=FunValue.of(1, {(0,): 1, (1,): 0}))
    for memo in (True, False):
        with pytest.raises(ValueError, match="function 'g' has arity 1, used with 2"):
            eval_so(_fun_structure(), swap, parse("E x. E y. g(x,y) = x", "so"), memo=memo)


def test_eval_so_a_bound_function_is_not_the_structures():
    # f:2 under Ef is a function variable; only the free, unary f is checked
    phi = parse("(Ef f:2. E x. f(x,x) = x) & (E x. f(x) = x)", "so")
    for memo in (True, False):
        assert eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, phi, memo=memo) is True


def test_eval_so_a_name_evaluation_never_reads_may_stay_unassigned():
    for memo in (True, False):
        assert eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, parse("top | P(x)", "so"), memo=memo)
        with pytest.raises(ValueError, match="unassigned variable 'x'"):
            eval_so(_fun_structure(), EMPTY_SO_ASSIGNMENT, parse("bot | P(x)", "so"), memo=memo)


# ---------------------------------------------------------------------------
# The preparation pass


def _naive_names(node):
    return S.free_vars(node) | S.free_relation_vars(node) | S.free_function_vars(node)


def _prepared(sentence, assigned=()):
    ev = so_bridge._SOEvaluator(_structure(), None, EvalStats(), True)
    ev.prepare(sentence, assigned)
    return ev


def _assert_naive_tables(sentence):
    ev = _prepared(sentence)
    for node in S.walk(sentence):
        assert ev.names[id(node)] == _naive_names(node), S.format_formula(node)
        assert ev.keynames[id(node)] == tuple(sorted(_naive_names(node)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_prepared_names_equal_the_naive_free_names(seed):
    rng = random.Random(seed)
    xy = ("x", "y")
    phi = random_team_formula(rng, rng.randint(1, 5), xy, dep_rate=0.4)
    xs = tuple(sorted(S.free_vars(phi) | set(xy)))
    eta = to_nnf(translate_eta(phi, xs, rel="R0"))
    zeta = to_nnf(translate_zeta(phi, xs, rel="R0", team_size=3))
    for sentence in (eta, zeta):
        _assert_naive_tables(sentence)
    A = random_structure(rng, rng.randint(1, 2))
    T = random_team(rng, A.domain_size, xs, max_rows=3)
    J = SOAssignment.of({"R0": team_relation(A, T, xs)})
    for sentence in (eta, zeta):
        assert eval_so(A, J, sentence) is eval_so(A, J, sentence, memo=False)


@pytest.mark.parametrize(
    "text, inner",
    [("E x. E2 x:1. x(x)", "E2 x:1. x(x)"), ("E x. Ef x:1. x(x) = x", "Ef x:1. x(x) = x")],
)
def test_prepared_names_keep_a_name_bound_at_two_sorts_apart(text, inner):
    phi = parse(text, "so")
    _assert_naive_tables(phi)
    ev = _prepared(phi)
    assert S.format_formula(phi.body) == inner
    # the inner binder frees the relation (function) x, not the element x
    assert ev.names[id(phi.body)] == {"x"} and ev.names[id(phi)] == frozenset()


def test_prepared_names_of_a_subformula_shared_between_two_parents():
    x = S.Var("x")
    shared = S.Or(S.Pred("P", (x,)), S.RelApp("X", (x,)))
    phi = S.And(S.Forall("x", shared), S.ForallRel("X", 1, shared))
    _assert_naive_tables(phi)
    assert _prepared(phi).names[id(shared)] == {"x", "X"}
    for value in (0, 1):
        J = SOAssignment.of({"x": value, "X": RelValue.of(1, [(1,)])})
        verdicts = {eval_so(_structure(), J, phi, memo=memo) for memo in (True, False)}
        assert verdicts == {value == 0}


@pytest.mark.parametrize(
    "text",
    [
        "(E x. f(x) = x) & (Ef g:1. E x. g(f(x)) = x)",
        "(E y. f(y) = y) & (A f. P(f))",
        "(E x. f(x) = x) & (E2 f:1. E x. f(x))",
    ],
)
def test_prepared_structure_functions_are_the_free_unassigned_ones(text):
    phi = parse(text, "so")
    _assert_naive_tables(phi)
    assert _prepared(phi).funcs == {"f"}
    assert _prepared(phi, {"f": 0}).funcs == frozenset()


def test_preparing_a_deep_sentence_reads_each_atom_once(monkeypatch):
    x = S.Var("x")
    phi = S.Pred("P", (x,))
    for i in range(150):
        phi = S.ExistsRel(f"X{i}", 1, S.Or(S.RelApp(f"X{i}", (x,)), phi))
    atoms = sum(not S.children(node) for node in S.walk(phi))
    calls = {}
    for name in ("free_vars", "free_relation_vars", "free_function_vars"):
        def counted(node, _real=getattr(S, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(node)

        monkeypatch.setattr(S, name, counted)
    _prepared(phi)
    assert all(count <= atoms for count in calls.values()), (calls, atoms)


# ---------------------------------------------------------------------------
# Guarded relation quantifiers


def _guard_structure():
    return Structure(
        2,
        {"P": frozenset(), "Q": frozenset({(0,)}), "R": frozenset({(0, 1)})},
        arities={"P": 1, "Q": 1, "R": 2},
    )


def _outcome(A, J, phi, guards, memo=True, budget=None):
    """eval_so's verdict, or the type and message of the error it raises."""
    try:
        return eval_so(A, J, phi, budget, memo=memo, guards=guards)
    except ValueError as exc:
        return type(exc), str(exc)


def _guarded_evaluator(A, J, sentence):
    """An evaluator prepared with guards on, as eval_so prepares one."""
    ev = so_bridge._SOEvaluator(A, None, EvalStats(), True, True)
    ev.prepare(sentence, dict(J.entries))
    return ev


def _guards_by_binder(sentence):
    """binder name -> [(kind, psi texts, chain variables, inner count)]."""
    ev = _guarded_evaluator(_guard_structure(), EMPTY_SO_ASSIGNMENT, sentence)
    out = {}
    for node in S.walk(sentence):
        for upper, psis, chain, _, inner in ev.guards.get(id(node), ()):
            texts = [S.format_formula(p) for p in psis]
            out.setdefault(node.name, []).append(
                ("upper" if upper else "lower", texts, chain, inner)
            )
    return out


def test_guards_recognise_the_split_cover():
    sentence = to_nnf(translate_eta(parse("P(x) | dep(x,y)", "team"), XY, rel="R0"))
    guards = _guards_by_binder(sentence)
    # S0, S1 <= R0, and S1 >= R0 minus S0 (the cover's other half); the
    # flat left disjunct bounds S0 too
    assert ("upper", ["R0(x,y)"], XY, 0) in guards["S0"]
    assert ("upper", ["P(x)"], XY, 0) in guards["S0"]
    assert ("upper", ["R0(x,y)"], XY, 0) in guards["S1"]
    assert ("lower", ["!R0(x,y)", "S0(x,y)"], XY, 0) in guards["S1"]
    # S0's half of the cover reads S1, which is bound below S0
    assert all("S1(x,y)" not in texts for _, texts, _, _ in guards["S0"])


def test_guards_recognise_the_dependency_atom_definition():
    sentence = to_nnf(translate_eta(parse("dep(x,y)", "team"), XY, rel="R0"))
    lower, upper = sorted(_guards_by_binder(sentence)["S0"])
    assert (lower[0], lower[2:], upper[0], upper[2:]) == (
        "lower", (("z0", "z1"), 0), "upper", (("z0", "z1"), 0)
    )
    [member], [outside] = upper[1], lower[1]
    assert member.startswith("E x. E y. (R0(x,y) &")
    assert outside.startswith("A x. A y. ((!R0(x,y)) |")
    # the definition pins S0 down: its lower and upper bounds agree
    A = _guard_structure()
    J = SOAssignment.of({"R0": RelValue.of(2, [(0, 1), (1, 1)])})
    ev = _guarded_evaluator(A, J, sentence)
    lower_set, upper_set = ev._bounds(dict(J.entries), sentence, ev.guards[id(sentence)], None, 0)
    assert lower_set == upper_set == {(0, 1), (1, 1)}


@pytest.mark.parametrize("quantifier", ["E", "A"])
def test_guards_recognise_same_rest(quantifier):
    phi = parse(f"{quantifier} y. ~P(y)", "team")
    guards = _guards_by_binder(to_nnf(translate_eta(phi, ("x",), rel="R0")))["S0"]
    # same_rest: S0 <= R0's rows times the domain, y a free column
    assert ("upper", ["E y. R0(x)"], ("x",), 1) in guards
    # the A clause's `everywhere` conjunct: S0 >= the same set
    assert (("lower", ["!R0(x)"], ("x",), 1) in guards) is (quantifier == "A")


_GUARD_CASES = [
    # (sentence, assignment, verdict, whether the outer binder is narrowed)
    # a chain variable shadowed inside X: psi reads only x
    ("E2 S:2. ((E y. S(y,y)) & (A x. A y. ((A y. !S(x,y)) | (E y. R(x,y)))))", {}, True, True),
    # ... and one that psi reads: no guard
    ("E2 S:1. ((E y. S(y)) & (A y. ((A y. !S(y)) | Q(y))))", {}, False, False),
    ("E2 S:2. ((A y. ((!S(x,y)) | (E y. S(x,y)))) & (E y. S(x,y)))", {"x": 0}, True, False),
    # psi binds a relation of its own
    ("E2 S:1. ((E y. S(y)) & (A y. ((!S(y)) | (E2 T:1. (T(y) & (A z. ((!T(z)) | Q(z))))))))",
     {}, True, True),
    # psi reads a relation bound between the binder and the conjunct
    ("E2 S:1. ((E y. S(y)) & (E2 T:1. ((E y. T(y)) & (A y. ((!S(y)) | T(y))))))", {}, True, False),
    # under |, the would-be guard S <= P = {} is no guard
    ("E2 S:1. ((E y. S(y)) & ((A y. ((!S(y)) | P(y))) | top))", {}, True, False),
    ("A2 S:1. ((E y. (S(y) & Q(y))) | (A y. !S(y)) | (E y. (S(y) & (!Q(y)))))", {}, True, True),
    ("A2 S:1. ((E y. (S(y) & Q(y))) | (E y. S(y) & P(y)))", {}, False, True),
    # lower bounds within and beyond the sparse cap
    ("Ep[scaled:1,0] S:1. (A y. (S(y) | Q(y)))", {}, True, True),
    ("Ep[scaled:1,0] S:1. (A y. S(y))", {}, False, True),
    ("Ap[scaled:1,0] S:1. ((E y. ((!S(y)) & Q(y))) | (A y. !S(y)))", {}, False, True),
    # z is unassigned: the candidate S = {0}, which the guard rules out,
    # reads it, so guards are off and both settings raise
    ("E2 S:1. ((E y. (S(y) & z = z)) & (A y. ((!S(y)) | P(y))))", {},
     (ValueError, "unassigned variable 'z'"), False),
    # likewise when S is read as an element there (the assigned element
    # S is shadowed by the relation)
    ("E2 S:1. ((E y. (S(y) & y = S)) & (A y. ((!S(y)) | P(y))))", {"S": 0},
     (ValueError, "'S' is not an element variable here"), False),
    # ... or an element binder S hides the relation from S(y)
    ("E2 S:1. ((E y. (S(y) & (E S. S(y)))) & (A y. ((!S(y)) | P(y))))", {},
     (ValueError, "'S' is not a relation variable here"), False),
    ("E2 S:1. ((E y. (S(y) & (Ef S:1. S(y)))) & (A y. ((!S(y)) | P(y))))", {},
     (ValueError, "'S' is not a relation variable here"), False),
]


@pytest.mark.parametrize("text, entries, want, narrowed", _GUARD_CASES)
def test_guards_keep_the_verdict(text, entries, want, narrowed):
    A, J, phi = _guard_structure(), SOAssignment.of(entries), parse(text, "so")
    for memo in (True, False):
        assert _outcome(A, J, phi, False, memo) == want
        assert _outcome(A, J, phi, True, memo) == want
    nnf = to_nnf(phi)
    ev = _guarded_evaluator(A, J, nnf)
    assert (id(nnf) in ev.guards and ev.cannot_raise(dict(J.entries))) is narrowed


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=False))
def test_guards_keep_every_verdict_and_error(source):
    """Random sentences (not eta output): guards=True answers or raises
    exactly as guards=False, memo on or off."""
    rng = SmallDraws(source)
    phi = random_so_sentence(rng, rng.randint(2, 7))
    n = rng.randint(1, 2)
    A = random_structure(rng, n)
    entries = {v: rng.randrange(n) for v in SO_ELEMENTS if rng.random() < 0.9}
    if rng.random() < 0.9:
        arity = 2 if rng.random() < 0.9 else 1
        tuples = [t for t in itertools.product(range(n), repeat=arity) if rng.random() < 0.5]
        entries["V"] = RelValue.of(arity, tuples)
    J, memo = SOAssignment.of(entries), rng.random() < 0.5
    note(f"n={n} P={sorted(A.relations['P'])} R={sorted(A.relations['R'])} J={entries}")
    note(f"sentence {S.format_formula(phi)} memo={memo}")
    try:
        want = _outcome(A, J, phi, False, memo, Budget(200_000))
    except BudgetExceeded:
        assume(False)
    assert _outcome(A, J, phi, True, memo) == want


def _chain(terms):
    x = S.Var("x")
    phi = S.Pred("P", (x,))
    for _ in range(terms - 1):
        phi = S.And(phi, S.Pred("P", (x,)))
    return phi


@pytest.mark.parametrize(
    "call",
    [
        lambda phi: eval_so(_structure(), SOAssignment.of(x=0), phi),
        to_nnf,
        translate_eta,
        translate_zeta,
    ],
    ids=["eval_so", "to_nnf", "translate_eta", "translate_zeta"],
)
def test_deep_input_raises_a_tlk_error(call):
    with pytest.raises(ValueError, match="^formula nested too deeply$"):
        call(_chain(1500))
    call(_chain(150))  # well below the limit: no error


# ---------------------------------------------------------------------------
# The direct translation


def test_translate_eta_flat_subformula_stays_first_order():
    out = translate_eta(parse("P(x)", "team"), ("x", "y"), rel="R0")
    text = S.format_formula(out)
    assert text == "A x. A y. (R0(x,y) -> P(x))"
    # No second-order quantifier is introduced for a flat subformula.
    assert "E2 " not in text and "Ep[" not in text


def test_translate_eta_dependency_atom_names_the_column_relation():
    out = translate_eta(parse("dep(x,y)", "team"), ("x", "y"), rel="R0")
    assert S.format_formula(out) == (
        "E2 S0:2. ((A z0. A z1. (S0(z0,z1) <-> (E x. E y. (R0(x,y)"
        " & (x = z0 & y = z1))))) & (A u0. A v. A w. ((!S0(u0,v)) |"
        " (!S0(u0,w)) | v = w)))"
    )


def test_translate_eta_boolean_negation_becomes_classical():
    out = translate_eta(parse("~P(x)", "team"), ("x", "y"), rel="R0")
    assert S.format_formula(out) == "!A x. A y. (R0(x,y) -> P(x))"


def test_translate_eta_conjunction_shares_the_team():
    out = translate_eta(parse("P(x) & dep(x)", "team"), ("x", "y"), rel="R0")
    assert S.format_formula(out) == (
        "(A x. A y. (R0(x,y) -> P(x))) & (E2 S0:1. ((A z0. (S0(z0)"
        " <-> (E x. E y. (R0(x,y) & x = z0)))) & (A v. A w. ((!S0(v))"
        " | (!S0(w)) | v = w))))"
    )


def test_translate_eta_split_disjunction_quantifies_a_cover():
    out = translate_eta(parse("dep(x) | dep(y)", "team"), ("x", "y"), rel="R0")
    text = S.format_formula(out)
    assert text.startswith(
        "E2 S0:2. E2 S1:2. ((A x. A y. (R0(x,y) <-> S0(x,y) | S1(x,y)))"
    )
    # Each side is translated against its own cover half.
    assert "S0(x,y) & x = z0" in text
    assert "S1(x,y) & y = z0" in text


def test_translate_eta_exists_quantifies_a_supplemented_relation():
    out = translate_eta(parse("E z. dep(x,z)", "team"), ("x",), rel="R0")
    assert S.format_formula(out) == (
        "E2 S0:2. ((A x. ((E z. R0(x)) <-> (E z. S0(x,z)))) & (E2 S1:2."
        " ((A z0. A z1. (S1(z0,z1) <-> (E x. E z. (S0(x,z) &"
        " (x = z0 & z = z1))))) & (A u0. A v. A w. ((!S1(u0,v)) |"
        " (!S1(u0,w)) | v = w)))))"
    )


def test_translate_eta_forall_adds_the_everywhere_clause():
    out = translate_eta(parse("A y. dep(x,y)", "team"), ("x", "y"), rel="R0")
    text = S.format_formula(out)
    # The duplicated relation keeps the projection of the old team...
    assert text.startswith("E2 S0:2. ((A x. A y. ((E y. R0(x,y)) <-> (E y. S0(x,y))))")
    # ...and every extension of each surviving row is present.
    assert text.endswith("(A x. A y. (R0(x,y) -> (A y. S0(x,y)))))")


def test_translate_eta_avoids_predicate_names_when_minting_relations():
    out = translate_eta(parse("S0(x) & dep(x)", "team"), ("x",), rel="R0")
    text = S.format_formula(out)
    assert "E2 S1:1." in text
    assert "E2 S0:" not in text


def test_translate_eta_validates_variable_list():
    with pytest.raises(ValueError, match="duplicate"):
        translate_eta(parse("dep(x)", "team"), ("x", "x"))
    with pytest.raises(ValueError, match="free variables"):
        translate_eta(parse("dep(x,y)", "team"), ("x",))
    with pytest.raises(ValueError, match="clashes"):
        translate_eta(parse("P(x)", "team"), ("x",), rel="P")
    with pytest.raises(ValueError):
        translate_eta(parse("Ep[scaled:1,0] X:1. X(x)", "so"))  # not team language


def test_translate_eta_defaults_to_sorted_free_variables():
    phi = parse("dep(y,x)", "team")
    explicit = translate_eta(phi, ("x", "y"), rel="R0")
    default = translate_eta(phi, rel="R0")
    assert S.format_formula(default) == S.format_formula(explicit)


# ---------------------------------------------------------------------------
# The sparse translation


def test_translate_zeta_annotates_every_relation_quantifier():
    out = translate_zeta(parse("dep(x) | dep(x)", "team"), ("x",), rel="R0")
    text = S.format_formula(out)
    assert "E2 " not in text
    assert text.count("Ep[scaled:1,1]") == 4  # cover pair + one column relation each


def test_translate_zeta_bound_sources():
    phi = parse("dep(x)", "team")
    default = translate_zeta(phi, ("x",), rel="R0")
    assert "Ep[scaled:1,1]" in S.format_formula(default)
    sized = translate_zeta(phi, ("x",), rel="R0", team_size=4)
    assert "Ep[scaled:4,0]" in S.format_formula(sized)
    explicit = translate_zeta(phi, ("x",), rel="R0", bound=S.SparseBound.polynomial([7]))
    assert "Ep[poly:7]" in S.format_formula(explicit)


def test_sufficient_bound_frozen_values():
    assert sufficient_bound(parse("E y. dep(x,y)", "team")) == S.SparseBound.scaled_power(1, 2)
    assert sufficient_bound(parse("dep(x)", "team"), team_size=5) == S.SparseBound.scaled_power(5, 0)
    assert sufficient_bound(parse("dep(x)", "team"), team_size=0) == S.SparseBound.scaled_power(1, 0)
    # Extra variables in xs widen the variable-count fallback.
    assert sufficient_bound(parse("dep(x)", "team"), xs=("x", "y", "z")) == S.SparseBound.scaled_power(1, 3)


# ---------------------------------------------------------------------------
# Cross-checks against the direct evaluator (small, deterministic)


def _translation_corpus():
    """(phi, A, T, J, eta, zeta) for seeded random team formulas over x, y."""
    rng = random.Random(34034)
    xy = ("x", "y")
    for _ in range(60):
        phi = random_team_formula(rng, rng.randint(1, 5), xy, dep_rate=0.4)
        if not S.free_vars(phi) <= {"x", "y"}:
            continue
        A = random_structure(rng, 2)
        T = random_team(rng, 2, xy, max_rows=3)
        J = SOAssignment.of({"R0": team_relation(A, T, xy)})
        eta = translate_eta(phi, xy, rel="R0")
        zeta = translate_zeta(phi, xy, rel="R0", team_size=len(T))
        yield phi, A, T, J, eta, zeta


def test_translations_agree_with_direct_evaluation():
    checked = 0
    for phi, A, T, J, eta, zeta in _translation_corpus():
        direct = eval_team(A, T, phi)
        for guards in (True, False):
            assert eval_so(A, J, eta, guards=guards) is direct, S.format_formula(phi)
            assert eval_so(A, J, zeta, guards=guards) is direct, S.format_formula(phi)
        checked += 1
    assert checked >= 40


def _corpus_work(guards):
    """Budget.used, nodes and alternations summed over the corpus per
    (translation, memo)."""
    totals = {}
    for _, A, _, J, eta, zeta in _translation_corpus():
        for name, sentence in (("eta", eta), ("zeta", zeta)):
            for memo in (True, False):
                budget, stats = Budget(), EvalStats()
                eval_so(A, J, sentence, budget, memo=memo, guards=guards, stats=stats)
                total = totals.setdefault((name, memo), [0, 0, 0])
                total[0] += budget.used
                total[1] += stats.nodes
                total[2] += stats.alternations
    return totals


def test_eval_so_work_counters_on_the_translation_corpus():
    """Budget.used, nodes and alternations summed over the corpus, as
    first recorded; a change to how eval_so prepares a sentence must
    not move them."""
    totals = {}
    for _, A, _, J, eta, zeta in _translation_corpus():
        for name, sentence in (("eta", eta), ("zeta", zeta)):
            for memo in (True, False):
                budget, stats = Budget(), EvalStats()
                eval_so(A, J, sentence, budget, memo=memo, guards=False, stats=stats)
                total = totals.setdefault((name, memo), [0, 0, 0])
                total[0] += budget.used
                total[1] += stats.nodes
                total[2] += stats.alternations
    assert totals == {
        ("eta", True): [114135, 81358, 72],
        ("eta", False): [348812, 268357, 72],
        ("zeta", True): [107169, 76191, 72],
        ("zeta", False): [334953, 257699, 72],
    }


def test_eval_so_guarded_work_counters_on_the_translation_corpus():
    """The same sums with guards, next to the unguarded ones above: the
    covers, dependency-atom definitions and same_rest conjuncts of eta
    narrow its quantifiers, and on this corpus zeta's cardinality bound
    never cuts below them, so both translations cost the same."""
    assert _corpus_work(True) == {
        ("eta", True): [24756, 14865, 58],
        ("eta", False): [52867, 36763, 69],
        ("zeta", True): [24756, 14865, 58],
        ("zeta", False): [52867, 36763, 69],
    }
