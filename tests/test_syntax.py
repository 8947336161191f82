"""Formula ASTs, the surface grammar, and structural measures."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DEEP_MTL_TEXTS,
    distinct_nodes,
    nested_iff,
    random_mtl_formula,
    random_team_formula,
    recursion_limit,
)
from tlk import ParseError, format_formula, parse
from tlk import syntax as S
from tlk.syntax import (
    And,
    BoolNot,
    DepAtom,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    Pred,
    Prop,
    UnknownDependencyError,
    Var,
    Vocabulary,
    dependence_signature,
    exclusion_signature,
    inclusion_signature,
    independence_signature,
)

# ---------------------------------------------------------------------------
# Parse/format round trips on canonical strings  [TRIVIAL]

CANONICAL = [
    ("top", "team"),
    ("bot", "team"),
    ("x = y", "team"),
    ("P(x)", "team"),
    ("R(x,y)", "team"),
    ("R(x,F(y))", "team"),
    ("!P(x)", "team"),
    ("~x = x", "team"),  # prefix operators take maximal scope
    ("~(P(x) & P(y))", "team"),
    ("P(x) & (~P(y))", "team"),
    ("P(x) | R(x,y)", "team"),
    ("P(x) \\/ P(y)", "team"),
    ("NE P(x)", "team"),
    ("NE (P(x) | R(y,y))", "team"),
    ("dep(x)", "team"),
    ("dep(x,y)", "team"),
    ("inc(x,y)", "team"),
    ("exc(x,y)", "team"),
    ("indep(x,y)", "team"),
    ("E x. A y. R(x,y)", "team"),
    ("A x. (P(x) | (~P(x)))", "team"),
    ("p & (~q)", "mtl"),
    ("<>(p | q)", "mtl"),
    ("[]p", "mtl"),
    ("<>[]p", "mtl"),
    ("~<>p", "mtl"),
    ("E2 S:2. S(x,y)", "so"),
    ("A2 S:1. (S(x) | (!S(x)))", "so"),
    ("Ep[scaled:3,2] S:2. top", "so"),
    ("Ep[poly:1,0,2] S:1. top", "so"),
    ("Ef F:1. P(F(x))", "so"),
    ("Af F:2. x = F(x,y)", "so"),
    ("Ap[scaled:1,1] S:1. S(x)", "so"),
    ("E x. (R(x,x) & P(x))", "so"),
]


@pytest.mark.parametrize("text,lang", CANONICAL)
def test_round_trip_canonical(text, lang):
    phi = parse(text, lang)
    assert format_formula(phi) == text
    assert parse(format_formula(phi), lang) == phi


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_team_formulas(seed):
    """format . parse is the identity on the AST."""
    rng = random.Random(seed)
    phi = random_team_formula(rng, rng.randint(1, 9), ("x", "y", "z"))
    assert parse(format_formula(phi), "team") == phi


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_mtl_formulas(seed):
    rng = random.Random(seed)
    phi = random_mtl_formula(rng, rng.randint(1, 8), 3)
    assert parse(format_formula(phi), "mtl") == phi


# ---------------------------------------------------------------------------
# Grammar rules and rejection  [TRIVIAL]


def test_prefix_operators_take_maximal_scope():
    assert parse("~x = x", "team") == BoolNot(Eq(Var("x"), Var("x")))
    assert parse("<>p & q", "mtl") == S.Diamond(And(Prop("p"), Prop("q")))
    assert parse("E x. P(x) | P(y)", "team") == Exists(
        "x", Or(Pred("P", (Var("x"),)), Pred("P", (Var("y"),)))
    )


def test_binop_operands_must_be_atoms():
    # a prefix formula cannot sit directly under a binary operator,
    # even inside parentheses: it needs its own parens
    for bad in ("p & ~q", "(p & ~q)", "P(x) | ~P(y)", "p & []q"):
        lang = "mtl" if bad[0] == "p" or "[]" in bad else "team"
        with pytest.raises(ParseError):
            parse(bad, lang)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("P(x", "team")
    assert err.value.line == 1 and err.value.col >= 3


@pytest.mark.parametrize(
    "bad,lang",
    [
        ("", "team"),
        ("P(x))", "team"),
        ("dep()", "team"),
        ("E x P(x)", "team"),  # missing dot
        ("<>P(x)", "team"),  # modalities are not team formulas
        ("dep(x,y)", "mtl"),  # predicates are not modal formulas
        ("~P(x)", "so"),  # Boolean negation is not second-order syntax
        ("E2 S:2. top", "team"),  # relation quantifiers are second-order
        ("!(~P(x))", "team"),  # classical negation needs a classical body
        ("!dep(x)", "team"),
        ("top top", "team"),
    ],
)
def test_rejected_inputs(bad, lang):
    with pytest.raises(ParseError):
        parse(bad, lang)


def test_language_neutral_names_become_predicates():
    # an unknown lowercase name is an ordinary predicate unless a
    # vocabulary says otherwise
    assert isinstance(parse("mystery(x)", "team"), Pred)
    assert isinstance(parse("dep(x,y)", "so"), Pred)
    with pytest.raises(ParseError):
        parse("mystery(x)", "team", vocab=Vocabulary(predicates={"P": 1}))


def test_vocabulary_gates_equality():
    vocab = Vocabulary(predicates={"P": 1}, equality_enabled=False)
    with pytest.raises(ParseError):
        parse("x = y", "team", vocab=vocab)
    assert parse("P(x)", "team", vocab=vocab) == Pred("P", (Var("x"),))


def test_vocabulary_gates_arities():
    vocab = Vocabulary(predicates={"P": 1})
    with pytest.raises(ParseError):
        parse("P(x,y)", "team", vocab=vocab)


def test_unknown_dependency_name():
    with pytest.raises(UnknownDependencyError):
        S.DependencyRegistry().resolve("nosuch", 2)


def test_custom_dependency_registration():
    vocab = Vocabulary(predicates={"P": 1})
    vocab.dependencies.register(
        S.DependencySignature("myatom", 1, dependence_signature(1).delta)
    )
    phi = parse("myatom(x)", "team", vocab=vocab)
    assert isinstance(phi, DepAtom)
    assert phi.dep.arity == 1
    assert vocab.dependencies.knows("myatom")


# ---------------------------------------------------------------------------
# Built-in dependency signatures


def test_builtin_signature_shapes():
    # [PAPER] dependence: the last position is a function of the others
    d2 = dependence_signature(2)
    assert d2.arity == 2 and d2.name == "dep"
    # [PAPER] inclusion/exclusion/independence take two halves of even width
    assert inclusion_signature(2).arity == 2
    assert exclusion_signature(4).arity == 4
    assert independence_signature(2).arity == 2
    with pytest.raises(UnknownDependencyError):
        inclusion_signature(3)  # odd width has no two halves
    with pytest.raises(UnknownDependencyError):
        dependence_signature(0)


def test_signature_caching():
    assert dependence_signature(2) is dependence_signature(2)


# ---------------------------------------------------------------------------
# Structural measures


def test_measures_on_fixed_formulas():
    # [TRIVIAL] counts verified by hand on the displayed shape
    phi = parse("E x. (P(x) & (~R(x,y)))", "team")
    assert S.quantifier_rank(phi) == 1
    assert S.free_vars(phi) == {"y"}
    assert S.all_vars(phi) == {"x", "y"}
    assert S.width(phi) == 2
    assert S.size(phi) == 5  # exists, and, pred, boolnot, pred

    psi = parse("<>(p & (~[]q))", "mtl")
    assert S.modal_depth(psi) == 2
    assert S.prop_names(psi) == {"p", "q"}
    assert S.size(psi) == 6


def test_measure_recurrences():
    # [PAPER] rank and width ignore ~ and !, and quantifiers add one rank
    rng = random.Random(5)
    for _ in range(200):
        phi = random_team_formula(rng, rng.randint(1, 8), ("x", "y"))
        assert S.quantifier_rank(BoolNot(phi)) == S.quantifier_rank(phi)
        assert S.quantifier_rank(Exists("x", phi)) == S.quantifier_rank(phi) + 1
        assert S.quantifier_rank(Forall("y", phi)) == S.quantifier_rank(phi) + 1
        assert S.size(BoolNot(phi)) == S.size(phi) + 1
        assert S.free_vars(Exists("x", phi)) == S.free_vars(phi) - {"x"}


def test_language_predicates():
    assert S.is_fo(parse("E x. (P(x) & (!R(x,y)))", "team"))
    assert not S.is_fo(parse("dep(x,y)", "team"))
    assert not S.is_fo(parse("~P(x)", "team"))
    assert S.is_ml(parse("<>(p & (!q))", "mtl"))
    assert not S.is_ml(parse("~p", "mtl"))


def test_language_check_and_walk_run_on_a_5000_term_chain():
    # Neither recurses: the chain is far deeper than the recursion
    # limit, and each NE P(x) is visited once, not once per enclosing
    # node.
    ne = S.mk_e(S.Pred("P", (S.Var("x"),)))
    phi = ne
    for _ in range(4999):
        phi = S.And(phi, ne)
    S.check_language(phi, "team")
    assert not S.is_fo(phi)
    nodes = list(S.walk(phi))
    assert len(nodes) == 4999 + 3 * 5000
    assert nodes[0] is phi
    assert [type(n) for n in nodes[-4:]] == [S.Pred, S.BoolNot, S.Not, S.Pred]
    # the deepest leaf decides: one modal atom makes the chain ill-formed
    bad = S.Prop("p")
    for _ in range(4999):
        bad = S.And(bad, ne)
    assert not S.is_team(bad)


def test_check_language_names_a_deep_ill_formed_formula():
    # the message prints the top 40 levels, so it needs no deep recursion
    bad = S.Prop("p")
    for _ in range(1499):
        bad = S.And(bad, S.Pred("P", (S.Var("x"),)))
    with pytest.raises(ValueError) as err:
        S.check_language(bad, "team")
    assert str(err.value) == "not a well-formed team formula: ... & P(x)" + " & P(x)" * 39
    # shallow formulas are printed whole, as before
    with pytest.raises(ValueError, match=r"formula: p & P\(x\)$"):
        S.check_language(S.And(S.Prop("p"), S.Pred("P", (S.Var("x"),))), "team")


def test_check_language_returns_the_height():
    assert S.check_language(parse("P(x)", "team"), "team") == 1
    assert S.check_language(parse("P(x) & (E y. ~R(x,y))", "team"), "team") == 4
    assert S.check_language(parse("!(P(x) | P(y))", "team"), "team") == 3


DEPTH_SHAPES = [
    ("~(", "P(x)", "team"),
    ("!(", "P(x)", "team"),
    ("E x. (", "P(x)", "team"),
    ("P(x) & (", "P(x)", "team"),
    ("<>(", "p", "mtl"),
    ("P(x) -> (", "P(x)", "so"),
]


@settings(max_examples=2, deadline=None)
@given(st.permutations(DEPTH_SHAPES))
def test_text_nested_as_deep_as_the_evaluators_accept_parses(shapes):
    # The parser recurses twice per parenthesis, so MAX_TEAM_DEPTH levels
    # parse and print even under Hypothesis's own frames; one more level
    # raises NestingTooDeep, never RecursionError.
    for opener, base, language in shapes:
        nested = lambda levels: opener * levels + base + ")" * levels
        phi = parse(nested(S.MAX_TEAM_DEPTH), language)
        assert parse(format_formula(phi), language) == phi
        with pytest.raises(S.NestingTooDeep, match="^formula nested too deeply$"):
            parse(nested(S.MAX_TEAM_DEPTH + 1), language)


def test_function_applications_count_toward_the_nesting_limit():
    term = lambda levels: "F(" * levels + "x" + ")" * levels
    t = parse(f"P({term(S.MAX_TEAM_DEPTH)})", "team").args[0]
    for _ in range(S.MAX_TEAM_DEPTH):
        assert t.name == "F" and len(t.args) == 1
        t = t.args[0]
    assert t == Var("x")
    with pytest.raises(S.NestingTooDeep):
        parse(f"y = {term(S.MAX_TEAM_DEPTH + 1)}", "team")
    # parentheses and applications add up; an atom's own arguments do not count
    half = S.MAX_TEAM_DEPTH // 2
    parse("(" * half + f"P({term(half)})" + ")" * half, "team")
    with pytest.raises(S.NestingTooDeep):
        parse("(" * half + f"P({term(half + 1)})" + ")" * half, "team")


def test_prefix_runs_and_operator_chains_are_read_in_loops(monkeypatch):
    # 6000 prefixes: the run's flatness is checked once, at the innermost '!'
    checked = []
    is_fo = S.is_fo
    monkeypatch.setattr(S, "is_fo", lambda phi: checked.append(phi) or is_fo(phi))
    phi = parse("!E x. !" * 2000 + "P(x)", "team")
    assert len(checked) == 1
    assert S.check_language(phi, "team") == 6001
    with pytest.raises(ParseError, match="'!' may only negate first-order formulas"):
        parse("!~!P(x)", "team")
    # 3000 right-associated arrows
    chain = parse(" -> ".join(["P(x)"] * 3000), "so")
    assert S.check_language(chain, "so") == 3000
    assert isinstance(chain.right, S.Implies) and chain.left == Pred("P", (Var("x"),))


def test_walk_is_root_first_then_children_left_to_right():
    phi = parse("(E x. (P(x) | (~R(x,y)))) & NE P(y)", "team")
    assert [S.format_formula(n) for n in S.walk(phi)] == [
        "(E x. (P(x) | (~R(x,y)))) & NE P(y)",
        "E x. (P(x) | (~R(x,y)))",
        "P(x) | (~R(x,y))",
        "P(x)",
        "~R(x,y)",
        "R(x,y)",
        "NE P(y)",
        "!P(y)",
        "P(y)",
    ]


def test_e_and_ovee_sugar_invert():
    # [TRIVIAL] NE and \/ are definable shapes, recognised back exactly
    beta = parse("P(x)", "team")
    assert S.as_e(S.mk_e(beta)) == beta
    theta = parse("dep(x,y)", "team")
    pair = S.as_ovee(S.mk_ovee(theta, beta))
    assert pair == (theta, beta)
    assert S.as_e(beta) is None
    assert S.as_ovee(beta) is None


def test_free_vars_of_dependency_atoms():
    phi = parse("dep(x,y)", "team")
    assert S.free_vars(phi) == {"x", "y"}
    assert S.quantifier_rank(phi) == 0


def _concrete_formula_classes(cls=S.Formula):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_formula_classes(sub)


def test_map_children_identity_rebuilds_every_node_class():
    p = S.Pred("P", (S.Var("x"),))
    bound = S.SparseBound.scaled_power(1, 1)
    instances = [
        p,
        S.Eq(S.Var("x"), S.Var("y")),
        S.TOP,
        S.BOT,
        S.Not(p),
        S.BoolNot(p),
        S.And(p, S.TOP),
        S.Or(p, S.BOT),
        S.Exists("x", p),
        S.Forall("x", p),
        parse("dep(x,y)", "team"),
        S.Prop("p"),
        S.Diamond(S.Prop("p")),
        S.Box(S.Prop("p")),
        S.RelApp("X", (S.Var("x"),)),
        S.Implies(p, S.TOP),
        S.Iff(p, S.BOT),
        S.ExistsRel("X", 1, p),
        S.ForallRel("X", 1, p),
        S.ExistsFun("f", 1, p),
        S.ForallFun("f", 1, p),
        S.ExistsRelSparse("X", 1, bound, p),
        S.ForallRelSparse("X", 1, bound, p),
    ]
    assert {type(phi) for phi in instances} == set(_concrete_formula_classes())
    for phi in instances:
        assert S.map_children(phi, lambda c: c) == phi


# ---------------------------------------------------------------------------
# Passes over deep and shared formulas


def _measures(phi):
    return (
        S.size(phi), S.width(phi), S.quantifier_rank(phi), S.modal_depth(phi),
        S.free_vars(phi), S.all_vars(phi), S.free_relation_vars(phi),
        S.free_function_vars(phi), S.prop_names(phi),
    )


@pytest.mark.parametrize("shape", sorted(DEEP_MTL_TEXTS))
def test_measures_and_the_printer_take_any_depth(shape):
    text = DEEP_MTL_TEXTS[shape]
    phi = parse(text, "mtl")
    size_ = {"chain": 5999, "~3000": 3001, "~6000": 6001, "<>3000": 3001, "<>6000": 6001}[shape]
    with recursion_limit(750):
        got = _measures(phi)
        printed = format_formula(phi)
    assert got == (size_, 0, 0, text.count("<>"), set(), set(), set(), set(), {"p"})
    assert printed == text


def test_measures_of_a_deep_first_order_chain():
    text = " & ".join(["(E y. R(x,F(y)))"] * 3000)
    phi = parse(text, "team")
    with recursion_limit(750):
        assert _measures(phi) == (8999, 2, 1, 0, {"x"}, {"x", "y"}, set(), {"F"}, set())
        assert format_formula(phi) == text
    so = parse(" & ".join(["(E2 X:1. X(x) | V(x))"] * 3000), "so", Vocabulary({"P": 1}))
    with recursion_limit(750):
        assert S.free_relation_vars(so) == {"V"}
        assert S.quantifier_rank(so) == 1


def test_fold_combines_each_distinct_node_once(monkeypatch):
    # to_nnf of nested <-> shares each side between the two halves: its
    # tree doubles with every level, its distinct nodes grow linearly
    from tlk.so_bridge import to_nnf

    nnf = to_nnf(nested_iff(18))
    distinct = distinct_nodes(nnf)
    assert distinct == 143
    calls = []
    fold = S.fold

    def counting(phi, combine, *operands):
        return fold(phi, lambda node, below: calls.append(node) or combine(node, below), *operands)

    monkeypatch.setattr(S, "fold", counting)
    for measure, value in [
        (S.size, 1966074), (S.free_vars, {"x"}), (S.quantifier_rank, 0), (S.width, 1),
        (S.modal_depth, 0), (S.free_relation_vars, set()), (S.prop_names, set()),
    ]:
        calls.clear()
        assert measure(nnf) == value
        assert len(calls) == len({id(node) for node in calls}) == distinct


def test_language_checks_visit_a_shared_node_once_per_level(monkeypatch):
    from tlk.so_bridge import to_nnf

    nnf = to_nnf(nested_iff(18))
    visits = []
    children = S.children
    monkeypatch.setattr(S, "children", lambda phi: visits.append(phi) or children(phi))
    height = S.check_language(nnf, "so")
    assert height == 38
    # at most every distinct node on every level, where the tree has
    # about two million nodes
    assert len(visits) <= distinct_nodes(nnf) * height
