"""Structures, assignments, teams, team operations, and model files."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlk import KripkeStructure, ParseError, Structure, Team, parse_model_file
from tlk.structures import (
    EMPTY_ASSIGNMENT,
    Assignment,
    duplicate,
    single_predicate_structure,
    successor_teams,
    supplement,
    team_image,
    team_restrict,
)

# ---------------------------------------------------------------------------
# Assignments  [TRIVIAL]


def test_assignment_basics():
    s = Assignment.of(x=1, y=2)
    assert s.get("x") == 1 and s.get("y") == 2
    assert s.domain == frozenset(("x", "y"))
    assert s.set("x", 0) == Assignment.of(x=0, y=2)
    assert s.drop("y") == Assignment.of(x=1)
    assert s.restrict(("y",)) == Assignment.of(y=2)
    assert s.set("z", 3).domain == frozenset(("x", "y", "z"))
    with pytest.raises(KeyError):
        s.get("z")


def test_assignment_is_hashable_and_order_free():
    assert Assignment.of(x=1, y=2) == Assignment.of(y=2, x=1)
    assert len({Assignment.of(x=1), Assignment.of(x=1)}) == 1


# ---------------------------------------------------------------------------
# Teams


def test_team_constructors_and_domain_checks():
    T = Team.from_tuples(("x", "y"), [(0, 1), (1, 1)])
    assert len(T) == 2 and T.domain == ("x", "y")
    assert Assignment.of(x=0, y=1) in T
    with pytest.raises(ValueError):
        Team.of(("x",), [Assignment.of(x=0, y=1)])  # row domain mismatch
    with pytest.raises(ValueError):
        Team.from_tuples(("x", "x"), [(0, 0)])  # duplicate variable


def test_empty_team_and_unit_team_differ():
    # [PAPER] the empty team satisfies everything flat; the unit team
    # {empty assignment} is a different object entirely
    assert Team.empty().is_empty()
    assert not Team.unit().is_empty()
    assert Team.unit().rows == frozenset((EMPTY_ASSIGNMENT,))
    assert Team.empty(("x",)).domain == ("x",)
    assert Team.empty() != Team.unit()


def test_sorted_rows_deterministic():
    T = Team.from_tuples(("x", "y"), [(1, 0), (0, 1), (0, 0)])
    values = [tuple(s.get(v) for v in ("x", "y")) for s in T.sorted_rows()]
    assert values == [(0, 0), (0, 1), (1, 0)]


def test_team_restrict():
    T = Team.from_tuples(("x", "y"), [(0, 1), (1, 1), (0, 0)])
    R = team_restrict(T, ("y",))
    assert R.domain == ("y",)
    assert R == Team.from_tuples(("y",), [(1,), (0,)])
    # restriction can merge rows
    assert len(R) == 2
    assert team_restrict(Team.empty(("x", "y")), ("x",)) == Team.empty(("x",))


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), max_size=6),
    st.sets(st.sampled_from(("w", "x", "y", "z"))),
)
def test_team_restrict_matches_rowwise_restriction(tuples, variables):
    T = Team.from_tuples(("x", "y", "z"), tuples)
    keep = tuple(sorted(variables & {"x", "y", "z"}))
    restricted = team_restrict(T, variables)
    assert restricted == Team(keep, frozenset(s.restrict(keep) for s in T.rows))
    if keep == T.domain:
        # Nothing is dropped: the team itself comes back, not a copy.
        assert restricted is T


# ---------------------------------------------------------------------------
# Supplement and duplicate  [PAPER] definitions, frozen examples


def test_supplement_overwrites_and_extends():
    T = Team.from_tuples(("x",), [(0,), (1,)])
    f = {Assignment.of(x=0): (0, 1), Assignment.of(x=1): (2,)}
    S = supplement(T, "y", f)
    assert S == Team.from_tuples(("x", "y"), [(0, 0), (0, 1), (1, 2)])
    # supplementing an existing variable overwrites its column
    S2 = supplement(T, "x", lambda s: (2,))
    assert S2 == Team.from_tuples(("x",), [(2,)])


def test_supplement_rejects_empty_choice():
    T = Team.from_tuples(("x",), [(0,)])
    with pytest.raises(ValueError):
        supplement(T, "y", lambda s: ())


def test_duplicate_is_full_supplement():
    T = Team.from_tuples(("x",), [(0,), (2,)])
    D = duplicate(T, "y", 3)
    assert D == Team.from_tuples(
        ("x", "y"), [(a, b) for a in (0, 2) for b in range(3)]
    )
    assert duplicate(Team.empty(("x",)), "y", 3) == Team.empty(("x", "y"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_duplicate_equals_supplement_with_every_value(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rows = rng.randint(0, 4)
    T = Team.from_tuples(
        ("x", "y"),
        {(rng.randrange(n), rng.randrange(n)) for _ in range(rows)},
    )
    var = rng.choice(("x", "y", "z"))
    assert duplicate(T, var, n) == supplement(T, var, lambda s: range(n))


# ---------------------------------------------------------------------------
# Team/relation conversions


def test_team_image_applies_terms_rowwise():
    from tlk.syntax import Var

    A = Structure(3, {}, arities={})
    T = Team.from_tuples(("x", "y"), [(0, 1), (2, 2)])
    assert team_image(A, T, (Var("y"), Var("x"))) == frozenset({(1, 0), (2, 2)})


def test_single_predicate_structure():
    A = single_predicate_structure(3, frozenset({(0, 1), (1, 2)}), arity=2)
    assert A.domain_size == 3
    assert A.holds("P", (0, 1)) and not A.holds("P", (2, 0))


# ---------------------------------------------------------------------------
# Structures


def test_structure_validation():
    with pytest.raises(ValueError):
        Structure(0, {})
    with pytest.raises(ValueError):
        Structure(2, {"P": frozenset({(5,)})}, arities={"P": 1})  # out of range
    with pytest.raises(ValueError):
        Structure(2, {"P": frozenset({(0, 1)})}, arities={"P": 1})  # arity clash
    with pytest.raises(ValueError):
        Structure(2, {}, functions={"F": {(0,): 0}}, arities={"F": 1})  # partial


def test_structure_functions_total():
    A = Structure(2, {}, functions={"F": {(0,): 1, (1,): 0}}, arities={"F": 1})
    assert A.functions["F"][(1,)] == 0


def test_kripke_validation():
    with pytest.raises(ValueError):
        KripkeStructure(0)
    with pytest.raises(ValueError):
        KripkeStructure(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        KripkeStructure(2, frozenset(), {"p": frozenset({7})})
    K = KripkeStructure(3, frozenset({(0, 1), (0, 2)}), {"p": frozenset({1})})
    assert K.successors(0) == frozenset({1, 2})
    assert K.predecessors(1) == frozenset({0})


# ---------------------------------------------------------------------------
# Successor teams


def _is_successor_team(K, T, S):
    # [PAPER] every world in T steps into S, and everything in S is stepped to
    return all(K.successors(w) & S for w in T) and all(
        any(s in K.successors(w) for w in T) for s in S
    )


def test_successor_teams_match_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        worlds = rng.randint(1, 4)
        K = KripkeStructure(
            worlds,
            frozenset(
                (a, b)
                for a in range(worlds)
                for b in range(worlds)
                if rng.random() < 0.45
            ),
        )
        T = frozenset(w for w in range(worlds) if rng.random() < 0.5)
        got = sorted(map(sorted, successor_teams(K, T)))
        want = sorted(
            sorted(S)
            for r in range(worlds + 1)
            for combo in itertools.combinations(range(worlds), r)
            if _is_successor_team(K, T, (S := frozenset(combo)))
        )
        assert got == want, (K, T)


def test_empty_team_has_only_empty_successor():
    K = KripkeStructure(2, frozenset({(0, 1)}))
    assert list(successor_teams(K, frozenset())) == [frozenset()]


# ---------------------------------------------------------------------------
# Model files

MODEL_TEXT = """
# a structure, two teams, and a Kripke model
domain 3
rel P 1 { (0) (2) }
rel R 2 { (0,1) (1,2)
          (2,0) }
fun F 1 { (0)->1 (1)->2 (2)->0 }

T = team x y { (0,1) (2,2) }
U = team x { }

K = kripke 2 { edges (0,1) (1,1) ; val p { 0 1 } ; val q { } ; team { 0 } }
K2 = kripke 1 { }
"""


def test_parse_model_file_full():
    mf = parse_model_file(MODEL_TEXT)
    assert mf.structure.domain_size == 3
    assert mf.structure.holds("P", (2,)) and not mf.structure.holds("P", (1,))
    assert mf.structure.relations["R"] == frozenset({(0, 1), (1, 2), (2, 0)})
    assert mf.structure.functions["F"][(2,)] == 0
    assert mf.teams["T"] == Team.from_tuples(("x", "y"), [(0, 1), (2, 2)])
    assert mf.teams["U"] == Team.empty(("x",))
    K = mf.kripkes["K"]
    assert K.worlds == 2 and K.edges == frozenset({(0, 1), (1, 1)})
    assert K.valuation["p"] == frozenset({0, 1}) and K.valuation["q"] == frozenset()
    assert mf.kripke_teams["K"] == frozenset({0})
    # a kripke block without a team clause defaults to all worlds
    assert mf.kripkes["K2"].worlds == 1
    assert mf.kripke_teams["K2"] == frozenset({0})


def test_model_file_kripke_default_team():
    mf = parse_model_file("kripke 2 { edges (0,1) }")
    assert mf.kripke_teams["K"] == frozenset({0, 1})


def test_model_file_team_without_structure():
    mf = parse_model_file("team x y { (0,0) }")
    assert mf.structure is None
    assert mf.teams["T"].domain == ("x", "y")


def test_model_file_empty_domain_team():
    mf = parse_model_file("A = team { } \nB = team { () }")
    assert mf.teams["A"] == Team.empty()
    assert mf.teams["B"] == Team.unit()


@pytest.mark.parametrize(
    "bad",
    [
        "rel P 1 { (0) }",  # relations need a domain
        "domain 3\nrel P 1 { (0) } trailing",
        "domain 3\nrel P 1 { (0)",  # unterminated block
        "domain x",
        "team x y { (0) }",  # row width mismatch
        "kripke 2 { edges (0,5) }",
        "kripke 2 { wibble { } }",
        "mystery 3",
        "domain 2\nrel P two { (0) }",  # arity must be a number
        "domain 2\nfun f 1 { (0,1)->0 }",  # entry of another arity than declared
        "domain 2\nfun f 1 { (0)->1 (1)->0 junk }",
        "kripke 2 { edges (0,1) ; val p { 0 } junk ; team { 1 } }",
        "kripke 2 { edges (0,1) ; val p { 0 } ; team { 1 } more }",
        "kripke 2 { val p q { 0 } }",  # one proposition per val clause
        "kripke 2 { team 1 { 0 } }",
        "domain 2\ndomain 3",  # a later declaration never overrides an earlier one
        "domain 2\nrel P 1 { }\nrel P 1 { (0) }",
        "domain 2\nrel f 1 { }\nfun f 1 { (0)->0 (1)->0 }",
        "team x { (0) }\nteam x { (1) }",
        "K = kripke 1 { }\nK = kripke 2 { }",
        "kripke 2 { val p { 0 } ; val p { 1 } }",
        "kripke 2 { team { 0 } ; team { 1 } }",
        "kripke 2 { edges (0,1) ; edges (1,0) }",
        "domain 2\nfun f 1 { (0)->1 (0)->0 (1)->0 }",
        "kripke 2 3 { }",
        "team x x { (0,0) }",
        "T =\nteam x { (0) }",  # a block's name is on its first line
    ],
)
def test_model_file_rejects(bad):
    with pytest.raises(ParseError):
        parse_model_file(bad)


@pytest.mark.parametrize(
    "clause", ["val p { 0 } junk", "team { 1 } more"]
)
def test_kripke_clause_trailing_text_reports_its_own_line(clause):
    text = f"# a comment\n\nK = kripke 2 {{ edges (0,1) ;\n  {clause} }}"
    with pytest.raises(ParseError, match="trailing text") as info:
        parse_model_file(text)
    assert info.value.line == 4


@pytest.mark.parametrize(
    "text, line",
    [
        ("domain 2\nrel P 1 {\n (0)\n (1) junk\n}", 4),
        ("domain 2\nrel P 1 {\n (0)\n (x)\n}", 4),
        ("domain 2\nrel P 1 {\n (0)\n\n (0,1) }", 5),  # another arity than declared
        ("domain 2\nfun f 1 {\n (0)->1\n (1)->0 junk }", 4),
        ("domain 2\nfun f 1 {\n (0)->1\n (0,1)->0 }", 4),
        ("team x y {\n (0,0)\n (0,1) oops\n}", 3),
        ("team x y {\n (0,0)\n (0) }", 3),
        ("team {\n ()\n (0) }", 3),
        ("kripke 2 {\n edges (0,1)\n (1,x) ;\n team { 0 } }", 3),
        ("kripke 2 {\n edges (0,1)\n (1) ;\n team { 0 } }", 3),
        ("kripke 2 {\n edges (0,1) ;\n wibble { } }", 3),
        ("kripke 2 { edges (0,1) ;\n val p {\n 0 } junk }", 3),
        ("kripke 2 { edges (0,1) ;\n\n val p { 0 x } }", 3),
        ("domain 2\n\n# again\ndomain 3", 4),
        ("domain 2\nrel P 1 {\n (0) }\nfun P 1 {\n (0)->0 (1)->0 }", 4),
        ("T = team x {\n (0) }\nT = team x {\n (1) }", 3),
        ("K = kripke 1 {\n}\nK = kripke 2 {\n}", 3),
        ("kripke 2 {\n val p { 0 } ;\n val p { 1 } }", 3),
        ("kripke 2 {\n team { 0 } ;\n\n team { 1 } }", 4),
        ("kripke 2 {\n edges (0,1) ;\n edges (1,0) }", 3),
        ("domain 2\nfun f 1 {\n (0)->1\n (1)->0\n (0)->0 }", 5),
        ("# a comment\nkripke 2 3 {\n}", 2),
        ("domain 2\n\nteam x x {\n (0,0) }", 3),
    ],
)
def test_errors_in_a_multi_line_block_carry_the_faulty_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_model_file(text)
    assert info.value.line == line


def _tuple_text(t) -> str:
    return "(" + ",".join(map(str, t)) + ")"


@st.composite
def _model_files(draw):
    """A random model file as (header, items) blocks, plus the objects it
    declares; the domain line has no items."""
    n = draw(st.integers(1, 3))
    blocks = [(f"domain {n}", None)]
    relations, functions, arities = {}, {}, {}
    for name in draw(st.lists(st.sampled_from("PQRfgh"), unique=True, max_size=4)):
        arities[name] = arity = draw(st.integers(0, 2))
        universe = list(itertools.product(range(n), repeat=arity))
        if draw(st.booleans()):
            rows = draw(st.lists(st.sampled_from(universe), unique=True))
            relations[name] = frozenset(rows)
            blocks.append((f"rel {name} {arity} {{", [_tuple_text(t) for t in rows]))
        else:
            size = len(universe)
            values = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
            functions[name] = dict(zip(universe, values))
            entries = [f"{_tuple_text(t)}->{v}" for t, v in zip(universe, values)]
            blocks.append((f"fun {name} {arity} {{", entries))
    teams = {}
    for name in draw(st.lists(st.sampled_from("TU"), unique=True)):
        variables = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=2))
        universe = list(itertools.product(range(n), repeat=len(variables)))
        rows = draw(st.lists(st.sampled_from(universe), unique=True))
        teams[name] = Team.from_tuples(variables, rows)
        blocks.append((f"{name} = team {' '.join(variables)} {{", [_tuple_text(t) for t in rows]))
    worlds = draw(st.integers(1, 3))
    world = st.integers(0, worlds - 1)
    edges = draw(st.lists(st.tuples(world, world), unique=True))
    props = draw(st.lists(st.sampled_from("pq"), unique=True))
    valuation = {p: frozenset(draw(st.lists(world, unique=True))) for p in props}
    team = frozenset(draw(st.lists(world, unique=True)))
    items = ["edges", *map(_tuple_text, edges)]
    for p, ws in valuation.items():
        items += [";", "val", p, "{", *map(str, sorted(ws)), "}"]
    items += [";", "team", "{", *map(str, sorted(team)), "}"]
    blocks.append((f"K = kripke {worlds} {{", items))
    blocks = draw(st.permutations(blocks))
    kripke = KripkeStructure(worlds, frozenset(edges), valuation)
    expected = (Structure(n, relations, functions, arities), teams, {"K": kripke}, {"K": team})
    return blocks, expected


_SEPARATORS = st.sampled_from([" ", "\n", "  # a comment\n", "\n\n  "])


@settings(max_examples=80, deadline=None)
@given(_model_files(), st.data())
def test_model_file_round_trip(model, data):
    # A block's items may be spread over lines and mixed with comments.
    blocks, expected = model
    for spread in (False, True):
        lines = []
        for header, items in blocks:
            parts = [header]
            for item in [] if items is None else items + ["}"]:
                parts += [data.draw(_SEPARATORS) if spread else " ", item]
            lines.append("".join(parts))
        mf = parse_model_file("\n".join(lines))
        assert (mf.structure, mf.teams, mf.kripkes, mf.kripke_teams) == expected
