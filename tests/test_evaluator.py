"""Team-semantics evaluation: flatness, dependency atoms, connectives,
quantifiers, modal evaluation, and resource accounting."""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    random_fo_formula,
    random_kripke,
    random_mtl_formula,
    random_structure,
    random_team,
    random_team_formula,
)
from tlk import (
    Budget,
    BudgetExceeded,
    EvalStats,
    KripkeStructure,
    Structure,
    Team,
    eval_fo,
    eval_hook,
    eval_ml,
    eval_mtl,
    eval_team,
    eval_term,
    parse,
)
from tlk import evaluator as E
from tlk import syntax as S
from tlk.structures import (
    Assignment,
    duplicate,
    successor_teams,
    supplement,
    team_restrict,
)
from tlk.evaluator import team_satisfying

XY = ("x", "y")


def _structure(n=2, P=(0,), R=((0, 1),)):
    return Structure(
        n,
        {"P": frozenset((a,) for a in P), "R": frozenset(R)},
        arities={"P": 1, "R": 2},
    )


# ---------------------------------------------------------------------------
# Flatness and the empty team


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_first_order_formulas_are_flat(seed):
    # [PAPER] a team satisfies a first-order formula exactly when every
    # row does classically
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    A = random_structure(rng, n)
    T = random_team(rng, n, XY, 4)
    alpha = random_fo_formula(rng, rng.randint(1, 6), XY)
    assert eval_team(A, T, alpha) == all(eval_fo(A, s, alpha) for s in T.rows)


def test_empty_team_satisfies_flat_and_dependency_atoms():
    # [PAPER] the empty team satisfies every first-order formula and
    # every dependency atom, but no NE-style existence claim
    A = _structure()
    empty = Team.empty(XY)
    for text in ("P(x)", "bot", "dep(x,y)", "inc(x,y)", "exc(x,y)", "indep(x,y)"):
        assert eval_team(A, empty, parse(text, "team")) is True, text
    assert eval_team(A, empty, parse("NE P(x)", "team")) is False
    assert eval_team(A, empty, parse("~top", "team")) is False


# ---------------------------------------------------------------------------
# Dependency atoms  [PAPER] semantics, frozen verdicts


def test_dependence_atom():
    A = _structure(3)
    # y is a function of x?
    functional = Team.from_tuples(XY, [(0, 1), (1, 2), (0, 1)])
    broken = Team.from_tuples(XY, [(0, 1), (0, 2)])
    dep = parse("dep(x,y)", "team")
    assert eval_team(A, functional, dep) is True
    assert eval_team(A, broken, dep) is False
    # constancy of a single variable
    const = parse("dep(x)", "team")
    assert eval_team(A, Team.from_tuples(XY, [(1, 0), (1, 2)]), const) is True
    assert eval_team(A, Team.from_tuples(XY, [(1, 0), (2, 0)]), const) is False


def test_inclusion_atom():
    A = _structure(3)
    inc = parse("inc(x,y)", "team")  # x-values appear among y-values
    assert eval_team(A, Team.from_tuples(XY, [(0, 0), (1, 0)]), inc) is False
    assert eval_team(A, Team.from_tuples(XY, [(0, 1), (1, 0)]), inc) is True
    assert eval_team(A, Team.from_tuples(XY, [(2, 2)]), inc) is True


def test_exclusion_atom():
    A = _structure(3)
    exc = parse("exc(x,y)", "team")  # x-values and y-values disjoint
    assert eval_team(A, Team.from_tuples(XY, [(0, 1), (2, 1)]), exc) is True
    assert eval_team(A, Team.from_tuples(XY, [(0, 1), (1, 2)]), exc) is False
    assert eval_team(A, Team.from_tuples(XY, [(1, 1)]), exc) is False


def test_independence_atom():
    A = _structure(2)
    indep = parse("indep(x,y)", "team")  # every x-value pairs with every y-value
    assert eval_team(A, Team.from_tuples(XY, [(0, 0), (0, 1), (1, 0), (1, 1)]), indep) is True
    assert eval_team(A, Team.from_tuples(XY, [(0, 0), (1, 1)]), indep) is False
    assert eval_team(A, Team.from_tuples(XY, [(0, 0), (0, 1)]), indep) is True


# ---------------------------------------------------------------------------
# Connectives


def test_boolean_negation_differs_from_classical():
    A = _structure(2, P=(0,))
    T = Team.from_tuples(XY, [(0, 0), (1, 0)])
    # classically negated P fails on the mixed team, and so does P
    assert eval_team(A, T, parse("P(x)", "team")) is False
    assert eval_team(A, T, parse("!P(x)", "team")) is False
    # Boolean negation just flips the verdict
    assert eval_team(A, T, parse("~P(x)", "team")) is True
    assert eval_team(A, T, parse("~(~P(x))", "team")) is False


def test_splitjunction_covers():
    A = _structure(2, P=(0,))
    T = Team.from_tuples(XY, [(0, 0), (1, 0)])
    # [PAPER] the mixed team splits into the P-half and the non-P-half
    assert eval_team(A, T, parse("P(x) | (!P(x))", "team")) is True
    # [PAPER] splitting rescues a failed dependence atom: each half of
    # the two-valued team is constant even though the whole is not
    two_values = Team.from_tuples(XY, [(0, 0), (1, 0)])
    assert eval_team(A, two_values, parse("dep(x)", "team")) is False
    assert eval_team(A, two_values, parse("dep(x) | dep(x)", "team")) is True
    # overlap is allowed: both halves may keep the same row
    assert eval_team(A, two_values, parse("inc(x,x) | inc(x,x)", "team")) is True


def test_conjunction_is_pointwise_on_teams():
    A = _structure(2, P=(0,))
    T = Team.from_tuples(XY, [(0, 1)])
    assert eval_team(A, T, parse("P(x) & (~P(y))", "team")) is True


# ---------------------------------------------------------------------------
# Quantifiers


def test_exists_supplements_lax():
    # [PAPER] a supplementing function may pick several witnesses per row,
    # which single-value choices cannot simulate
    A = _structure(2, P=(0,))
    one_row = Team.from_tuples(("x",), [(0,)])
    phi = parse("E y. ((NE P(y)) & (NE (!P(y))))", "team")
    assert eval_team(A, one_row, phi) is True


def test_forall_duplicates():
    A = _structure(2, P=(0, 1))
    T = Team.from_tuples(("x",), [(0,)])
    assert eval_team(A, T, parse("A y. P(y)", "team")) is True
    assert eval_team(A, T, parse("A y. (x = y)", "team")) is False
    # [PAPER] universal quantification keeps dependence on the old column
    assert eval_team(A, T, parse("A y. dep(x)", "team")) is True


def test_quantifier_over_empty_team():
    A = _structure(2)
    empty = Team.empty(("x",))
    assert eval_team(A, empty, parse("E y. (x = y)", "team")) is True
    assert eval_team(A, empty, parse("A y. (x = y)", "team")) is True


# ---------------------------------------------------------------------------
# Selective implication fast path


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_hook_matches_its_definition(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    A = random_structure(rng, n)
    T = random_team(rng, n, XY, 4)
    alpha = random_fo_formula(rng, rng.randint(1, 4), XY)
    phi = random_team_formula(rng, rng.randint(1, 5), XY)
    spelled = S.Or(S.Not(alpha), S.And(alpha, phi))
    assert eval_hook(A, T, alpha, phi) == eval_team(A, T, spelled)


def test_hook_fast_path_is_counted():
    A = _structure(2, P=(0,))
    T = Team.from_tuples(XY, [(0, 0), (1, 1)])
    stats = EvalStats()
    phi = parse("(!P(x)) | (P(x) & dep(x,y))", "team")
    assert eval_team(A, T, phi, stats=stats) is True
    assert stats.hooks >= 1


# ---------------------------------------------------------------------------
# Evaluation options and resources


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_localize_and_memo_do_not_change_verdicts(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    A = random_structure(rng, n)
    T = random_team(rng, n, XY, 3)
    phi = random_team_formula(rng, rng.randint(1, 6), XY)
    want = eval_team(A, T, phi)
    assert eval_team(A, T, phi, localize=False) == want
    assert eval_team(A, T, phi, memo=False) == want
    assert eval_team(A, T, phi, localize=False, memo=False) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_modal_memo_does_not_change_verdicts(seed):
    rng = random.Random(seed)
    K = random_kripke(rng, rng.randint(1, 3))
    T = frozenset(w for w in range(K.worlds) if rng.random() < 0.6)
    phi = random_mtl_formula(rng, rng.randint(1, 7), 2)
    assert eval_mtl(K, T, phi, memo=False) == eval_mtl(K, T, phi, memo=True)


def test_budget_exhaustion_raises():
    A = _structure(3)
    T = Team.from_tuples(XY, [(a, b) for a in range(3) for b in range(3)])
    phi = parse("E x. E y. (dep(x,y) | dep(y,x))", "team")
    with pytest.raises(BudgetExceeded):
        eval_team(A, T, phi, Budget(max_steps=2))


def test_stats_accumulate():
    A = _structure(2, P=(0,))
    T = Team.from_tuples(XY, [(0, 0), (1, 0)])

    # A flat first-order formula is decided in a single pass: one node.
    flat = EvalStats()
    eval_team(A, T, parse("P(x) | (!P(x))", "team"), stats=flat)
    assert flat.nodes == 1
    assert flat.splits == 0

    # Team-level connectives walk the tree and record the split search.
    stats = EvalStats()
    eval_team(A, T, parse("dep(x) | dep(x)", "team"), stats=stats)
    assert stats.nodes >= 3
    assert stats.splits >= 1


# ---------------------------------------------------------------------------
# Terms and classical evaluation


def test_eval_term_function_application():
    A = Structure(3, {}, functions={"F": {(0,): 1, (1,): 2, (2,): 0}}, arities={"F": 1})
    t = S.Func("F", (S.Func("F", (S.Var("x"),)),))
    assert eval_term(A, Assignment.of(x=0), t) == 2


def test_eval_fo_is_classical():
    A = _structure(2, P=(0,), R=((0, 1), (1, 0)))
    s = Assignment.of(x=0, y=1)
    assert eval_fo(A, s, parse("R(x,y) & (!R(y,y))", "team")) is True
    assert eval_fo(A, s, parse("E y. (R(y,x) | P(y))", "team")) is True
    assert eval_fo(A, s, parse("A y. R(x,y)", "team")) is False
    with pytest.raises(ValueError):
        eval_fo(A, s, parse("dep(x,y)", "team"))  # not first-order


# ---------------------------------------------------------------------------
# Modal evaluation


def _diamond_kripke():
    # worlds 0 -> 1, 0 -> 2; p at 1 only
    return KripkeStructure(3, frozenset({(0, 1), (0, 2)}), {"p": frozenset({1})})


def test_eval_ml_pointwise():
    K = _diamond_kripke()
    assert eval_ml(K, 0, parse("<>p", "mtl")) is True
    assert eval_ml(K, 0, parse("[]p", "mtl")) is False
    assert eval_ml(K, 1, parse("p", "mtl")) is True
    assert eval_ml(K, 2, parse("<>p", "mtl")) is False


def test_eval_mtl_team_modalities():
    K = _diamond_kripke()
    # [PAPER] diamond asks for one successor team, box for the full image
    assert eval_mtl(K, frozenset({0}), parse("<>p", "mtl")) is True
    assert eval_mtl(K, frozenset({0}), parse("[]p", "mtl")) is False
    assert eval_mtl(K, frozenset(), parse("[]p", "mtl")) is True
    # a world without successors satisfies box but not diamond
    assert eval_mtl(K, frozenset({1}), parse("[]p", "mtl")) is True
    assert eval_mtl(K, frozenset({1}), parse("<>p", "mtl")) is False


def test_eval_mtl_boolean_negation_and_split():
    K = KripkeStructure(2, frozenset(), {"p": frozenset({0})})
    T = frozenset({0, 1})
    assert eval_mtl(K, T, parse("p", "mtl")) is False
    assert eval_mtl(K, T, parse("~p", "mtl")) is True
    assert eval_mtl(K, T, parse("p | (!p)", "mtl")) is True


def test_eval_mtl_rejects_first_order_syntax():
    K = _diamond_kripke()
    with pytest.raises(ValueError):
        eval_mtl(K, frozenset({0}), parse("dep(x,y)", "team"))


# ---------------------------------------------------------------------------
# The prepared formula is reused across calls with the same formula object


def _copy(phi, copies=None):
    """A copy of phi made of new objects, even for the S.TOP/S.BOT
    singletons, that shares a node exactly where phi shares one: the memo
    is keyed by node identity, so its hits depend on the sharing."""
    copies = {} if copies is None else copies
    copy = copies.get(id(phi))
    if copy is None:
        if S.children(phi):
            copy = S.map_children(phi, lambda c: _copy(c, copies))
        else:
            copy = dataclasses.replace(phi)
        copies[id(phi)] = copy
    return copy


def _fresh(phi):
    """An equal copy of phi that shares no node with it."""
    copy = _copy(phi)
    assert copy == phi
    assert not {id(n) for n in S.walk(copy)} & {id(n) for n in S.walk(phi)}
    return copy


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
@example(seed=510509)  # draws top, which parse returns as the shared S.TOP
@example(seed=134)  # E x. A x. (bot & (~bot)) holds one S.BOT twice
def test_equal_formula_objects_evaluated_alternately_agree_with_cold_calls(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    A = random_structure(rng, n)
    phi = random_team_formula(rng, rng.randint(1, 6), XY)
    twins = (phi, _fresh(phi))
    for i in range(6):
        T = random_team(rng, n, XY, 3)
        warm, cold = EvalStats(), EvalStats()
        warm_budget, cold_budget = Budget(), Budget()
        got = eval_team(A, T, twins[i % 2], warm_budget, stats=warm)
        assert got == eval_team(A, T, _fresh(phi), cold_budget, stats=cold)
        assert (warm, warm_budget.used) == (cold, cold_budget.used)


def test_a_newly_allocated_formula_replacing_a_dropped_one_is_prepared_afresh():
    rng = random.Random(7)
    A = random_structure(rng, 2)
    T = random_team(rng, 2, XY, 4)
    texts = [
        S.format_formula(random_team_formula(rng, rng.randint(1, 7), XY)) for _ in range(40)
    ]
    want = [eval_team(A, T, parse(text, "team")) for text in texts]
    for _ in range(3):
        for text, verdict in zip(texts, want):
            # Nothing else holds the formula, so a later one may reuse its ids.
            assert eval_team(A, T, parse(text, "team")) == verdict


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_checks_against_team_and_structure_run_on_every_call():
    text = "dep(x,y) & (P(x) | (R(x,y) & f(x) = y))"
    A = Structure(
        2,
        {"P": frozenset({(0,)}), "R": frozenset({(0, 1)})},
        {"f": {(0,): 1, (1,): 0}},
    )
    T = Team.from_tuples(XY, [(0, 1)])
    bad_pairs = [
        (A, Team.from_tuples(("x",), [(0,)])),  # y is unbound
        (Structure(2, {"P": frozenset({(0,)})}, {"f": {(0,): 1, (1,): 0}}), T),  # no R
        (Structure(2, {"P": frozenset(), "R": frozenset({(0,)})},  # R has arity 1
                   {"f": {(0,): 1, (1,): 0}}, arities={"P": 1}), T),
        (Structure(2, {"P": frozenset({(0,)}), "R": frozenset({(0, 1)})}), T),  # no f
    ]
    phi = parse(text, "team")
    for structure, team in bad_pairs:
        cold = _error(lambda: eval_team(structure, team, parse(text, "team")))
        eval_team(A, T, phi)
        assert _error(lambda: eval_team(structure, team, phi)) == cold


@pytest.mark.parametrize("text", ["f(x,y) = x", "P(f(x,y))", "dep(f(x,y),y)"])
def test_function_arity_is_checked_against_the_structure(text):
    A = Structure(2, {"P": frozenset({(0,)})}, {"f": {(0,): 1, (1,): 0}})
    T = Team.from_tuples(XY, [(0, 1)])
    for memo in (True, False):
        message = _error(lambda: eval_team(A, T, parse(text, "team"), memo=memo))
        assert message == "function 'f' has arity 1, used with 2"


def test_language_check_runs_on_every_call():
    K = KripkeStructure(2, frozenset({(0, 1)}), {"p": frozenset({1})})
    modal = parse("<>p", "mtl")
    A = _structure()
    T = Team.from_tuples(XY, [(0, 1)])
    eval_mtl(K, {0}, modal)
    assert "team formula" in _error(lambda: eval_team(A, T, modal))
    assert "team formula" in _error(lambda: eval_team(A, T, modal))
    dep = parse("dep(x,y)", "team")
    eval_team(A, T, dep)
    assert "mtl formula" in _error(lambda: eval_mtl(K, {0}, dep))


def test_team_values_outside_the_domain_are_rejected():
    # A value outside the domain has no place in a mask over the n^k value
    # tuples; with or without localize, and in a column phi never reads.
    A = _structure(2)
    for team, text in [
        (Team.from_tuples(("x",), [(5,), (0,)]), "x = x"),
        (Team.from_tuples(("x",), [(5,), (0,)]), "E y. dep(x,y)"),
        (Team.from_tuples(XY, [(0, -1)]), "P(x)"),
    ]:
        for localize in (True, False):
            with pytest.raises(ValueError, match="leaves the domain"):
                eval_team(A, team, parse(text, "team"), localize=localize)


# ---------------------------------------------------------------------------
# Positional teams: each mask operation equals its Team-level counterpart


def _team_of(frame, mask) -> Team:
    return Team(frame.xs, frozenset(frame.rows(mask)))


def _sorted_rows(frame, mask) -> list[Assignment]:
    return [frame.row(i) for i in frame.ordered(mask)]


def _some(iterable, count=60):
    return list(itertools.islice(iterable, count))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
@example(seed=0)
def test_mask_operations_equal_the_team_operations(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    A = random_structure(rng, n)
    ev = E._TeamEvaluator(A, E._Prepared(S.TOP, "team"), None, EvalStats(), True, True)
    variables = tuple(sorted(rng.sample("xyz", rng.randint(0, 3))))
    if variables:
        T = random_team(rng, n, variables, 5)
    else:
        T = rng.choice([Team.empty(), Team.unit()])
    frame = ev.frame(variables)
    mask = frame.pack(T)
    assert _sorted_rows(frame, mask) == T.sorted_rows()
    assert _team_of(frame, mask) == T
    rows = T.sorted_rows()

    keep = frozenset(rng.sample("xyz", rng.randint(0, 3)))
    target, restricted = ev.restrict(frame, mask, keep)
    assert target.xs == tuple(sorted(keep & set(variables)))
    assert _team_of(target, restricted) == team_restrict(T, keep)
    assert ev.restrict(frame, mask, keep) == (target, restricted)

    # the variable may be bound already, and is then overwritten
    var = rng.choice("xyz")
    target, options = ev.supplements(frame, mask, var)
    subsets = [tuple(a for a in range(n) if c >> a & 1) for c in range(1, 2**n)]
    functions = itertools.product(subsets, repeat=len(rows))
    candidates = E._or_products([E._subset_masks(bits) for bits in options])
    for choice, got in zip(_some(functions), _some(candidates)):
        assert _team_of(target, got) == supplement(T, var, dict(zip(rows, choice)))
    duplicated = 0
    for bits in options:
        for bit in bits:
            duplicated |= bit
    assert _team_of(target, duplicated) == duplicate(T, var, n)

    if variables:
        alpha = random_fo_formula(rng, rng.randint(1, 4), variables)
        assert _team_of(frame, E._satisfying(A, frame, mask, alpha)) == team_satisfying(A, T, alpha)

    shapes = itertools.product((0, 1, 2), repeat=len(rows))
    want = [
        ([r for r, side in zip(rows, shape) if side != 1],
         [r for r, side in zip(rows, shape) if side != 0])
        for shape in _some(shapes)
    ]
    covers = E._covers(frame.ordered(mask))
    assert [(_sorted_rows(frame, s), _sorted_rows(frame, u)) for s, u in _some(covers)] == want


def test_masks_grow_with_the_rows_in_use_not_the_universe():
    # Over domain 20 a six-variable team ranges over 20^6 value tuples, and
    # each row has 2^20 - 1 nonempty value sets for an existential; a
    # five-row team must cost what its rows do.
    A = Structure(20, {"P": frozenset((a,) for a in range(5))}, arities={"P": 1})
    T = Team.from_tuples(tuple("abcdef"), [(19 - i, 19, 19, 19, 19, 19 - i) for i in range(5)])
    split = parse("(a = b & (c = d & e = f)) | (~(a = f))", "team")
    exists = parse("E g. (dep(a, g) & (b = c & d = e) & f = f)", "team")
    tracemalloc.start()
    try:
        for localize in (True, False):
            assert eval_team(A, T, split, localize=localize) is False
            assert eval_team(A, T, exists, localize=localize) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_world_mask_operations_equal_the_set_operations(seed):
    rng = random.Random(seed)
    K = random_kripke(rng, rng.randint(1, 5))
    T = frozenset(w for w in range(K.worlds) if rng.random() < 0.5)
    mask = sum(1 << w for w in T)
    successors = E._successor_table(K)
    assert E._image(successors, mask) == sum(1 << w for w in K.image(T))
    want_budget, got_budget = Budget(), Budget()
    want = [sum(1 << w for w in s) for s in successor_teams(K, T, want_budget)]
    assert list(E._successor_teams(successors, mask, got_budget.charge)) == want
    assert got_budget.used == want_budget.used


def test_or_products_follow_the_product_order_and_read_lazily():
    options = [(1 << i, 2 << i, 3 << i) for i in range(0, 14, 2)]
    want = [sum(combo) for combo in itertools.product(*options)]
    assert list(E._or_products(options)) == want
    assert list(E._or_products([])) == [0]
    assert list(E._or_products([(1,), (), (2,)])) == []
    assert list(E._subset_masks([1, 2, 4])) == [1, 2, 3, 4, 5, 6, 7]
    # the first combination reads one option of each row, no more
    read = []

    def row(bits):
        for bit in bits:
            read.append(bit)
            yield bit

    assert next(E._or_products([row([1, 2]), row([4, 8]), row([16, 32])])) == 21
    assert read == [1, 4, 16]


# ---------------------------------------------------------------------------
# Verdicts and counts pinned on a seeded corpus

XYZ = ("x", "y", "z")


def _corpus_totals():
    """Per setting, the number of True, False and budget-exhausted
    verdicts, then Budget.used, nodes, splits and hooks summed, over
    seeded eval_team and eval_mtl calls."""
    rng = random.Random(2026)
    totals = {}

    def record(key, call):
        budget, stats = Budget(3000), EvalStats()
        try:
            verdict = call(budget, stats)
        except BudgetExceeded:
            verdict = None
        row = totals.setdefault(key, [0] * 7)
        row[(True, False, None).index(verdict)] += 1
        for i, count in enumerate((budget.used, stats.nodes, stats.splits, stats.hooks)):
            row[3 + i] += count

    for _ in range(150):
        n = rng.randint(1, 3)
        A = random_structure(rng, n)
        T = random_team(rng, n, XYZ, 4)  # z is never free: dropped at entry
        phi = random_team_formula(rng, rng.randint(1, 7), XY)
        if rng.random() < 0.3:
            alpha = random_fo_formula(rng, rng.randint(1, 3), XY)
            phi = S.Or(S.Not(alpha), S.And(alpha, phi))
        for localize in (True, False):
            for memo in (True, False):
                record(("team", localize, memo), lambda b, s: eval_team(
                    A, T, phi, b, localize=localize, memo=memo, stats=s))
    for _ in range(150):
        K = random_kripke(rng, rng.randint(1, 4))
        T = frozenset(w for w in range(K.worlds) if rng.random() < 0.6)
        phi = random_mtl_formula(rng, rng.randint(1, 9), 2)
        for memo in (True, False):
            record(("mtl", memo), lambda b, s: eval_mtl(K, T, phi, b, memo=memo, stats=s))
    return {key: tuple(row) for key, row in totals.items()}


def test_verdicts_steps_and_counts_on_a_seeded_corpus():
    # Pinned from the Team-based evaluators that the mask-based ones
    # replaced: enumeration order, memo hits and budget charges are kept.
    assert _corpus_totals() == {
        ("team", True, True): (85, 65, 0, 1543, 595, 848, 26),
        ("team", True, False): (85, 64, 1, 3822, 2195, 1573, 26),
        ("team", False, True): (85, 63, 2, 7204, 3215, 3239, 26),
        ("team", False, False): (85, 63, 2, 8188, 5503, 1935, 26),
        ("mtl", True): (68, 82, 0, 407, 323, 14, 0),
        ("mtl", False): (68, 82, 0, 442, 358, 14, 0),
    }
