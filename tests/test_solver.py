"""Bounded satisfiability, validity, and the two-variable search route."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlk import Budget, BudgetExceeded, EvalStats, eval_team, parse
from tlk import syntax as S
from tlk.solver import (
    Counterexample,
    ResourceExhausted,
    Satisfiable,
    UnsatUpTo,
    ValidUpTo,
    _structures,
    sat_bounded,
    sat_fo2,
    valid_bounded,
)

from helpers import all_teams, random_team_formula

VOCAB = S.Vocabulary(predicates={"P": 1, "R": 2})
EMPTY_VOCAB = S.Vocabulary(predicates={})


def _t(text):
    return parse(text, "team")


# ---------------------------------------------------------------------------
# Frozen verdicts


def test_unsatisfiable_formula_up_to_bound():
    outcome = sat_bounded(_t("~(x = x)"), EMPTY_VOCAB, max_domain=2)
    assert outcome == UnsatUpTo(max_domain=2)


def test_satisfiable_formula_yields_verified_witness():
    phi = _t("(NE P(x)) & (NE (!P(x)))")
    outcome = sat_bounded(phi, VOCAB, max_domain=2)
    assert isinstance(outcome, Satisfiable)
    # Needs both a P-row and a non-P-row, so the smallest witness is
    # the full two-element team with P holding on exactly one element.
    assert outcome.structure.domain_size == 2
    assert sorted(outcome.structure.relations["P"]) == [(0,)]
    assert sorted(s.get("x") for s in outcome.team.rows) == [0, 1]
    assert eval_team(outcome.structure, outcome.team, phi)


def test_valid_formula_up_to_bound():
    assert valid_bounded(_t("x = x"), EMPTY_VOCAB, max_domain=2) == ValidUpTo(2)


def test_invalid_formula_yields_counterexample():
    phi = _t("NE P(x)")
    outcome = valid_bounded(phi, VOCAB, max_domain=2)
    assert isinstance(outcome, Counterexample)
    assert not eval_team(outcome.structure, outcome.team, phi)
    # The very first candidate refutes it: the empty team on the
    # one-element structure with both relations empty.
    assert outcome.structure.domain_size == 1
    assert len(outcome.team) == 0


def test_search_is_deterministic():
    phi = _t("NE R(x,y)")
    first = sat_bounded(phi, VOCAB, max_domain=2)
    second = sat_bounded(phi, VOCAB, max_domain=2)
    assert first == second


def test_search_prefers_minimal_witnesses():
    # Flat formulas are satisfied by the empty team, found first.
    outcome = sat_bounded(_t("P(x)"), VOCAB)
    assert isinstance(outcome, Satisfiable)
    assert outcome.structure.domain_size == 1
    assert len(outcome.team) == 0


# ---------------------------------------------------------------------------
# Input validation and resource limits


def test_searchable_vocabulary_is_enforced():
    with pytest.raises(ValueError, match="missing from the vocabulary"):
        sat_bounded(_t("Zeta(x)"), VOCAB)
    with pytest.raises(ValueError, match="relational vocabulary"):
        sat_bounded(_t("P(x)"), S.Vocabulary(predicates={"P": 1}, functions={"f": 1}))
    with pytest.raises(Exception):
        sat_bounded(parse("<>p", "mtl"), VOCAB)  # not a team formula


@pytest.mark.parametrize("search", [sat_bounded, valid_bounded])
def test_a_deep_formula_raises_a_tlk_error_not_a_recursion_error(search):
    with pytest.raises(S.NestingTooDeep, match="^formula nested too deeply$"):
        search(_t(" & ".join(["P(x)"] * 1500)), VOCAB, max_domain=1)


def test_tiny_budget_reports_resource_exhaustion():
    phi = _t("(NE P(x)) & (NE (!P(x)))")
    outcome = sat_bounded(phi, VOCAB, max_domain=2, budget=Budget(max_steps=5))
    assert isinstance(outcome, ResourceExhausted)
    assert "budget" in outcome.detail
    outcome = sat_fo2(phi, VOCAB, budget=Budget(max_steps=2))
    assert isinstance(outcome, ResourceExhausted)


def test_sat_fo2_size_budget_reports_resource_exhaustion():
    product = " & ".join(["(P(x) \\/ Q(x))"] * 4)  # 16 disjuncts
    vocab = S.Vocabulary(predicates={"P": 1, "Q": 1})
    outcome = sat_fo2(_t(product), vocab, size_budget=50)
    assert isinstance(outcome, ResourceExhausted)
    assert "size budget" in outcome.detail


# ---------------------------------------------------------------------------
# The two-variable route


def test_sat_fo2_flat_disjunct_uses_the_empty_team():
    outcome = sat_fo2(_t("P(x)"), VOCAB)
    assert isinstance(outcome, Satisfiable)
    assert outcome.structure.domain_size == 1
    assert len(outcome.team) == 0


def test_sat_fo2_builds_one_row_per_witness():
    phi = _t("(NE P(x)) & (NE (!P(x)))")
    outcome = sat_fo2(phi, VOCAB, model_bound=2)
    assert isinstance(outcome, Satisfiable)
    assert len(outcome.team) == 2
    assert eval_team(outcome.structure, outcome.team, phi)


def test_sat_fo2_detects_unsatisfiability():
    assert sat_fo2(_t("P(x) & (~P(x))"), VOCAB, model_bound=2) == UnsatUpTo(2)


def test_sat_fo2_rejects_extra_variables_and_dependencies():
    with pytest.raises(ValueError, match="unexpected variables"):
        sat_fo2(_t("E z. P(z)"), VOCAB)
    with pytest.raises(ValueError, match="no first-order disjunctive normal form"):
        sat_fo2(_t("dep(x,y)"), VOCAB)


def test_sat_fo2_agrees_with_direct_search():
    rng = random.Random(4242)
    xy = ("x", "y")
    agreements = 0
    sat_seen = 0
    unsat_seen = 0
    while agreements < 40:
        phi = random_team_formula(rng, rng.randint(1, 5), xy, dep_rate=0.0)
        if S.all_vars(phi) - {"x", "y"}:
            continue
        via_transfer = sat_fo2(phi, VOCAB, model_bound=2, size_budget=20_000)
        if isinstance(via_transfer, ResourceExhausted):
            continue
        direct = sat_bounded(phi, VOCAB, max_domain=2, budget=Budget(max_steps=2_000_000))
        if isinstance(direct, ResourceExhausted):
            continue
        assert isinstance(via_transfer, Satisfiable) is isinstance(direct, Satisfiable), (
            S.format_formula(phi)
        )
        if isinstance(via_transfer, Satisfiable):
            assert eval_team(via_transfer.structure, via_transfer.team, phi)
            sat_seen += 1
        else:
            unsat_seen += 1
        agreements += 1
    assert sat_seen >= 20
    assert unsat_seen >= 3


def test_witness_that_fails_its_recheck_raises(monkeypatch):
    import tlk.solver

    # the search itself finds the witness; only the re-check, the one
    # eval_team call the solver makes, is patched to reject it
    rechecks = []

    def reject(*args, **kw):
        rechecks.append(args)
        return False

    monkeypatch.setattr(tlk.solver, "eval_team", reject)
    with pytest.raises(tlk.solver.WitnessCheckFailed):
        sat_bounded(_t("NE P(x)"), VOCAB, max_domain=1)
    assert len(rechecks) == 1
    structure, team, _ = rechecks[0]
    assert sorted(structure.relations["P"]) == [(0,)] and len(team) == 1


# ---------------------------------------------------------------------------
# The search against a naive loop that never reuses a prepared formula


def _naive_sat(phi, vocab, max_domain, budget, stats, memo=True):
    """sat_bounded spelled out over every (structure, team) pair, one
    budget step per structure and per team, evaluating a fresh copy of
    phi on every pair with its own eval_team call."""
    text = S.format_formula(phi)
    variables = tuple(sorted(S.free_vars(phi)))
    try:
        for n in range(1, max_domain + 1):
            for structure in _structures(vocab, n, budget):
                for team in all_teams(n, variables):
                    if budget is not None:
                        budget.charge()
                    fresh = parse(text, "team")
                    if eval_team(structure, team, fresh, budget, stats=stats, memo=memo):
                        return Satisfiable(structure, team)
    except BudgetExceeded as exc:
        return ResourceExhausted(str(exc))
    return UnsatUpTo(max_domain)


def _naive_valid(phi, vocab, max_domain, budget, stats, memo=True):
    outcome = _naive_sat(S.BoolNot(phi), vocab, max_domain, budget, stats, memo)
    if isinstance(outcome, Satisfiable):
        return Counterexample(outcome.structure, outcome.team)
    return ValidUpTo(max_domain) if isinstance(outcome, UnsatUpTo) else outcome


ROUTES = [(sat_bounded, _naive_sat), (valid_bounded, _naive_valid)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([None, 40, 400]), st.sampled_from(ROUTES))
def test_search_matches_a_naive_loop_with_fresh_formulas(seed, max_steps, routes):
    # without the memo nothing is shared between teams: every count is
    # the per-pair loop's
    search, naive = routes
    rng = random.Random(seed)
    phi = random_team_formula(rng, rng.randint(1, 5), ("x", "y"))
    assert parse(S.format_formula(phi), "team") == phi
    runs = []
    for route in (search, naive):
        budget, stats = Budget(max_steps), EvalStats()
        runs.append((route(phi, VOCAB, 2, budget, stats, memo=False), budget.used, stats))
    assert runs[0] == runs[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(ROUTES))
def test_the_shared_memo_finds_the_naive_loops_witness_with_no_more_work(seed, routes):
    search, naive = routes
    rng = random.Random(seed)
    phi = random_team_formula(rng, rng.randint(1, 5), ("x", "y"))
    loop_budget, loop_stats = Budget(), EvalStats()
    want = naive(phi, VOCAB, 2, loop_budget, loop_stats)
    budget, stats = Budget(), EvalStats()
    assert search(phi, VOCAB, 2, budget, stats) == want
    assert budget.used <= loop_budget.used and stats.nodes <= loop_stats.nodes
    # every cap the loop finishes within, the search finishes within too
    for cap in sorted({40, 400, loop_budget.used // 2, loop_budget.used}):
        capped = naive(phi, VOCAB, 2, Budget(cap), EvalStats())
        if not isinstance(capped, ResourceExhausted):
            assert search(phi, VOCAB, 2, Budget(cap), EvalStats()) == capped


def _search_corpus_counts(memo):
    """(verdict letters, Budget.used, nodes) over 50 seeded formulas, each
    searched by sat_bounded and valid_bounded at domain 2 under a cap of
    3000 steps."""
    letter = {
        Satisfiable: "S", UnsatUpTo: "U", ValidUpTo: "V", Counterexample: "C",
        ResourceExhausted: "R",
    }
    rng = random.Random(6060)
    verdicts, used, nodes = "", 0, 0
    for _ in range(50):
        phi = random_team_formula(rng, rng.randint(1, 7), ("x", "y"))
        for search in (sat_bounded, valid_bounded):
            budget, stats = Budget(3_000), EvalStats()
            verdicts += letter[type(search(phi, VOCAB, 2, budget, stats, memo=memo))]
            used += budget.used
            nodes += stats.nodes
    return verdicts, used, nodes


def test_search_work_counters_on_a_seeded_corpus():
    # memo=False: the values of the per-pair loop with eval_team(...,
    # memo=False), recorded before the search shared one evaluator per
    # structure.  With the memo the search also finishes one search the
    # capped loop does not (the U in place of an R).
    verdicts = (
        "SCSCSCSCSRSVSCSCSCSCSCSCSVSCSCSCSCSCSCSCSCSCSCSCSCSCSVSCSCSVSCSCSCSC{}CSCSVSCSCSCSCSCSCSR"
        "SCSCSCSCSCSC"
    )
    assert _search_corpus_counts(memo=False) == (verdicts.format("R"), 15278, 9842)
    assert _search_corpus_counts(memo=True) == (verdicts.format("U"), 14846, 8214)
