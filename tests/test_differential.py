"""Differential property: every translation route gives one verdict.

A single Hypothesis property draws a team instance and a Kripke
instance through ``st.randoms()`` and the generators in ``helpers``, so
a failure shrinks the random draws themselves (smaller formulas,
domains and teams), not a seed.  The routes compared are

* team instances: ``eval_team``; ``eval_so`` on ``translate_eta``;
  ``eval_so`` on ``translate_zeta`` with the bound for |T|; and, when the
  formula has no dependency atom, ``eval_team`` on
  ``reconstruct(dnf_expand(phi))``;
* Kripke instances: ``eval_mtl`` against ``eval_team`` on the standard
  translation over the interpreted structure, up to modal depth 4.

The two second-order routes are checked on the drawn team.  The normal
form and the standard translation are cheap to evaluate, so they are
checked on every team over a structure of at most two elements and on
every world team of the Kripke structure.  Half the team formulas are
rewrite-law instances, whose guarded splits the plain generator seldom
builds.  The acceptance criteria run each route at volume; this
property puts them side by side and reports the smallest disagreement
it finds.
"""

from __future__ import annotations

import itertools

from helpers import (
    SmallDraws,
    all_teams,
    random_kripke,
    random_mtl_formula,
    sample_oracle_instance,
)
from hypothesis import HealthCheck, assume, given, note, settings
from hypothesis import strategies as st

from tlk import Budget, BudgetExceeded, Team, eval_mtl, eval_team
from tlk import syntax as S
from tlk.mtl_bridge import interpret_kripke, lift_team, standard_translation
from tlk.normal_form import dnf_expand, reconstruct
from tlk.so_bridge import SOAssignment, eval_so, team_relation, translate_eta, translate_zeta

TEAM_BUDGET = 400_000
SO_BUDGET = 1_500_000
DNF_SIZE_BUDGET = 20_000
XY = ("x", "y")


def _rows(team: Team) -> list[list[int]]:
    return [[s.get(v) for v in XY] for s in team.sorted_rows()]


def _check_team_routes(rng) -> None:
    # The SO cost cap is far below criterion 1's: the second-order
    # routes are most of an example's time, and cheap examples buy more
    # of them within the suite's time.
    inst = sample_oracle_instance(rng, max_size=7, so_threshold=10_000.0, law_rate=0.5)
    A, T, phi = inst.structure, inst.team, inst.formula
    note(f"team formula {S.format_formula(phi)}")
    note(f"structure n={A.domain_size} P={sorted(A.relations['P'])} R={sorted(A.relations['R'])}")
    note(f"team {_rows(T)}")
    J = SOAssignment.of({"R0": team_relation(A, T, XY)})
    zeta = translate_zeta(phi, XY, rel="R0", team_size=len(T))
    verdicts = {
        "eval_team": eval_team(A, T, phi, Budget(TEAM_BUDGET)),
        "eta": eval_so(A, J, translate_eta(phi, XY, rel="R0"), Budget(SO_BUDGET)),
        "zeta": eval_so(A, J, zeta, Budget(SO_BUDGET)),
    }
    assert len(set(verdicts.values())) == 1, verdicts
    if any(isinstance(node, S.DepAtom) for node in S.walk(phi)):
        return
    back = reconstruct(dnf_expand(phi, size_budget=DNF_SIZE_BUDGET))
    for U in all_teams(A.domain_size, XY) if A.domain_size <= 2 else [T]:
        want = eval_team(A, U, phi, Budget(TEAM_BUDGET))
        got = eval_team(A, U, back, Budget(TEAM_BUDGET))
        assert got is want, {"eval_team": want, "dnf": got, "team": _rows(U)}


def _check_modal_routes(rng) -> None:
    K = random_kripke(rng, rng.randint(1, 3))
    phi = random_mtl_formula(rng, rng.randint(1, 9), 4)
    note(f"modal formula {S.format_formula(phi)}")
    note(f"kripke edges={sorted(K.edges)} val={ {p: sorted(w) for p, w in K.valuation.items()} }")
    A, st_phi = interpret_kripke(K), standard_translation(phi)
    for size in range(K.worlds + 1):
        for team in map(frozenset, itertools.combinations(range(K.worlds), size)):
            want = eval_mtl(K, team, phi, Budget(TEAM_BUDGET))
            got = eval_team(A, lift_team(team), st_phi, Budget(TEAM_BUDGET))
            assert got is want, {"eval_mtl": want, "standard_translation": got, "team": sorted(team)}


@settings(
    max_examples=700,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=False))
def test_every_route_gives_one_verdict(source):
    rng = SmallDraws(source)
    try:
        _check_team_routes(rng)
        _check_modal_routes(rng)
    except BudgetExceeded:
        assume(False)
