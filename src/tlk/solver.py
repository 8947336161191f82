"""Bounded satisfiability and validity for team formulas.

``sat_bounded`` searches every relational structure with domain size up
to a cap, and within each structure every team over the formula's free
variables, smallest domains first.  A hit is re-verified with the
evaluator before it is reported; exhausting the space yields an
up-to-the-bound unsatisfiability verdict, never an absolute one.

Each structure is one evaluation session (``evaluator._StructureTeams``):
its teams are the masks 0 .. 2^(n^k) - 1 over the n^k value tuples of
the k free variables, and one evaluator answers all of them, so the
memo, the per-row table of first-order subformulas and the team
operations' tables are shared by the teams of the structure.  A ``Team``
is built only for a witness.  ``memo=False`` shares nothing: each team
is evaluated as ``eval_team(..., memo=False)`` would, with the same
steps and counts.

``sat_fo2`` is the specialised two-variable route: expand into normal
form, turn each disjunct into its classical transfer sentence gamma,
and search for a classical model of gamma instead of a team - the
witness team is then read off the per-conjunct witnesses.

``valid_bounded`` reduces to satisfiability of the Boolean negation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import syntax as S
from .evaluator import Budget, BudgetExceeded, EvalStats, _StructureTeams, eval_fo, eval_team
from .normal_form import Disjunct, build_gamma, dnf_expand
from .structures import Assignment, EMPTY_ASSIGNMENT, Structure, Team
from .syntax import Vocabulary


@dataclass
class Satisfiable:
    """A verified witness pair."""

    structure: Structure
    team: Team


@dataclass
class UnsatUpTo:
    """No model with domain size up to the bound."""

    max_domain: int


@dataclass
class ValidUpTo:
    """No counterexample with domain size up to the bound."""

    max_domain: int


@dataclass
class Counterexample:
    """A verified pair on which the formula fails."""

    structure: Structure
    team: Team


@dataclass
class ResourceExhausted:
    """The search hit its work budget before finishing."""

    detail: str


class WitnessCheckFailed(RuntimeError):
    """A witness the search found did not pass its independent re-check."""


def _verified(structure: Structure, team: Team, phi: S.Formula) -> Satisfiable:
    """Re-check a witness with a fresh evaluator call before reporting it."""
    if not eval_team(structure, team, phi):
        raise WitnessCheckFailed("witness failed re-verification")
    return Satisfiable(structure, team)


def _require_searchable(phi: S.Formula, vocab: Vocabulary) -> None:
    S.check_language(phi, "team")
    if vocab.functions:
        raise ValueError("bounded search needs a relational vocabulary")
    for node in S.walk(phi):
        if isinstance(node, S.Pred) and node.name not in vocab.predicates:
            raise ValueError(f"formula uses predicate {node.name!r} missing from the vocabulary")


def _structures(vocab: Vocabulary, n: int, budget: Budget | None):
    """All structures over the vocabulary with domain {0..n-1}, in
    binary-counter order per relation, relation names sorted."""
    names = sorted(vocab.predicates)
    universes = [
        list(itertools.product(range(n), repeat=vocab.predicates[name]))
        for name in names
    ]
    for masks in itertools.product(*[range(2 ** len(u)) for u in universes]):
        if budget is not None:
            budget.charge()
        relations = {
            name: frozenset(u[i] for i in range(len(u)) if mask >> i & 1)
            for name, u, mask in zip(names, universes, masks)
        }
        yield Structure(
            n, relations, arities={name: vocab.predicates[name] for name in names}
        )


def sat_bounded(
    phi: S.Formula,
    vocab: Vocabulary,
    max_domain: int = 3,
    budget: Budget | None = None,
    stats: EvalStats | None = None,
    *,
    memo: bool = True,
) -> Satisfiable | UnsatUpTo | ResourceExhausted:
    """Search for (A, T) |= phi with |A| <= max_domain.

    With ``memo`` the teams of a structure share one memo, so a
    subformula's verdict on a subteam is computed once per structure;
    ``memo=False`` evaluates each pair as ``eval_team(..., memo=False)``
    would.  The budget is charged one step per structure and one per
    team before it is evaluated.  Witnesses are re-verified with an
    independent evaluator call before being returned.
    """
    _require_searchable(phi, vocab)
    try:
        for n in range(1, max_domain + 1):
            for structure in _structures(vocab, n, budget):
                teams = _StructureTeams(structure, phi, budget, stats, memo)
                for mask in range(teams.count):
                    if budget is not None:
                        budget.charge()
                    if teams.holds(mask):
                        return _verified(structure, teams.team(mask), phi)
    except BudgetExceeded as exc:
        return ResourceExhausted(str(exc))
    return UnsatUpTo(max_domain)


def valid_bounded(
    phi: S.Formula,
    vocab: Vocabulary,
    max_domain: int = 3,
    budget: Budget | None = None,
    stats: EvalStats | None = None,
    *,
    memo: bool = True,
) -> ValidUpTo | Counterexample | ResourceExhausted:
    """Search for a counterexample pair (A, T) with (A, T) |=/= phi."""
    outcome = sat_bounded(S.BoolNot(phi), vocab, max_domain, budget, stats, memo=memo)
    if isinstance(outcome, Satisfiable):
        return Counterexample(outcome.structure, outcome.team)
    if isinstance(outcome, UnsatUpTo):
        return ValidUpTo(outcome.max_domain)
    return outcome


# ---------------------------------------------------------------------------
# Two-variable satisfiability via the classical transfer


def sat_fo2(
    phi: S.Formula,
    vocab: Vocabulary,
    model_bound: int = 3,
    budget: Budget | None = None,
    size_budget: int | None = None,
    stats: EvalStats | None = None,
) -> Satisfiable | UnsatUpTo | ResourceExhausted:
    """Bounded satisfiability for two-variable dependency-free formulas.

    Expands phi into disjunctive normal form and searches for classical
    models of each disjunct's transfer sentence gamma; a model yields a
    witness team made of one row per nonemptiness witness.  Only the
    variables x and y may occur in phi.  ``stats`` is accepted so that
    every search shares one signature, and is left untouched: this
    search evaluates no team formula.
    """
    _require_searchable(phi, vocab)
    extra = S.all_vars(phi) - {"x", "y"}
    if extra:
        raise ValueError(f"two-variable search: unexpected variables {sorted(extra)}")
    variables = tuple(sorted(S.free_vars(phi)))
    try:
        dnf = dnf_expand(phi, size_budget)
        gammas = [build_gamma(d) for d in dnf.disjuncts]
        for d in dnf.disjuncts:
            if not d.betas:
                # The empty team satisfies the bare flat disjunct.
                return _verified(_minimal_structure(vocab), Team.empty(variables), phi)
        for n in range(1, model_bound + 1):
            for structure in _structures(vocab, n, budget):
                for disjunct, gamma in zip(dnf.disjuncts, gammas):
                    if budget is not None:
                        budget.charge()
                    if eval_fo(structure, EMPTY_ASSIGNMENT, gamma):
                        team = _witness_team(structure, disjunct, variables)
                        return _verified(structure, team, phi)
    except BudgetExceeded as exc:
        return ResourceExhausted(str(exc))
    return UnsatUpTo(model_bound)


def _minimal_structure(vocab: Vocabulary) -> Structure:
    return Structure(
        1,
        {name: frozenset() for name in vocab.predicates},
        arities=dict(vocab.predicates),
    )


def _witness_team(structure: Structure, disjunct: Disjunct, variables) -> Team:
    """One satisfying row per witness formula of the disjunct."""
    rows = []
    for beta in disjunct.betas:
        found = None
        for a in structure.domain:
            for b in structure.domain:
                s = Assignment.of({"x": a, "y": b})
                if eval_fo(structure, s, S.And(disjunct.alpha, beta)):
                    found = s
                    break
            if found is not None:
                break
        if found is None:
            raise WitnessCheckFailed("gamma held but a witness row is missing")
        rows.append(found.restrict(variables))
    return Team(tuple(variables), frozenset(rows))
