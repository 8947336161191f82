"""Direct model checking for first-order and modal team logic.

``eval_team`` decides (A, T) |= phi by the semantic clauses themselves:
first-order subformulas are checked row by row (flatness), dependency
atoms by evaluating their defining sentence in the single-predicate
structure built from the team's image, splitjunctions by enumerating
ternary covers T = S u U, existential quantifiers by enumerating
supplementing functions f : T -> nonempty subsets of the domain, and
universal quantifiers by a single duplication T[A/x].

``eval_mtl`` does the same over Kripke models: classical modal
subformulas are checked pointwise, diamonds enumerate successor teams,
boxes step to the image team RT.

Both evaluators take an optional :class:`Budget` (work cap, raising
:class:`BudgetExceeded`) and an :class:`EvalStats` sink.  Hook-shaped
disjunctions !a | (a & psi) with first-order a short-circuit through
the team restriction T_a instead of enumerating covers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import syntax as S
from .structures import (
    Assignment,
    EMPTY_ASSIGNMENT,
    KripkeStructure,
    Structure,
    Team,
    duplicate,
    eval_term,
    single_predicate_structure,
    successor_teams,
    supplement,
    team_image,
    team_restrict,
)


class BudgetExceeded(RuntimeError):
    """The evaluation hit its work cap before reaching a verdict."""


@dataclass
class Budget:
    """A mutable work counter shared across one evaluation.

    Every node visit and every enumeration candidate costs one step.
    ``None`` means unlimited.
    """

    max_steps: int | None = None
    used: int = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.max_steps is not None and self.used > self.max_steps:
            raise BudgetExceeded(f"evaluation budget of {self.max_steps} steps exhausted")


@dataclass
class EvalStats:
    """Counters reported by the evaluators.

    nodes: subformula evaluations (memo hits excluded).
    splits: cover candidates tried for splitjunctions.
    hooks: hook-shaped disjunctions taken through the fast path.
    alternations: maximal E/A quantifier-block alternations seen on one
        path (filled in by the second-order evaluator).
    """

    nodes: int = 0
    splits: int = 0
    hooks: int = 0
    alternations: int = 0


# ---------------------------------------------------------------------------
# Classical first-order evaluation


def eval_fo(structure: Structure, s: Assignment, phi: S.Formula) -> bool:
    """Tarski semantics for a first-order formula under one assignment."""
    if isinstance(phi, S.Pred):
        values = tuple(eval_term(structure, s, t) for t in phi.args)
        return structure.holds(phi.name, values)
    if isinstance(phi, S.Eq):
        return eval_term(structure, s, phi.left) == eval_term(structure, s, phi.right)
    if isinstance(phi, S.Top):
        return True
    if isinstance(phi, S.Bot):
        return False
    if isinstance(phi, S.Not):
        return not eval_fo(structure, s, phi.body)
    if isinstance(phi, S.And):
        return eval_fo(structure, s, phi.left) and eval_fo(structure, s, phi.right)
    if isinstance(phi, S.Or):
        return eval_fo(structure, s, phi.left) or eval_fo(structure, s, phi.right)
    if isinstance(phi, S.Exists):
        return any(
            eval_fo(structure, s.set(phi.var, a), phi.body) for a in structure.domain
        )
    if isinstance(phi, S.Forall):
        return all(
            eval_fo(structure, s.set(phi.var, a), phi.body) for a in structure.domain
        )
    raise ValueError(f"not a first-order formula: {S.format_formula(phi)}")


def team_satisfying(structure: Structure, team: Team, alpha: S.Formula) -> Team:
    """T_a: the rows of T that classically satisfy the flat formula a."""
    rows = frozenset(s for s in team.rows if eval_fo(structure, s, alpha))
    return Team(team.domain, rows)


def _nonempty_subsets(domain_size: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty subsets of the domain in binary-counter order."""
    return tuple(
        tuple(a for a in range(domain_size) if mask >> a & 1)
        for mask in range(1, 2**domain_size)
    )


# ---------------------------------------------------------------------------
# Formula preparation


def check_symbols(preds, funcs, structure: Structure) -> None:
    """Raise ValueError unless the structure interprets every predicate
    and every function (name, arity) in ``preds`` and ``funcs`` at its
    arity."""
    for kind, table, uses in (
        ("relation", structure.relations, preds),
        ("function", structure.functions, funcs),
    ):
        for name, arity in uses:
            if name not in table:
                raise ValueError(f"structure has no {kind} {name!r}")
            if structure.arities[name] != arity:
                raise ValueError(
                    f"{kind} {name!r} has arity {structure.arities[name]}, used with {arity}"
                )


class _Prepared:
    """What evaluation needs to know about a formula before it sees a
    structure or a team, gathered in one bottom-up pass.

    The constructor runs the language check.  ``flat``, ``fr`` and
    ``hook`` map node ids to flatness (first-order in team logic,
    classical modal in modal team logic), free variables, and for
    hook-shaped disjunctions !a | (a & psi) with flat a the pair
    (a, psi).  ``preds`` and ``funcs`` (name, arity) and ``props`` are
    the symbols the formula uses.  ``phi`` keeps the formula alive, so the
    node ids stay valid as long as the tables are in use.
    """

    def __init__(self, phi: S.Formula, language: str):
        S.check_language(phi, language)
        self.phi = phi
        self.language = language
        self.shape = S._FO_SHAPE if language == "team" else S._ML_SHAPE
        self.flat: dict[int, bool] = {}
        self.fr: dict[int, frozenset[str]] = {}
        self.hook: dict[int, tuple[S.Formula, S.Formula]] = {}
        self.preds: set[tuple[str, int]] = set()
        self.funcs: set[tuple[str, int]] = set()
        self.props: set[str] = set()
        self._visit(phi)

    def _visit(self, node: S.Formula) -> None:
        kids = S.children(node)
        for c in kids:
            if id(c) not in self.flat:
                self._visit(c)
        flat, fr = self.flat, self.fr
        leaves, connectives = self.shape
        flat[id(node)] = isinstance(node, leaves) or (
            isinstance(node, connectives) and all(flat[id(c)] for c in kids)
        )
        if isinstance(node, (S.Exists, S.Forall)):
            fr[id(node)] = fr[id(node.body)] - {node.var}
        elif kids:
            fr[id(node)] = frozenset().union(*(fr[id(c)] for c in kids))
        else:
            fr[id(node)] = S.free_vars(node)
            self.funcs |= S.function_uses(node)
            self.props |= S.prop_names(node)
            if isinstance(node, S.Pred):
                self.preds.add((node.name, len(node.args)))
        if (
            isinstance(node, S.Or)
            and isinstance(node.left, S.Not)
            and isinstance(node.right, S.And)
            and flat[id(node.left.body)]
            and node.left.body == node.right.left
        ):
            self.hook[id(node)] = (node.left.body, node.right.right)


# The formula prepared last.  The solver calls eval_team once per
# (structure, team) pair with one formula object, so one entry serves a
# whole search.  It is replaced by a single assignment and read once per
# call: concurrent callers at worst prepare a formula twice.
_last_prepared: _Prepared | None = None


def _prepared(phi: S.Formula, language: str) -> _Prepared:
    global _last_prepared
    cached = _last_prepared
    if cached is None or cached.phi is not phi or cached.language != language:
        cached = _last_prepared = _Prepared(phi, language)
    return cached


# ---------------------------------------------------------------------------
# The evaluator core shared by first-order and modal team semantics


class _Evaluator:
    """Memo, budget and node counting around each subformula evaluation,
    plus the splitjunction clause.  Subclasses give the remaining
    clauses (``_eval_inner``), a team's rows in a fixed order
    (``_rows``) and the team made of some of them (``_team``)."""

    localize = False

    def __init__(self, prepared: _Prepared, budget, stats, memo):
        self.budget = budget
        self.stats = stats
        self.memo_enabled = memo
        self.memo: dict = {}
        self.flat = prepared.flat
        self.fr = prepared.fr

    def charge(self) -> None:
        if self.budget is not None:
            self.budget.charge()

    def eval(self, team, phi: S.Formula) -> bool:
        if self.localize:
            team = team_restrict(team, self.fr[id(phi)])
        key = (id(phi), team)
        if self.memo_enabled and key in self.memo:
            return self.memo[key]
        if self.budget is not None:
            self.budget.charge()
        self.stats.nodes += 1
        out = self._eval_inner(team, phi)
        if self.memo_enabled:
            self.memo[key] = out
        return out

    def _eval_split(self, team, left: S.Formula, right: S.Formula) -> bool:
        """Try every cover T = S u U, one of three sides per row."""
        rows = self._rows(team)
        for shape in itertools.product((0, 1, 2), repeat=len(rows)):
            self.charge()
            self.stats.splits += 1
            if self.eval(
                self._team(team, [r for r, side in zip(rows, shape) if side != 1]), left
            ) and self.eval(
                self._team(team, [r for r, side in zip(rows, shape) if side != 0]), right
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# Team semantics over first-order structures


class _TeamEvaluator(_Evaluator):
    _rows = staticmethod(Team.sorted_rows)

    def __init__(self, structure, prepared, budget, stats, localize, memo):
        super().__init__(prepared, budget, stats, memo)
        self.structure = structure
        self.localize = localize
        self.hook = prepared.hook
        self.subsets = _nonempty_subsets(structure.domain_size)

    @staticmethod
    def _team(team: Team, rows) -> Team:
        return Team(team.domain, frozenset(rows))

    def _eval_inner(self, team: Team, phi: S.Formula) -> bool:
        A = self.structure
        if self.flat[id(phi)]:
            return all(eval_fo(A, s, phi) for s in team.sorted_rows())
        if isinstance(phi, S.DepAtom):
            rel = team_image(A, team, phi.args)
            host = single_predicate_structure(A.domain_size, rel, len(phi.args))
            return eval_fo(host, EMPTY_ASSIGNMENT, phi.dep.delta)
        if isinstance(phi, S.BoolNot):
            return not self.eval(team, phi.body)
        if isinstance(phi, S.And):
            return self.eval(team, phi.left) and self.eval(team, phi.right)
        if isinstance(phi, S.Or):
            hook = self.hook.get(id(phi))
            if hook is not None:
                self.stats.hooks += 1
                return self.eval(team_satisfying(A, team, hook[0]), hook[1])
            return self._eval_split(team, phi.left, phi.right)
        if isinstance(phi, S.Exists):
            return self._eval_exists(team, phi)
        if isinstance(phi, S.Forall):
            return self.eval(duplicate(team, phi.var, A.domain_size), phi.body)
        raise ValueError(f"not a team-logic formula: {S.format_formula(phi)}")

    def _eval_exists(self, team: Team, phi: S.Exists) -> bool:
        rows = team.sorted_rows()
        for choice in itertools.product(self.subsets, repeat=len(rows)):
            self.charge()
            supplemented = supplement(team, phi.var, dict(zip(rows, choice)))
            if self.eval(supplemented, phi.body):
                return True
        return False


def eval_team(
    structure: Structure,
    team: Team,
    phi: S.Formula,
    budget: Budget | None = None,
    *,
    localize: bool = True,
    memo: bool = True,
    stats: EvalStats | None = None,
) -> bool:
    """Decide (A, T) |= phi under team semantics.

    The team must bind every free variable of phi, and the structure
    must interpret every predicate and function symbol phi mentions.
    ``localize`` restricts the team to the free variables of each
    subformula (sound by locality); ``memo`` caches verdicts per
    (subformula, team).  Both are on by default and only worth
    disabling in tests of those very properties.

    The formula's language check, free variables, symbols and per-node
    tables are computed once and reused by the next call with the same
    formula object; the checks against the team and the structure, the
    memo and the counters are per call.
    """
    prepared = _prepared(phi, "team")
    missing = prepared.fr[id(phi)] - set(team.domain)
    if missing:
        raise ValueError(f"team does not bind free variables {sorted(missing)}")
    check_symbols(prepared.preds, prepared.funcs, structure)
    ev = _TeamEvaluator(structure, prepared, budget, stats or EvalStats(), localize, memo)
    return ev.eval(team, phi)


def eval_hook(
    structure: Structure,
    team: Team,
    alpha: S.Formula,
    phi: S.Formula,
    budget: Budget | None = None,
    **kw,
) -> bool:
    """Decide (A, T) |= a -> phi by restriction: (A, T_a) |= phi.

    The hook a -> phi abbreviates !a | (a & phi) for flat a; its
    semantics is exactly satisfaction of phi on the satisfying rows.
    """
    if not S.is_fo(alpha):
        raise ValueError("the hook antecedent must be first-order")
    return eval_team(structure, team_satisfying(structure, team, alpha), phi, budget, **kw)


# ---------------------------------------------------------------------------
# Team semantics over Kripke structures


def eval_ml(kripke: KripkeStructure, world: int, phi: S.Formula) -> bool:
    """Classical (single-world) modal satisfaction."""
    if isinstance(phi, S.Prop):
        try:
            return world in kripke.valuation[phi.name]
        except KeyError:
            raise ValueError(f"Kripke structure does not value proposition {phi.name!r}") from None
    if isinstance(phi, S.Top):
        return True
    if isinstance(phi, S.Bot):
        return False
    if isinstance(phi, S.Not):
        return not eval_ml(kripke, world, phi.body)
    if isinstance(phi, S.And):
        return eval_ml(kripke, world, phi.left) and eval_ml(kripke, world, phi.right)
    if isinstance(phi, S.Or):
        return eval_ml(kripke, world, phi.left) or eval_ml(kripke, world, phi.right)
    if isinstance(phi, S.Diamond):
        return any(eval_ml(kripke, v, phi.body) for v in kripke.successors(world))
    if isinstance(phi, S.Box):
        return all(eval_ml(kripke, v, phi.body) for v in kripke.successors(world))
    raise ValueError(f"not a classical modal formula: {S.format_formula(phi)}")


class _ModalEvaluator(_Evaluator):
    _rows = staticmethod(sorted)

    def __init__(self, kripke, prepared, budget, stats, memo):
        super().__init__(prepared, budget, stats, memo)
        self.kripke = kripke

    @staticmethod
    def _team(team: frozenset[int], worlds) -> frozenset[int]:
        return frozenset(worlds)

    def _eval_inner(self, team: frozenset[int], phi: S.Formula) -> bool:
        K = self.kripke
        if self.flat[id(phi)]:
            return all(eval_ml(K, w, phi) for w in sorted(team))
        if isinstance(phi, S.BoolNot):
            return not self.eval(team, phi.body)
        if isinstance(phi, S.And):
            return self.eval(team, phi.left) and self.eval(team, phi.right)
        if isinstance(phi, S.Or):
            return self._eval_split(team, phi.left, phi.right)
        if isinstance(phi, S.Diamond):
            return any(
                self.eval(s, phi.body) for s in successor_teams(K, team, self.budget)
            )
        if isinstance(phi, S.Box):
            return self.eval(K.image(team), phi.body)
        raise ValueError(f"not a modal team formula: {S.format_formula(phi)}")


def eval_mtl(
    kripke: KripkeStructure,
    team: frozenset[int] | set[int],
    phi: S.Formula,
    budget: Budget | None = None,
    *,
    memo: bool = True,
    stats: EvalStats | None = None,
) -> bool:
    """Decide (K, T) |= phi for a modal team formula over a world team.

    The Kripke structure must value every proposition phi mentions.
    """
    prepared = _prepared(phi, "mtl")
    team = frozenset(team)
    if any(w not in range(kripke.worlds) for w in team):
        raise ValueError("team contains worlds outside the structure")
    missing = prepared.props - set(kripke.valuation)
    if missing:
        raise ValueError(f"Kripke structure does not value propositions {sorted(missing)}")
    ev = _ModalEvaluator(kripke, prepared, budget, stats or EvalStats(), memo)
    return ev.eval(team, phi)
