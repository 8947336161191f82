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

Positional teams.  Inside the evaluators a team is an int bitmask.  A
frame holds the rows over the sorted variables xs that one call has
met, numbered in the order they were met, so a mask is as wide as the
rows in use; enumerations sort a mask's rows by their values, which is
``Team.sorted_rows`` order.  The frames of an evaluator and their tables
of restriction and supplementation, kept per row touched, belong to
that evaluator.  A cover is two masks, and memo keys are (id(phi),
frame, mask).  ``eval_team`` restricts its ``Team`` to the free
variables of phi and converts it once, at entry; rows become
``Assignment`` objects again only where a first-order formula or a
dependency atom reads them.  The bounded search evaluates every team of
one structure with one evaluator (``_StructureTeams``), so its teams
share all of these.  ``eval_mtl`` works on masks over worlds, bit w for
world w.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

# ``duplicate``, ``successor_teams`` and ``supplement`` are the Team-level
# counterparts of the mask operations below, which the evaluators no
# longer call.  They stay importable from this module only because
# ``perfbench`` wraps the team operations here by name.


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


MAX_TEAM_DEPTH = S.MAX_TEAM_DEPTH


class _Prepared:
    """What evaluation needs to know about a formula before it sees a
    structure or a team, gathered in one bottom-up pass.

    The constructor runs the language check and raises
    ``syntax.NestingTooDeep`` past ``MAX_TEAM_DEPTH`` levels, so the
    evaluators stay within Python's recursion limit; the tables are one
    ``syntax.fold``.  ``flat``, ``fr`` and ``hook`` map node ids to
    flatness (first-order in team logic, classical modal in modal team
    logic), free variables, and for hook-shaped disjunctions
    !a | (a & psi) with flat a the pair (a, psi).  ``preds`` and
    ``funcs`` (name, arity) and ``props`` are the symbols the formula
    uses.  ``phi`` keeps the formula alive, so the node ids stay valid
    as long as the tables are in use.
    """

    def __init__(self, phi: S.Formula, language: str):
        if S.check_language(phi, language) > MAX_TEAM_DEPTH:
            raise S.NestingTooDeep()
        self.phi = phi
        self.language = language
        self.shape = S._LANGUAGES["fo" if language == "team" else "ml"][:2]
        self.flat: dict[int, bool] = {}
        self.fr: dict[int, frozenset[str]] = {}
        self.hook: dict[int, tuple[S.Formula, S.Formula]] = {}
        self.preds: set[tuple[str, int]] = set()
        self.funcs: set[tuple[str, int]] = set()
        self.props: set[str] = set()
        S.fold(phi, self._entry)

    def _entry(self, node: S.Formula, below) -> tuple[bool, frozenset[str]]:
        """Record the node's flatness, free variables and hook, given its
        children's (flat, free variables) pairs, and return its own."""
        leaves, connectives = self.shape
        if below:
            flat = isinstance(node, connectives) and all(f for f, _ in below)
            fr = below[0][1] if len(below) == 1 else below[0][1] | below[1][1]
            if isinstance(node, (S.Exists, S.Forall)):
                fr = fr - {node.var}
        else:
            flat = isinstance(node, leaves)
            fr = S.atom_vars(node)
            self.funcs |= S.function_uses(node)
            if isinstance(node, S.Pred):
                self.preds.add((node.name, len(node.args)))
            elif isinstance(node, S.Prop):
                self.props.add(node.name)
        self.flat[id(node)] = flat
        self.fr[id(node)] = fr
        if (
            isinstance(node, S.Or)
            and isinstance(node.left, S.Not)
            and isinstance(node.right, S.And)
            and self.flat[id(node.left.body)]
            and node.left.body == node.right.left
        ):
            self.hook[id(node)] = (node.left.body, node.right.right)
        return flat, fr


# The formula prepared last.  The solver prepares one formula object
# once per structure and once per witness re-check, so one entry serves
# a whole search.  It is replaced by a single assignment and read once per
# call: concurrent callers at worst prepare a formula twice.
_last_prepared: _Prepared | None = None


def _prepared(phi: S.Formula, language: str) -> _Prepared:
    global _last_prepared
    cached = _last_prepared
    if cached is None or cached.phi is not phi or cached.language != language:
        cached = _last_prepared = _Prepared(phi, language)
    return cached


# ---------------------------------------------------------------------------
# Positional teams


def _indices(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _or_products(options):
    """Yield the OR of one option per row for every combination, in
    ``itertools.product(*options)`` order: the first row's option varies
    slowest.  No rows yield 0 once.  Each row's options are read from its
    iterable only as far as the enumeration has got; options are ints."""
    last = len(options) - 1
    if last < 0:
        yield 0
        return
    sources = [iter(o) for o in options]
    seen = [[] for _ in options]  # the options read so far, per row
    picks = [-1] * last  # the option each row before the last is on
    high = [0] * len(options)  # high[j]: the OR of the picks of the rows before j
    j = 0
    while j >= 0:
        if j == last:
            h, table = high[j], seen[j]
            for o in table:
                yield h | o
            for o in sources[j]:
                table.append(o)
                yield h | o
            j -= 1
            continue
        p, table = picks[j] + 1, seen[j]
        if p == len(table):
            o = next(sources[j], None)
            if o is None:
                picks[j] = -1
                j -= 1
                continue
            table.append(o)
        picks[j] = p
        high[j + 1] = high[j] | table[p]
        j += 1


def _subset_masks(bits):
    """Yield the OR of every nonempty subset of bits in binary-counter
    order, bits[0] the lowest digit."""
    masks = [0]
    for b in bits:
        for i in range(len(masks)):
            m = masks[i] | b
            masks.append(m)
            yield m


def _covers(indices):
    """Yield every cover (S, U) of the team whose rows are the given
    indices, S | U the team, as masks: each row goes to S only, U only,
    or both, the first row's side varying slowest, which is the order of
    ``itertools.product((0, 1, 2), repeat=|T|)`` over the rows as listed."""
    u = max(indices, default=-1) + 1
    low = (1 << u) - 1
    sides = [(b, b << u, b | b << u) for b in (1 << i for i in indices)]
    for pair in _or_products(sides):
        yield pair & low, pair >> u


class _Frame:
    """The rows over the sorted variables xs that one evaluation has met.

    Rows are numbered in the order they are first met, so a team's mask
    is as wide as the rows in use, not as the n^k value tuples; a row's
    ``Assignment`` is made the first time it is read.
    """

    __slots__ = ("xs", "number", "values", "_rows")

    def __init__(self, xs: tuple[str, ...]):
        self.xs = xs
        self.number: dict[tuple[int, ...], int] = {}  # value tuple -> row
        self.values: list[tuple[int, ...]] = []  # row -> value tuple
        self._rows: list[Assignment | None] = []

    def bit(self, values: tuple[int, ...]) -> int:
        """The bit of the row with these values, numbered if new."""
        i = self.number.get(values)
        if i is None:
            i = self.number[values] = len(self.values)
            self.values.append(values)
            self._rows.append(None)
        return 1 << i

    def row(self, i: int) -> Assignment:
        s = self._rows[i]
        if s is None:
            s = self._rows[i] = Assignment(tuple(zip(self.xs, self.values[i])))
        return s

    def rows(self, mask: int) -> list[Assignment]:
        return [self.row(i) for i in _indices(mask)]

    def ordered(self, mask: int) -> list[int]:
        """The rows of the team mask in ``Team.sorted_rows`` order."""
        return sorted(_indices(mask), key=self.values.__getitem__)

    def pack(self, team: Team) -> int:
        """Number the rows of a team over xs in this frame, which has no
        rows yet, in ``Team.sorted_rows`` order (so the order in which a
        flat check meets them does not depend on the hash seed), and
        return the team's mask."""
        # the rows of a team have distinct values, so no two Assignments
        # are ever compared
        for values, s in sorted((tuple([v for _, v in s.items]), s) for s in team.rows):
            self.number[values] = len(self.values)
            self.values.append(values)
            self._rows.append(s)
        return (1 << len(self.values)) - 1


def _satisfying(structure: Structure, frame: _Frame, mask: int, alpha: S.Formula) -> int:
    """T_a as a mask: the rows of the team mask that satisfy the flat a."""
    kept = 0
    for i in _indices(mask):
        if eval_fo(structure, frame.row(i), alpha):
            kept |= 1 << i
    return kept


# ---------------------------------------------------------------------------
# The evaluator core shared by first-order and modal team semantics


class _Evaluator:
    """Memo, budget and node counting around each subformula evaluation,
    plus the splitjunction clause.  A team is a frame and a mask (the
    modal evaluator has no frame); subclasses give the remaining clauses
    (``_eval_inner``)."""

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

    def eval(self, frame, mask: int, phi: S.Formula) -> bool:
        if self.localize:
            frame, mask = self.restrict(frame, mask, self.fr[id(phi)])
        key = (id(phi), frame, mask)
        if self.memo_enabled and key in self.memo:
            return self.memo[key]
        if self.budget is not None:
            self.budget.charge()
        self.stats.nodes += 1
        out = self._eval_inner(frame, mask, phi)
        if self.memo_enabled:
            self.memo[key] = out
        return out

    def _eval_split(self, frame, mask: int, left: S.Formula, right: S.Formula) -> bool:
        """Try every cover T = S u U, one of three sides per row."""
        rows = _indices(mask) if frame is None else frame.ordered(mask)
        for s, u in _covers(rows):
            self.charge()
            self.stats.splits += 1
            if self.eval(frame, s, left) and self.eval(frame, u, right):
                return True
        return False


# ---------------------------------------------------------------------------
# Team semantics over first-order structures


class _TeamEvaluator(_Evaluator):
    """The first-order team clauses.  The frames of one evaluator and
    their restriction and supplement tables live here, built for the rows
    touched, and go with it: one ``eval_team`` call, or all the teams of
    one structure in the bounded search (``_StructureTeams``)."""

    def __init__(self, structure, prepared, budget, stats, localize, memo):
        super().__init__(prepared, budget, stats, memo)
        self.structure = structure
        self.localize = localize
        self.hook = prepared.hook
        self.frames: dict[tuple[str, ...], _Frame] = {}
        # With memo, (id(flat phi), frame) -> (rows checked, rows false)
        self.checked: dict = {}
        # (frame, variable set) -> (frame of the kept variables or None
        # when all are kept, their columns, {row: bit})
        self.restricted: dict = {}
        # (frame, variable) -> (frame with it, its column, whether it was
        # bound, {row: [bit of s(a/variable) for each a]})
        self.extended: dict = {}

    def frame(self, xs: tuple[str, ...]) -> _Frame:
        frame = self.frames.get(xs)
        if frame is None:
            frame = self.frames[xs] = _Frame(xs)
        return frame

    def restrict(self, frame: _Frame, mask: int, variables) -> tuple[_Frame, int]:
        """T restricted to the variables (a set): its frame and mask; rows
        that collide merge.  When no variable is dropped this is
        (frame, mask)."""
        link = self.restricted.get((frame, variables))
        if link is None:
            columns = [k for k, x in enumerate(frame.xs) if x in variables]
            target = None
            if len(columns) < len(frame.xs):
                target = self.frame(tuple(frame.xs[k] for k in columns))
            link = self.restricted[frame, variables] = (target, columns, {})
        target, columns, table = link
        if target is None:
            return frame, mask
        out = 0
        for i in _indices(mask):
            bit = table.get(i)
            if bit is None:
                values = frame.values[i]
                bit = table[i] = target.bit(tuple(values[k] for k in columns))
            out |= bit
        return target, out

    def supplements(self, frame: _Frame, mask: int, var: str) -> tuple[_Frame, list]:
        """The frame of T[f/var] and, for each row s of the team mask in
        ``Team.sorted_rows`` order, the bits of s(a/var) for a = 0..n-1."""
        link = self.extended.get((frame, var))
        if link is None:
            xs = tuple(sorted({*frame.xs, var}))
            link = (self.frame(xs), xs.index(var), var in frame.xs, {})
            self.extended[frame, var] = link
        target, k, bound, table = link
        options = []
        for i in frame.ordered(mask):
            bits = table.get(i)
            if bits is None:
                values = frame.values[i]
                head, tail = values[:k], values[k + bound:]
                bits = table[i] = [
                    target.bit((*head, a, *tail)) for a in range(self.structure.domain_size)
                ]
            options.append(bits)
        return target, options

    def _holds_on_rows(self, frame: _Frame, mask: int, phi: S.Formula) -> bool:
        """Whether the flat phi holds on every row of the team mask, rows
        checked in bit order up to the first that fails.  With memo a
        row is checked at most once per (phi, frame): a team holding a
        row known false fails at once, and only rows not checked yet are
        checked."""
        A = self.structure
        if not self.memo_enabled:
            return all(eval_fo(A, frame.row(i), phi) for i in _indices(mask))
        key = (id(phi), frame)
        checked, false = self.checked.get(key, (0, 0))
        if mask & false:
            return False
        for i in _indices(mask & ~checked):
            checked |= 1 << i
            if not eval_fo(A, frame.row(i), phi):
                self.checked[key] = (checked, false | 1 << i)
                return False
        self.checked[key] = (checked, false)
        return True

    def _eval_inner(self, frame: _Frame, mask: int, phi: S.Formula) -> bool:
        A = self.structure
        if self.flat[id(phi)]:
            return self._holds_on_rows(frame, mask, phi)
        if isinstance(phi, S.DepAtom):
            rel = team_image(A, frame.rows(mask), phi.args)
            host = single_predicate_structure(A.domain_size, rel, len(phi.args))
            return eval_fo(host, EMPTY_ASSIGNMENT, phi.dep.delta)
        if isinstance(phi, S.BoolNot):
            return not self.eval(frame, mask, phi.body)
        if isinstance(phi, S.And):
            return self.eval(frame, mask, phi.left) and self.eval(frame, mask, phi.right)
        if isinstance(phi, S.Or):
            hook = self.hook.get(id(phi))
            if hook is not None:
                self.stats.hooks += 1
                return self.eval(frame, _satisfying(A, frame, mask, hook[0]), hook[1])
            return self._eval_split(frame, mask, phi.left, phi.right)
        if isinstance(phi, S.Exists):
            target, options = self.supplements(frame, mask, phi.var)
            for supplemented in _or_products([_subset_masks(bits) for bits in options]):
                self.charge()
                if self.eval(target, supplemented, phi.body):
                    return True
            return False
        if isinstance(phi, S.Forall):
            target, options = self.supplements(frame, mask, phi.var)
            duplicated = 0
            for bits in options:
                for bit in bits:
                    duplicated |= bit
            return self.eval(target, duplicated, phi.body)
        raise ValueError(f"not a team-logic formula: {S.format_formula(phi)}")


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
    (subformula, team), and per row for first-order subformulas.  Both
    are on by default and only worth disabling in tests of those very
    properties.

    The formula's language check, free variables, symbols and per-node
    tables are computed once and reused by the next call with the same
    formula object; the checks against the team and the structure, the
    memo and the counters are per call.  Every team value must lie in
    the structure's domain.  The team is restricted to the free
    variables of phi (with ``localize``) and packed into a mask once,
    here.
    """
    prepared = _prepared(phi, "team")
    missing = prepared.fr[id(phi)] - set(team.domain)
    if missing:
        raise ValueError(f"team does not bind free variables {sorted(missing)}")
    check_symbols(prepared.preds, prepared.funcs, structure)
    n = structure.domain_size
    for s in team.rows:
        for _, v in s.items:
            if not 0 <= v < n:
                raise ValueError(f"team row {s} leaves the domain {{0..{n - 1}}}")
    if localize:
        team = team_restrict(team, prepared.fr[id(phi)])
    ev = _TeamEvaluator(structure, prepared, budget, stats or EvalStats(), localize, memo)
    frame = ev.frame(team.domain)
    return ev.eval(frame, frame.pack(team), phi)


class _StructureTeams:
    """Every team over the free variables of phi in one structure, for
    the bounded search: team ``mask`` holds the i-th value tuple of
    ``itertools.product(range(n), repeat=k)`` exactly when bit i of mask
    is set, so the search's team counter is the team.

    ``eval_team``'s checks run once, here: the symbol check, and the
    free-variable check, which holds by construction.  With ``memo`` one
    evaluator, whose root frame numbers every value tuple in product
    order, answers every team: the memo, the per-row flat table, the
    restriction and supplement tables and the rows' ``Assignment``
    objects are shared by all teams of the structure.  Without it each
    team gets a fresh evaluator and is evaluated exactly as by
    ``eval_team(..., memo=False)``.
    """

    def __init__(self, structure: Structure, phi: S.Formula, budget, stats, memo: bool):
        prepared = _prepared(phi, "team")
        check_symbols(prepared.preds, prepared.funcs, structure)
        self.phi = phi
        self.variables = tuple(sorted(prepared.fr[id(phi)]))
        self.values = list(
            itertools.product(range(structure.domain_size), repeat=len(self.variables))
        )
        self.count = 1 << len(self.values)
        self._args = (structure, prepared, budget, stats or EvalStats(), True, memo)
        self._shared = self._evaluator(self.count - 1) if memo else None

    def _evaluator(self, mask: int) -> tuple[_TeamEvaluator, _Frame, int]:
        """A fresh evaluator whose root frame numbers the value tuples of
        the team mask in product order, which is ``Team.sorted_rows``
        order, and the team's mask in that frame."""
        ev = _TeamEvaluator(*self._args)
        frame = ev.frame(self.variables)
        packed = 0
        for i in _indices(mask):
            packed |= frame.bit(self.values[i])
        return ev, frame, packed

    def holds(self, mask: int) -> bool:
        """Decide (A, T) |= phi for the team numbered mask."""
        if self._shared is None:
            # numbered as eval_team numbers it: only the team's rows, so
            # a frame that a quantifier extends back onto the root
            # variables meets its new rows after the team's
            ev, frame, packed = self._evaluator(mask)
            return ev.eval(frame, packed, self.phi)
        ev, frame, _ = self._shared
        return ev.eval(frame, mask, self.phi)

    def team(self, mask: int) -> Team:
        return Team.from_tuples(self.variables, [self.values[i] for i in _indices(mask)])


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


def _successor_table(kripke: KripkeStructure) -> list[int]:
    """For each world, the mask of its successors."""
    successors = [0] * kripke.worlds
    for a, b in kripke.edges:
        successors[a] |= 1 << b
    return successors


def _image(successors: list[int], team: int) -> int:
    """RT as a mask: the worlds some world of the team mask has an edge to."""
    image = 0
    for w in _indices(team):
        image |= successors[w]
    return image


def _successor_teams(successors: list[int], team: int, charge):
    """Yield the successor teams of a world team mask as masks, in
    ``successor_teams``' order: the subsets S of RT into which every world
    of T has an edge, ascending, with one ``charge()`` per subset of RT
    tried.  For the empty team this yields exactly the empty team."""
    if not team:
        yield 0
        return
    needs = {successors[w] for w in _indices(team)}
    image = _image(successors, team)
    candidate = 0
    while True:
        charge()
        if all(candidate & m for m in needs):
            yield candidate
        candidate = (candidate - image) & image  # the next subset of RT
        if not candidate:
            return


class _ModalEvaluator(_Evaluator):
    def __init__(self, kripke, prepared, budget, stats, memo):
        super().__init__(prepared, budget, stats, memo)
        self.kripke = kripke
        self.successors = _successor_table(kripke)

    def _eval_inner(self, frame: None, team: int, phi: S.Formula) -> bool:
        K = self.kripke
        if self.flat[id(phi)]:
            return all(eval_ml(K, w, phi) for w in _indices(team))
        if isinstance(phi, S.BoolNot):
            return not self.eval(None, team, phi.body)
        if isinstance(phi, S.And):
            return self.eval(None, team, phi.left) and self.eval(None, team, phi.right)
        if isinstance(phi, S.Or):
            return self._eval_split(None, team, phi.left, phi.right)
        if isinstance(phi, S.Diamond):
            return any(
                self.eval(None, s, phi.body)
                for s in _successor_teams(self.successors, team, self.charge)
            )
        if isinstance(phi, S.Box):
            return self.eval(None, _image(self.successors, team), phi.body)
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
    return ev.eval(None, sum(1 << w for w in team), phi)
