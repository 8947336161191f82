"""Second-order evaluation and the team-to-SO translations.

``translate_eta`` compiles a team formula phi (with free variables
among x-bar) into an existential-second-order sentence over one free
relation variable R such that

    (A, T) |= phi   iff   A |= eta(R := rows of T as an |x-bar|-ary relation).

``translate_zeta`` is the sparse variant: every relation quantifier the
translation introduces carries an explicit cardinality bound p, and the
equivalence holds whenever p(n) >= |T| * n**qr(phi) (``sufficient_bound``
computes such bounds).

``eval_so`` is an independent second-order model checker used as the
oracle on the other side of those translations.  It normalises its
input to negation normal form and prepares it in one bottom-up pass,
linear in the size of the sentence: every node gets its free element,
relation and function names, built from its children's, and the
predicates and functions the sentence uses are collected; the
structure must interpret those, or ``eval_so`` raises ``ValueError``
before evaluating anything.  Then it walks the formula:
classical connectives recurse, element quantifiers enumerate the
domain, relation quantifiers enumerate all (or all sparse) relations of
the arity, and function quantifiers enumerate total function tables.
Quantifiers whose variable does not occur free in their body are
skipped without enumeration, so vacuous quantifiers cost nothing and do
not move the existential/universal alternation meter.  Memo keys hold
the values of a node's free names, None for a name the working
assignment leaves unbound, such as a function of the structure.

Guarded relation quantifiers.  The same pass finds, for each relation
quantifier ``E2 S`` / ``Ep S``, the guards its body states about S.  It
collects the body's conjuncts through ``&``, through nested E2/Ep
binders of other names, and through a leading chain ``A vs``, which
distributes over ``&``.  A conjunct ``A vs. (X | psi)`` is a guard when
X holds the literal ``!S(us)`` or ``S(us)`` through ``&`` and inner
``A ws`` (us: distinct variables of the chain or of ws), psi mentions
neither S nor a name bound on the way down, and psi reads no chain
variable outside us.  ``!S(us)`` bounds S from above by
G = {t : psi(t)}; ``S(us)`` bounds it from below by L = {t : not psi(t)}.
Under ``A2`` / ``Ap`` the rule is the dual one (``E``/``A`` and
``&``/``|`` swapped).  When the quantifier is evaluated, psi is
evaluated for each value of the chain variables in us (one budget step
each), and only the relations
L u Y for Y a subset of G minus L are tried (none when L is not within
G), capped by the sparse bound.  This is sound for any sentence: under
E2 a skipped relation falsifies the body, under A2 it satisfies it.  It
covers the three shapes ``translate_eta`` emits: a split's cover gives
S, U <= R (and U >= R minus S), a dependency atom's definition gives
L = G, one candidate, and ``same_rest`` bounds the new relation by R's
rows times the domain.  Guards are used only when no evaluation step
can raise (every free name assigned at its sort and arity, no binder
clashing with a name of another sort), so a skipped relation never
hides an error; ``eval_so(..., guards=False)`` enumerates every
relation, as before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import syntax as S
from .evaluator import Budget, EvalStats, check_symbols
from .structures import (
    _DECL_RE,
    Structure,
    Team,
    _error,
    _file_text,
    _header,
    _parse_int,
    _table_declaration,
    team_image,
)
from .syntax import SparseBound


# ---------------------------------------------------------------------------
# Second-order assignments


@dataclass(frozen=True)
class RelValue:
    """A relation value: arity plus the set of tuples."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    @classmethod
    def of(cls, arity: int, tuples) -> "RelValue":
        return cls(arity, frozenset(tuple(t) for t in tuples))

    def __hash__(self) -> int:
        # Candidate relations are hashed millions of times during
        # quantifier enumeration; cache the hash on first use.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash((self.arity, self.tuples))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True)
class FunValue:
    """A total function value: arity plus the graph as sorted pairs."""

    arity: int
    entries: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of(cls, arity: int, table: dict) -> "FunValue":
        return cls(arity, tuple(sorted((tuple(k), v) for k, v in table.items())))

    def apply(self, args: tuple[int, ...]) -> int:
        for k, v in self.entries:
            if k == args:
                return v
        raise KeyError(f"function value not defined on {args}")

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash((self.arity, self.entries))
            object.__setattr__(self, "_hash", h)
            return h


Value = int | RelValue | FunValue


@dataclass(frozen=True)
class SOAssignment:
    """An immutable map from first- and second-order variables to values."""

    entries: tuple[tuple[str, Value], ...] = ()

    @classmethod
    def of(cls, mapping: dict[str, Value] | None = None, **kw: Value) -> "SOAssignment":
        merged = dict(mapping or {})
        merged.update(kw)
        return cls(tuple(sorted(merged.items(), key=lambda e: e[0])))

    def bind(self, name: str, value: Value) -> "SOAssignment":
        d = dict(self.entries)
        d[name] = value
        return SOAssignment(tuple(sorted(d.items(), key=lambda e: e[0])))

    def get(self, name: str) -> Value:
        for n, v in self.entries:
            if n == name:
                return v
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.entries)

    def restrict(self, names) -> "SOAssignment":
        keep = set(names)
        return SOAssignment(tuple((n, v) for n, v in self.entries if n in keep))


EMPTY_SO_ASSIGNMENT = SOAssignment()


def team_relation(structure: Structure, team: Team, variables) -> RelValue:
    """x-bar<T>: the team's rows as a relation in variable order."""
    terms = tuple(S.Var(v) for v in variables)
    return RelValue(len(terms), team_image(structure, team, terms))


def parse_so_assignment(text: str) -> SOAssignment:
    """Parse an assignment file: ``elem x 1``, ``rel X 2 { (0,1) (1,0) }``,
    ``fun f 1 { (0)->1 (1)->0 }``; ``#`` comments."""
    text = _file_text(text)
    entries: dict[str, Value] = {}
    pos = 0
    while m := _DECL_RE.match(text, pos):
        kind, start = m.group(2), m.start(2)
        head, brace, pos = _header(text, start)
        if kind == "elem" and len(head) == 3 and brace < 0:
            name, value = head[1], _parse_int(head[2], "element", text, start)
        elif kind in ("rel", "fun"):
            name, arity, table, pos = _table_declaration(text, start, head, brace)
            if arity is None:
                raise _error(f"{kind} {name!r} needs an arity", text, start)
            value = (RelValue.of if kind == "rel" else FunValue.of)(arity, table)
        else:
            line = text[start:pos].rstrip()
            raise _error(f"unrecognised assignment line {line!r}", text, start)
        if name in entries:
            raise _error(f"{name!r} is assigned twice", text, start)
        entries[name] = value
    return SOAssignment.of(entries)


# ---------------------------------------------------------------------------
# Negation normal form


def to_nnf(phi: S.Formula) -> S.Formula:
    """Desugar ->/<-> and push negations down to atoms.

    The two sides of a <-> are rewritten once per polarity and shared
    between the two halves of its NNF, so nested <-> give a DAG of linear
    size, not a tree that doubles with each level.  Raises
    ``syntax.NestingTooDeep`` (a ``ValueError``) when phi is nested
    deeper than ``syntax.MAX_DEPTH``.
    """
    return _nnf(phi, True, 0, {})


def _nnf(phi: S.Formula, positive: bool, depth: int, sides: dict) -> S.Formula:
    # depth counts the calls above this one, two for each <-> (whose NNF
    # is two levels deep), so both this recursion and the NNF, which
    # eval_so walks recursively, are at most about MAX_DEPTH deep
    if depth >= S.MAX_DEPTH:
        raise S.NestingTooDeep()
    depth += 1
    dual = S.DUALS.get(type(phi))
    if dual is not None:  # under a negation a connective or quantifier turns into its dual
        return S.map_children(
            phi, lambda c: _nnf(c, positive, depth, sides), type(phi) if positive else dual
        )
    if isinstance(phi, (S.Pred, S.Eq, S.RelApp)):
        return phi if positive else S.Not(phi)
    if isinstance(phi, S.Top):
        return S.TOP if positive else S.BOT
    if isinstance(phi, S.Bot):
        return S.BOT if positive else S.TOP
    if isinstance(phi, S.Not):
        return _nnf(phi.body, not positive, depth, sides)
    if isinstance(phi, S.Implies):
        if positive:
            return S.Or(_nnf(phi.left, False, depth, sides), _nnf(phi.right, True, depth, sides))
        return S.And(_nnf(phi.left, True, depth, sides), _nnf(phi.right, False, depth, sides))
    if isinstance(phi, S.Iff):
        depth += 1

        def side(c: S.Formula, polarity: bool) -> S.Formula:
            # the other polarity of this <-> (reached from its parent)
            # asks for the same four; depth is in the key so that a node
            # shared at two depths is still checked at each
            key = (id(c), polarity, depth)
            out = sides.get(key)
            if out is None:
                out = sides[key] = _nnf(c, polarity, depth, sides)
            return out

        a, b = phi.left, phi.right
        if positive:
            return S.And(S.Or(side(a, False), side(b, True)), S.Or(side(b, False), side(a, True)))
        return S.Or(S.And(side(a, True), side(b, False)), S.And(side(b, True), side(a, False)))
    raise ValueError(f"not a second-order formula: {S.format_formula(phi)}")


# ---------------------------------------------------------------------------
# Second-order evaluation


_MISSING = object()
_NONE: frozenset[str] = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a if b <= a else b if a <= b else a | b


def _without(names: frozenset, name: str) -> frozenset:
    return names - {name} if name in names else names


def _clashes(binder, other_a: frozenset, other_b: frozenset, uses: frozenset) -> bool:
    """Whether evaluation under ``binder`` can raise: its name is free in
    its body as a name of another sort (one working assignment holds
    all sorts), or is applied there at another arity."""
    name = binder.name
    return (
        name in other_a
        or name in other_b
        or any(u[0] == name and u[1] != binder.arity for u in uses)
    )


_EXISTS_REL = (S.ExistsRel, S.ExistsRelSparse)
_FORALL_REL = (S.ForallRel, S.ForallRelSparse)
# Per binder polarity (existential?): the connective guards are collected
# through (which is also the one a literal sits under), the connective
# that splits a guard into its parts, the element quantifier of the chain,
# and the relation binders passed through.
_GUARD_SHAPES = {
    True: (S.And, S.Or, S.Forall, _EXISTS_REL),
    False: (S.Or, S.And, S.Exists, _FORALL_REL),
}


def _flatten(node: S.Formula, cls) -> list[S.Formula]:
    """The maximal non-``cls`` subformulas of a ``cls`` tree, left to right."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, cls):
            stack += (item.right, item.left)
        else:
            out.append(item)
    return out


def _literals(part: S.Formula, name: str, spine, chain_q):
    """(negative, args, inner) for each literal name(args) or !name(args)
    that ``part`` holds through ``spine`` connectives and ``chain_q``
    quantifiers; ``inner`` are the variables those quantifiers bind."""
    stack = [(part, _NONE)]
    while stack:
        node, inner = stack.pop()
        if isinstance(node, spine):
            stack += ((node.right, inner), (node.left, inner))
        elif isinstance(node, chain_q):
            stack.append((node.body, inner | {node.var}))
        else:
            negative = isinstance(node, S.Not)
            atom = node.body if negative else node
            if isinstance(atom, S.RelApp) and atom.name == name:
                yield negative, atom.args, inner


def _guard(names, upper, psis, args, inner, chain, excluded):
    """The guard a literal over ``args`` gives, or None when it gives none
    (see ``_SOEvaluator._find_guards``)."""
    if not all(isinstance(a, S.Var) for a in args):
        return None
    vs = [a.name for a in args]
    outer = tuple(v for v in vs if v not in inner)
    if len(set(vs)) != len(vs) or not set(chain).issuperset(outer):
        return None
    for p in psis:
        ns = names[id(p)]
        if not ns.isdisjoint(excluded) or not ns.intersection(chain) <= set(outer):
            return None
    inner_vs = [v for v in vs if v in inner]
    perm = tuple(
        len(outer) + inner_vs.index(v) if v in inner else outer.index(v) for v in vs
    )
    return (upper, psis, outer, perm, len(inner_vs))


def _eval_so_term(structure: Structure, J: dict, t: S.Term) -> int:
    if isinstance(t, S.Var):
        v = J.get(t.name, _MISSING)
        if v is _MISSING:
            raise ValueError(f"unassigned variable {t.name!r}")
        if not isinstance(v, int):
            raise ValueError(f"{t.name!r} is not an element variable here")
        return v
    args = tuple(_eval_so_term(structure, J, a) for a in t.args)
    f = J.get(t.name, _MISSING)
    if f is not _MISSING:
        if not isinstance(f, FunValue):
            raise ValueError(f"{t.name!r} is not a function here")
        if f.arity != len(args):
            raise ValueError(f"function {t.name!r} has arity {f.arity}, used with {len(args)}")
        return f.apply(args)
    return structure.apply(t.name, args)


class _SOEvaluator:
    """Walks an NNF formula with a mutable ``dict`` assignment.

    The public ``SOAssignment`` is converted to a plain dict at entry;
    quantifiers bind by mutate-and-restore backtracking.  Memo keys
    snapshot only the values of the node's free names, so sharing the
    dict across the recursion is safe.
    """

    def __init__(self, structure, budget, stats, memo, guards=False):
        self.structure = structure
        self.budget = budget
        self.stats = stats
        self.memo_enabled = memo
        self.memo: dict = {}
        self.names: dict[int, frozenset[str]] = {}
        self.keynames: dict[int, tuple[str, ...]] = {}
        self.preds: set[tuple[str, int]] = set()
        self.funcs: frozenset[str] = _NONE
        self.fun_uses: list[tuple[str, int]] = []
        self.guards_enabled = guards
        self.guards: dict[int, tuple] = {}  # relation binder id -> its guards
        self.clash = False  # some binder's name is used at another sort or arity
        self.free: tuple = ()  # the root's per-sort free names

    def prepare(self, phi: S.Formula, assigned) -> None:
        """Fill ``names`` and ``keynames`` in one ``syntax.fold``.

        The pass keeps each node's free element, relation and function
        names apart, so a binder removes its name from its own sort
        only; ``names`` holds their union.  Two more sets hold the
        (name, arity) of each free function and relation application.
        ``clash`` records a binder whose name its body uses at another
        sort or arity, and with ``guards`` on, each relation binder's
        guards go to ``guards`` (``_find_guards``).  ``preds``
        gets the predicates (with arity), ``funcs`` the free function
        names that ``assigned`` does not bind and ``fun_uses`` their
        applications: these functions are the structure's, which must
        interpret them at those arities.
        """
        self.free = S.fold(phi, self._entry)
        fun, uses = self.free[2:4]
        self.funcs = fun.difference(assigned) if fun else _NONE
        self.fun_uses = [u for u in uses if u[0] in self.funcs]
        # nodes with equal names share one key tuple
        keys: dict[frozenset[str], tuple[str, ...]] = {}
        for k, ns in self.names.items():
            key = keys.get(ns)
            if key is None:
                key = keys[ns] = tuple(sorted(ns))
            self.keynames[k] = key

    def _entry(self, node: S.Formula, below) -> tuple:
        """The node's per-sort free names (element, relation, function,
        function uses, relation uses), from its children's; ``names``
        gets their union."""
        # Equal sets are shared rather than rebuilt wherever a child's set
        # is the answer, which keeps the tables of a sentence small.
        if not below:  # an atom, top or bot: read its own terms
            elem = S.atom_vars(node) or _NONE
            rel = frozenset((node.name,)) if isinstance(node, S.RelApp) else _NONE
            reluses = frozenset(((node.name, len(node.args)),)) if rel else _NONE
            uses = S.function_uses(node) or _NONE
            fun = frozenset(name for name, _ in uses) if uses else _NONE
            if isinstance(node, S.Pred):
                self.preds.add((node.name, len(node.args)))
        elif len(below) == 1:
            elem, rel, fun, uses, reluses = below[0]
            if isinstance(node, (S.Exists, S.Forall)):
                self.clash = self.clash or node.var in rel or node.var in fun
                elem = _without(elem, node.var)
            elif isinstance(node, (S.ExistsFun, S.ForallFun)):
                self.clash = self.clash or _clashes(node, elem, rel, uses)
                if node.name in fun:
                    fun = fun - {node.name}
                    uses = frozenset(u for u in uses if u[0] != node.name)
            elif isinstance(node, S._REL_QUANT):
                self.clash = self.clash or _clashes(node, elem, fun, reluses)
                if node.name in rel:
                    rel = rel - {node.name}
                    reluses = frozenset(u for u in reluses if u[0] != node.name)
                    if self.guards_enabled:
                        found = self._find_guards(node)
                        if found:
                            self.guards[id(node)] = found
        else:
            elem, rel, fun, uses, reluses = (_union(a, b) for a, b in zip(*below))
        self.names[id(node)] = _union(_union(elem, rel), fun)
        return elem, rel, fun, uses, reluses

    def _find_guards(self, binder) -> tuple:
        """The guards ``binder``'s body states about its relation, found
        by the rule in the module docstring.  Each is (upper, psis,
        chain, perm, inner): whether it bounds the relation from above,
        the disjuncts (conjuncts under A2/Ap) that make up psi, the chain
        variables among the literal's arguments, the place of each tuple
        component in (chain values + inner values), and the number of
        arguments bound inside X.
        """
        name, existential = binder.name, isinstance(binder, _EXISTS_REL)
        spine, parts_of, chain_q, passable = _GUARD_SHAPES[existential]
        names = self.names
        guards = []
        stack = [(binder.body, (), _NONE)]
        while stack:
            node, chain, between = stack.pop()
            if name not in names[id(node)]:
                continue
            if isinstance(node, spine):
                stack += ((node.right, chain, between), (node.left, chain, between))
            elif isinstance(node, chain_q):
                stack.append((node.body, chain + (node.var,), between))
            elif isinstance(node, passable) and not chain:
                if node.name != name:  # a binder of the same name shadows the relation
                    stack.append((node.body, chain, between | {node.name}))
            else:
                parts = _flatten(node, parts_of)
                for i, part in enumerate(parts):
                    psis = parts[:i] + parts[i + 1 :]
                    excluded = between | {name}
                    for negative, args, inner in _literals(part, name, spine, chain_q):
                        upper = negative is existential
                        guard = _guard(names, upper, psis, args, inner, chain, excluded)
                        if guard is not None:
                            guards.append(guard)
        return tuple(guards)

    def cannot_raise(self, J: dict) -> bool:
        """Whether no evaluation step can raise under J: no binder clashes,
        every free element name holds an element, every free relation
        name a relation of the arity it is used at, and every free
        function is the structure's.  Guards skip candidates only then,
        so that they never hide an error ``guards=False`` would meet."""
        elem, rel, fun, _, reluses = self.free
        n = self.structure.domain_size
        return (
            not self.clash
            and not (elem & rel or elem & fun or rel & fun or fun.intersection(J))
            and all(type(J.get(v)) is int and 0 <= J[v] < n for v in elem)
            and all(
                isinstance(J.get(r), RelValue) and J[r].arity == a for r, a in reluses
            )
        )

    def eval(self, J: dict, phi: S.Formula, mode: str | None, switches: int) -> bool:
        if self.memo_enabled:
            key = (id(phi), *map(J.get, self.keynames[id(phi)]))
            hit = self.memo.get(key, _MISSING)
            if hit is not _MISSING:
                return hit
        budget = self.budget
        if budget is not None:
            budget.charge()
        self.stats.nodes += 1
        out = _DISPATCH[type(phi)](self, J, phi, mode, switches)
        if self.memo_enabled:
            self.memo[key] = out
        return out

    def _ev_top(self, J, phi, mode, switches) -> bool:
        return True

    def _ev_bot(self, J, phi, mode, switches) -> bool:
        return False

    def _ev_not(self, J, phi, mode, switches) -> bool:
        return not self._atom(J, phi.body)  # NNF: body is an atom

    def _ev_atom(self, J, phi, mode, switches) -> bool:
        return self._atom(J, phi)

    def _ev_and(self, J, phi, mode, switches) -> bool:
        return self.eval(J, phi.left, mode, switches) and self.eval(
            J, phi.right, mode, switches
        )

    def _ev_or(self, J, phi, mode, switches) -> bool:
        return self.eval(J, phi.left, mode, switches) or self.eval(
            J, phi.right, mode, switches
        )

    def _ev_exists(self, J, phi, mode, switches) -> bool:
        return self._quantifier(J, phi, mode, switches, True)

    def _ev_forall(self, J, phi, mode, switches) -> bool:
        return self._quantifier(J, phi, mode, switches, False)

    def _quantifier(self, J, phi, mode, switches, existential) -> bool:
        var = phi.var if isinstance(phi, (S.Exists, S.Forall)) else phi.name
        if var not in self.names[id(phi.body)]:
            # vacuous quantifier: skip without enumeration or mode switch
            return self.eval(J, phi.body, mode, switches)
        new_mode = "E" if existential else "A"
        if mode is not None and mode != new_mode:
            switches += 1
        if switches > self.stats.alternations:
            self.stats.alternations = switches
        body = phi.body
        budget = self.budget
        candidates = self._candidates(J, phi, new_mode, switches)
        old = J.get(var, _MISSING)
        try:
            for c in candidates:
                if budget is not None:
                    budget.charge()
                J[var] = c
                if self.eval(J, body, new_mode, switches) is existential:
                    return existential
            return not existential
        finally:
            if old is _MISSING:
                J.pop(var, None)
            else:
                J[var] = old

    def _atom(self, J: dict, phi: S.Formula) -> bool:
        A = self.structure
        if isinstance(phi, S.Pred):
            values = tuple(_eval_so_term(A, J, t) for t in phi.args)
            return A.holds(phi.name, values)
        if isinstance(phi, S.Eq):
            return _eval_so_term(A, J, phi.left) == _eval_so_term(A, J, phi.right)
        if isinstance(phi, S.RelApp):
            rel = J.get(phi.name, _MISSING)
            if rel is _MISSING:
                raise ValueError(f"unassigned relation variable {phi.name!r}")
            if not isinstance(rel, RelValue):
                raise ValueError(f"{phi.name!r} is not a relation variable here")
            if rel.arity != len(phi.args):
                raise ValueError(
                    f"relation variable {phi.name!r} has arity {rel.arity}, "
                    f"used with {len(phi.args)}"
                )
            values = tuple(_eval_so_term(A, J, t) for t in phi.args)
            return values in rel.tuples
        raise ValueError(f"not an atom: {S.format_formula(phi)}")

    def _candidates(self, J, phi, mode, switches):
        n = self.structure.domain_size
        if isinstance(phi, (S.Exists, S.Forall)):
            return range(n)
        size = n**phi.arity
        if isinstance(phi, (S.ExistsFun, S.ForallFun)):
            return _pool(n**size, _all_functions, n, phi.arity)
        sparse = isinstance(phi, (S.ExistsRelSparse, S.ForallRelSparse))
        cap = min(phi.bound.value(n), size) if sparse else size
        guards = self.guards.get(id(phi))
        if guards:
            lower, upper = self._bounds(J, phi, guards, mode, switches)
            if lower or upper is not None:
                return _bounded_relations(n, phi.arity, lower, upper, cap)
        if not sparse:
            return _pool(2**size, _all_relations, n, phi.arity)
        count = sum(math.comb(size, c) for c in range(cap + 1))
        return _pool(count, _bounded_relations, n, phi.arity, frozenset(), None, cap)

    def _bounds(self, J, phi, guards, mode, switches):
        """The tuples the relation bound by phi must hold (lower) and may
        hold (upper, None for all) by its guards under J.

        A guard's psi is evaluated once per value of its chain variables,
        with one budget step each, as a path of its own below the binder:
        the chain quantifiers are not evaluated, so they add no
        alternation.
        """
        n = self.structure.domain_size
        existential = isinstance(phi, _EXISTS_REL)
        lower, upper = set(), None
        budget = self.budget
        for is_upper, psis, chain, perm, inner in guards:
            found = set()  # upper: where psi is `existential`; lower: where it is not
            old = [J.get(v, _MISSING) for v in chain]
            try:
                for values in itertools.product(range(n), repeat=len(chain)):
                    if budget is not None:
                        budget.charge()
                    J.update(zip(chain, values))
                    holds = (any if existential else all)(
                        self.eval(J, p, mode, switches) for p in psis
                    )
                    if (holds is existential) is is_upper:
                        for rest in itertools.product(range(n), repeat=inner):
                            src = values + rest
                            found.add(tuple(src[i] for i in perm))
            finally:
                for v, value in zip(chain, old):
                    if value is _MISSING:
                        J.pop(v, None)
                    else:
                        J[v] = value
            if is_upper:
                upper = found if upper is None else upper & found
            else:
                lower |= found
        return lower, upper


_DISPATCH = {
    S.Top: _SOEvaluator._ev_top,
    S.Bot: _SOEvaluator._ev_bot,
    S.Not: _SOEvaluator._ev_not,
    S.And: _SOEvaluator._ev_and,
    S.Or: _SOEvaluator._ev_or,
    **dict.fromkeys((S.Pred, S.Eq, S.RelApp), _SOEvaluator._ev_atom),
    **dict.fromkeys((S.Exists, S.ExistsFun, *_EXISTS_REL), _SOEvaluator._ev_exists),
    **dict.fromkeys((S.Forall, S.ForallFun, *_FORALL_REL), _SOEvaluator._ev_forall),
}


def _tuple_universe(n: int, arity: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=arity))


def _all_relations(n: int, arity: int):
    """Every relation of the arity, in binary-counter order over the
    lexicographically sorted tuple universe."""
    universe = _tuple_universe(n, arity)
    for mask in range(2 ** len(universe)):
        yield RelValue(
            arity, frozenset(t for i, t in enumerate(universe) if mask >> i & 1)
        )


def _bounded_relations(n: int, arity: int, lower: set, upper: set | None, cap: int):
    """The relations L u Y for Y a subset of upper minus L (the whole
    tuple universe when upper is None) of at most cap tuples, smallest
    first; none when L is not within upper."""
    if upper is None:
        free = [t for t in _tuple_universe(n, arity) if t not in lower]
    elif lower <= upper:
        free = sorted(upper - lower)
    else:
        return
    for card in range(cap - len(lower) + 1):
        for combo in itertools.combinations(free, card):
            yield RelValue(arity, frozenset(lower.union(combo)))


def _all_functions(n: int, arity: int):
    universe = _tuple_universe(n, arity)
    for values in itertools.product(range(n), repeat=len(universe)):
        yield FunValue.of(arity, dict(zip(universe, values)))


# Nested quantifiers re-enumerate the same candidate space once per outer
# candidate; materialise small spaces once so the RelValue/FunValue objects
# (and their cached hashes) are shared across the whole evaluation.
_POOL_LIMIT = 65536
_pools: dict[tuple, tuple] = {}


def _pool(count: int, make, *args):
    """The candidates make(*args) yields, count of them: one shared tuple
    when count is at most _POOL_LIMIT, else a fresh generator."""
    if count > _POOL_LIMIT:
        return make(*args)
    key = (make, *args)
    pool = _pools.get(key)
    if pool is None:
        pool = _pools[key] = tuple(make(*args))
    return pool


def eval_so(
    structure: Structure,
    assignment: SOAssignment,
    phi: S.Formula,
    budget: Budget | None = None,
    *,
    memo: bool = True,
    guards: bool = True,
    stats: EvalStats | None = None,
) -> bool:
    """Decide A |= phi[assignment] for a second-order formula.

    The formula is normalised to NNF first, so ->/<-> and nested
    classical negations are fine.  One bottom-up pass over the NNF then
    records each node's free names and the symbols phi uses, in time
    linear in its size.  A predicate must be a relation of the structure
    at the arity used, and a function name free in phi that the
    assignment does not bind must be a function of the structure at
    the arity used; otherwise ``ValueError`` is raised once, before
    evaluation.  Memo keys (``memo=True``) read such a name as None,
    which no value that a quantifier binds to it equals.

    With ``guards=True`` a relation quantifier tries only the relations
    its body's guards allow (see the module docstring); verdicts and
    raised errors are those of ``guards=False``, which tries every
    relation of the arity.  ``stats.alternations`` reports the largest
    number of existential/universal switches met along one path that is
    actually evaluated; shared verdicts (``memo=True``) and skipped
    relations (``guards=True``) can hide some paths, so pass
    ``memo=False, guards=False`` when the meter itself matters.  A
    formula nested deeper than ``syntax.MAX_DEPTH`` raises
    ``syntax.NestingTooDeep``, a ``ValueError``.
    """
    S.check_language(phi, "so")
    nnf = to_nnf(phi)
    J = dict(assignment.entries)
    ev = _SOEvaluator(structure, budget, stats or EvalStats(), memo, guards)
    ev.prepare(nnf, J)
    check_symbols(ev.preds, ev.fun_uses, structure)
    if ev.guards and not ev.cannot_raise(J):
        ev.guards.clear()
    return ev.eval(J, nnf, None, 0)


# ---------------------------------------------------------------------------
# The eta translation


class _FreshRels:
    def __init__(self, avoid):
        self.avoid = set(avoid)
        self.counter = 0

    def next(self) -> str:
        while True:
            name = f"S{self.counter}"
            self.counter += 1
            if name not in self.avoid:
                self.avoid.add(name)
                return name


def _fresh_vars(count: int, avoid) -> tuple[str, ...]:
    out: list[str] = []
    taken = set(avoid)
    i = 0
    while len(out) < count:
        name = f"z{i}"
        i += 1
        if name not in taken:
            taken.add(name)
            out.append(name)
    return tuple(out)


def _rel_app(rel: str, names) -> S.Formula:
    return S.RelApp(rel, tuple(S.Var(v) for v in names))


def _extend(xs: tuple[str, ...], y: str) -> tuple[str, ...]:
    """x-bar;y — append y unless it is already a component."""
    return xs if y in xs else xs + (y,)


def _exists_rel(name: str, arity: int, body: S.Formula, bound: SparseBound | None) -> S.Formula:
    if bound is None:
        return S.ExistsRel(name, arity, body)
    return S.ExistsRelSparse(name, arity, bound, body)


def _eta(phi: S.Formula, xs: tuple[str, ...], rel: str, fresh: _FreshRels, bound) -> S.Formula:
    """eta of phi; each relation quantifier it introduces carries
    ``bound`` (plain E2 when None)."""
    if S.is_fo(phi):
        return S.forall_all(xs, S.Implies(_rel_app(rel, xs), phi))
    if isinstance(phi, S.DepAtom):
        k = len(phi.args)
        zs = _fresh_vars(k, xs)
        sname = fresh.next()
        eqs = S.and_all([S.Eq(t, S.Var(z)) for t, z in zip(phi.args, zs)])
        membership = S.exists_all(xs, S.And(_rel_app(rel, xs), eqs))
        fix_s = S.forall_all(zs, S.Iff(_rel_app(sname, zs), membership))
        delta_s = S.subst_pred_by_relvar(phi.dep.delta, "P", sname)
        return _exists_rel(sname, k, S.And(fix_s, delta_s), bound)
    if isinstance(phi, (S.BoolNot, S.And)):
        # ~ becomes classical negation, & stays conjunction
        cls = S.Not if isinstance(phi, S.BoolNot) else S.And
        return S.map_children(phi, lambda c: _eta(c, xs, rel, fresh, bound), cls)
    if isinstance(phi, S.Or):
        sname = fresh.next()
        uname = fresh.next()
        cover = S.forall_all(
            xs,
            S.Iff(_rel_app(rel, xs), S.Or(_rel_app(sname, xs), _rel_app(uname, xs))),
        )
        parts = S.And(
            S.And(cover, _eta(phi.left, xs, sname, fresh, bound)),
            _eta(phi.right, xs, uname, fresh, bound),
        )
        k = len(xs)
        return _exists_rel(sname, k, _exists_rel(uname, k, parts, bound), bound)
    if isinstance(phi, (S.Exists, S.Forall)):
        y = phi.var
        xsy = _extend(xs, y)
        sname = fresh.next()
        same_rest = S.forall_all(
            xs,
            S.Iff(
                S.Exists(y, _rel_app(rel, xs)),
                S.Exists(y, _rel_app(sname, xsy)),
            ),
        )
        body = S.And(same_rest, _eta(phi.body, xsy, sname, fresh, bound))
        if isinstance(phi, S.Forall):
            everywhere = S.forall_all(
                xs, S.Implies(_rel_app(rel, xs), S.Forall(y, _rel_app(sname, xsy)))
            )
            body = S.And(body, everywhere)
        return _exists_rel(sname, len(xsy), body, bound)
    raise ValueError(f"not a team-logic formula: {S.format_formula(phi)}")


def _prepare_translation(phi: S.Formula, xs, rel: str):
    if S.check_language(phi, "team") > S.MAX_DEPTH:
        raise S.NestingTooDeep()
    free = S.free_vars(phi)
    xs = tuple(sorted(free)) if xs is None else tuple(xs)
    if len(set(xs)) != len(xs):
        raise ValueError(f"duplicate variables in {xs}")
    missing = free - set(xs)
    if missing:
        raise ValueError(f"free variables {sorted(missing)} not among {list(xs)}")
    preds = S.pred_names(phi)
    if rel in preds:
        raise ValueError(f"relation name {rel!r} clashes with a predicate of the formula")
    return xs, _FreshRels(preds | {rel})


def translate_eta(phi: S.Formula, xs=None, rel: str = "R") -> S.Formula:
    """Compile a team formula to second-order logic over the team relation.

    (A, T) |= phi iff A |= result under {rel: the rows of T projected to
    xs, in order}; xs must list (at least) the free variables of phi,
    and defaults to them in sorted order.
    """
    xs, fresh = _prepare_translation(phi, xs, rel)
    return _eta(phi, xs, rel, fresh, None)


def sufficient_bound(phi: S.Formula, xs=None, team_size: int | None = None) -> SparseBound:
    """A cardinality bound that keeps the sparse translation faithful.

    With the team size known the bound |T| * n**qr(phi) suffices: each
    quantifier step grows the running team by at most a factor of the
    domain size.  Without it, n**|V| over all variables in play bounds
    every team that can arise.
    """
    if team_size is not None:
        return SparseBound.scaled_power(max(team_size, 1), S.quantifier_rank(phi))
    variables = S.all_vars(phi) | (set() if xs is None else set(xs))
    return SparseBound.scaled_power(1, len(variables))


def translate_zeta(
    phi: S.Formula,
    xs=None,
    rel: str = "R",
    bound: SparseBound | None = None,
    team_size: int | None = None,
) -> S.Formula:
    """The sparse variant of ``translate_eta``.

    Every relation quantifier in the output carries ``bound`` (computed
    by ``sufficient_bound`` when not given).  The equivalence with team
    satisfaction holds whenever bound(n) >= |T| * n**qr(phi).
    """
    xs, fresh = _prepare_translation(phi, xs, rel)
    if bound is None:
        bound = sufficient_bound(phi, xs, team_size)
    return _eta(phi, xs, rel, fresh, bound)
