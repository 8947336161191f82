"""Reference verdicts, computed outside timing.

``TeamChecker`` is a small brute-force team-semantics evaluator that
shares no code with ``tlk.evaluator``: it decides dependency atoms from
their definitions rather than their defining sentences, tries every
cover for a split and every supplementing function for ``E``, and uses
only locality (restricting a team to a subformula's free variables).
``ptl_satisfiable`` decides propositional team satisfiability over
teams of valuations.  ``check`` picks, per request kind, a route
that never goes through the call being timed.
"""

from __future__ import annotations

import itertools

from tlk import Budget, BudgetExceeded, KripkeStructure, Vocabulary, eval_team
from tlk import syntax as S
from tlk.mtl_bridge import interpret_kripke, lift_team, standard_translation
from tlk.so_bridge import SOAssignment, eval_so, team_relation, translate_eta
from tlk.solver import Satisfiable, sat_bounded, sat_fo2
from tlk.structures import Structure, Team

from workloads import ARITIES, XY, predicate_arities, so_cost, team_cost

# Above this estimated cost the eta route is not affordable as a
# reference and the brute-force checker decides instead.
SO_REFERENCE_COST = 1_000.0
SO_REFERENCE_BUDGET = 5_000_000
# Likewise for the standard-translation route of modal requests, by the
# team cost estimate of the translated formula on the lifted team.  Its
# flat subformulas are not charged to a budget, so the estimate is the
# only guard.
ST_REFERENCE_COST = 20_000.0


class TeamChecker:
    """Team semantics over one structure given as plain data.

    A team is a tuple of variable names (sorted) and a frozenset of
    value tuples in that order.
    """

    def __init__(self, n: int, relations: dict):
        self.n = n
        self.relations = relations
        self.memo: dict = {}
        self.free: dict = {}

    def classical(self, env: dict, phi) -> bool:
        if isinstance(phi, S.Pred):
            return tuple(env[a.name] for a in phi.args) in self.relations[phi.name]
        if isinstance(phi, S.Eq):
            return env[phi.left.name] == env[phi.right.name]
        if isinstance(phi, S.Top):
            return True
        if isinstance(phi, S.Bot):
            return False
        if isinstance(phi, S.Not):
            return not self.classical(env, phi.body)
        if isinstance(phi, S.And):
            return self.classical(env, phi.left) and self.classical(env, phi.right)
        if isinstance(phi, S.Or):
            return self.classical(env, phi.left) or self.classical(env, phi.right)
        if isinstance(phi, (S.Exists, S.Forall)):
            old = env.get(phi.var)
            results = []
            for a in range(self.n):
                env[phi.var] = a
                results.append(self.classical(env, phi.body))
            if old is None:
                del env[phi.var]
            else:
                env[phi.var] = old
            return any(results) if isinstance(phi, S.Exists) else all(results)
        raise TypeError(f"not first-order: {type(phi).__name__}")

    def holds(self, vars_: tuple, rows: frozenset, phi) -> bool:
        fv = self.free.get(id(phi))
        if fv is None:
            fv = self.free[id(phi)] = tuple(sorted(S.free_vars(phi)))
        if fv != vars_:
            pos = [vars_.index(v) for v in fv]
            rows = frozenset(tuple(r[i] for i in pos) for r in rows)
            vars_ = fv
        key = (id(phi), rows)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self._holds(vars_, rows, phi)
        return out

    def _holds(self, vars_, rows, phi) -> bool:
        if S.is_fo(phi):
            return all(self.classical(dict(zip(vars_, r)), phi) for r in rows)
        if isinstance(phi, S.DepAtom):
            image = {tuple(r[vars_.index(a.name)] for a in phi.args) for r in rows}
            return _dependency_holds(phi.dep.name, len(phi.args), image)
        if isinstance(phi, S.BoolNot):
            return not self.holds(vars_, rows, phi.body)
        if isinstance(phi, S.And):
            return self.holds(vars_, rows, phi.left) and self.holds(vars_, rows, phi.right)
        if isinstance(phi, S.Or):
            order = sorted(rows)
            for left_mask in range(2 ** len(order)):
                left = frozenset(r for i, r in enumerate(order) if left_mask >> i & 1)
                if not self.holds(vars_, left, phi.left):
                    continue
                rest = [r for r in order if r not in left]
                for extra_mask in range(2 ** len(left)):
                    extra = [r for i, r in enumerate(sorted(left)) if extra_mask >> i & 1]
                    if self.holds(vars_, frozenset(rest + extra), phi.right):
                        return True
            return False
        if isinstance(phi, (S.Exists, S.Forall)):
            new_vars = tuple(sorted(set(vars_) | {phi.var}))
            slot = new_vars.index(phi.var)
            ext = lambda r, a: r[:slot] + (a,) + r[slot:]
            if isinstance(phi, S.Forall):
                grown = frozenset(ext(r, a) for r in rows for a in range(self.n))
                return self.holds(new_vars, grown, phi.body)
            choices = [
                c
                for k in range(1, self.n + 1)
                for c in itertools.combinations(range(self.n), k)
            ]
            order = sorted(rows)
            for pick in itertools.product(choices, repeat=len(order)):
                grown = frozenset(ext(r, a) for r, c in zip(order, pick) for a in c)
                if self.holds(new_vars, grown, phi.body):
                    return True
            return False
        raise TypeError(f"unexpected node {type(phi).__name__}")


def _dependency_holds(name: str, arity: int, image: set) -> bool:
    if name == "dep":
        seen: dict = {}
        for t in image:
            if seen.setdefault(t[:-1], t[-1]) != t[-1]:
                return False
        return True
    m = arity // 2
    left = {t[:m] for t in image}
    right = {t[m:] for t in image}
    if name == "inc":
        return left <= right
    if name == "exc":
        return not (left & right)
    if name == "indep":
        return all(a[:m] + b[m:] in image for a in image for b in image)
    raise ValueError(f"no reference semantics for dependency {name!r}")


def _ml_holds(valuation: frozenset, phi) -> bool:
    if isinstance(phi, S.Prop):
        return phi.name in valuation
    if isinstance(phi, S.Top):
        return True
    if isinstance(phi, S.Bot):
        return False
    if isinstance(phi, S.Not):
        return not _ml_holds(valuation, phi.body)
    if isinstance(phi, S.And):
        return _ml_holds(valuation, phi.left) and _ml_holds(valuation, phi.right)
    return _ml_holds(valuation, phi.left) or _ml_holds(valuation, phi.right)


def _ptl_holds(team: frozenset, phi, memo: dict) -> bool:
    key = (id(phi), team)
    if key in memo:
        return memo[key]
    if S.is_ml(phi):
        out = all(_ml_holds(v, phi) for v in team)
    elif isinstance(phi, S.BoolNot):
        out = not _ptl_holds(team, phi.body, memo)
    elif isinstance(phi, S.And):
        out = _ptl_holds(team, phi.left, memo) and _ptl_holds(team, phi.right, memo)
    else:
        rows = sorted(team, key=sorted)
        out = any(
            _ptl_holds(frozenset(r for r, s in zip(rows, sides) if s != 1), phi.left, memo)
            and _ptl_holds(frozenset(r for r, s in zip(rows, sides) if s != 0), phi.right, memo)
            for sides in itertools.product((0, 1, 2), repeat=len(rows))
        )
    memo[key] = out
    return out


class ModalChecker:
    """Modal team semantics over a Kripke structure given as plain data."""

    def __init__(self, k: dict):
        self.valuation = k["valuation"]
        self.succ = {w: frozenset(b for a, b in k["edges"] if a == w) for w in range(k["worlds"])}
        self.memo: dict = {}

    def world(self, w: int, phi) -> bool:
        if isinstance(phi, S.Prop):
            return w in self.valuation[phi.name]
        if isinstance(phi, S.Not):
            return not self.world(w, phi.body)
        if isinstance(phi, S.And):
            return self.world(w, phi.left) and self.world(w, phi.right)
        if isinstance(phi, S.Or):
            return self.world(w, phi.left) or self.world(w, phi.right)
        if isinstance(phi, S.Diamond):
            return any(self.world(v, phi.body) for v in self.succ[w])
        if isinstance(phi, S.Box):
            return all(self.world(v, phi.body) for v in self.succ[w])
        if isinstance(phi, (S.Top, S.Bot)):
            return isinstance(phi, S.Top)
        raise TypeError(f"not a classical modal formula: {type(phi).__name__}")

    def holds(self, team: frozenset, phi) -> bool:
        key = (id(phi), team)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self._holds(team, phi)
        return out

    def _holds(self, team, phi) -> bool:
        if S.is_ml(phi):
            return all(self.world(w, phi) for w in team)
        if isinstance(phi, S.BoolNot):
            return not self.holds(team, phi.body)
        if isinstance(phi, S.And):
            return self.holds(team, phi.left) and self.holds(team, phi.right)
        image = frozenset(v for w in team for v in self.succ[w])
        if isinstance(phi, S.Box):
            return self.holds(image, phi.body)
        if isinstance(phi, S.Diamond):
            return any(
                all(self.succ[w] & succ for w in team) and self.holds(succ, phi.body)
                for succ in _subsets(image)
            )
        if isinstance(phi, S.Or):
            return any(
                self.holds(left, phi.left) and any(
                    self.holds((team - left) | extra, phi.right) for extra in _subsets(left)
                )
                for left in _subsets(team)
            )
        raise TypeError(f"unexpected node {type(phi).__name__}")


def _subsets(items: frozenset):
    order = sorted(items)
    for mask in range(2 ** len(order)):
        yield frozenset(v for i, v in enumerate(order) if mask >> i & 1)


def ptl_satisfiable(phi) -> bool:
    """Is some team of valuations (possibly empty) a model of phi?"""
    names = sorted(S.prop_names(phi))
    valuations = [
        frozenset(p for p, bit in zip(names, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(names))
    ]
    memo: dict = {}
    return any(
        _ptl_holds(frozenset(combo), phi, memo)
        for r in range(len(valuations) + 1)
        for combo in itertools.combinations(valuations, r)
    )


# ---------------------------------------------------------------------------
# Bounded search by brute force


def all_relations(n: int, arities: dict):
    """Every interpretation of the predicates over {0..n-1}."""
    names = sorted(arities)
    universes = [list(itertools.product(range(n), repeat=arities[p])) for p in names]
    for masks in itertools.product(*[range(2 ** len(u)) for u in universes]):
        yield {
            p: frozenset(t for i, t in enumerate(u) if mask >> i & 1)
            for p, u, mask in zip(names, universes, masks)
        }


def brute_force_models(phi, max_domain: int):
    """Yield (n, relations, rows) for every pair that satisfies phi,
    smallest domains first.  Structures interpret phi's own predicates;
    the team ranges over phi's free variables."""
    arities = predicate_arities(phi)
    vars_ = tuple(sorted(S.free_vars(phi)))
    for n in range(1, max_domain + 1):
        universe = list(itertools.product(range(n), repeat=len(vars_)))
        for relations in all_relations(n, arities):
            checker = TeamChecker(n, relations)
            for mask in range(2 ** len(universe)):
                rows = frozenset(t for i, t in enumerate(universe) if mask >> i & 1)
                if checker.holds(vars_, rows, phi):
                    yield n, relations, rows


def _witness_holds(witness, phi, expected: bool) -> bool:
    """Re-verify a solver witness with tlk's evaluator and the checker."""
    A, T = witness.structure, witness.team
    if eval_team(A, T, phi) is not expected:
        return False
    vars_ = tuple(sorted(S.free_vars(phi)))
    rows = frozenset(tuple(s.get(v) for v in vars_) for s in T.rows)
    return TeamChecker(A.domain_size, A.relations).holds(vars_, rows, phi) is expected


# ---------------------------------------------------------------------------
# Per-kind reference checks


def _structure(n: int, relations: dict) -> Structure:
    return Structure(n, dict(relations), arities=dict(ARITIES))


def _team_verdict(src: dict) -> bool:
    """mc team requests: the eta route where affordable, else brute force."""
    n, vars_, phi = src["n"], src["vars"], src["phi"]
    if so_cost(phi, n, len(vars_)) <= SO_REFERENCE_COST:
        A = _structure(n, src["relations"])
        T = Team.from_tuples(vars_, src["rows"])
        J = SOAssignment.of({"R0": team_relation(A, T, vars_)})
        try:
            sentence = translate_eta(phi, vars_, rel="R0")
            return eval_so(A, J, sentence, Budget(SO_REFERENCE_BUDGET))
        except BudgetExceeded:
            pass
    return TeamChecker(n, src["relations"]).holds(vars_, frozenset(src["rows"]), phi)


def check(req, outcome) -> bool:
    """Is the outcome of the timed call right?"""
    src, kind = req.source, req.kind
    if kind in ("team", "hook"):
        return outcome == _team_verdict(src)
    if kind == "modal":
        k = src["kripke"]
        st = standard_translation(src["phi"])
        if team_cost(st, k["worlds"], len(k["team"])) <= ST_REFERENCE_COST:
            K = KripkeStructure(k["worlds"], k["edges"], dict(k["valuation"]))
            return outcome == eval_team(interpret_kripke(K), lift_team(k["team"]), st)
        return outcome == ModalChecker(k).holds(k["team"], src["phi"])
    if kind == "ptl":
        return outcome == ptl_satisfiable(src["phi"])
    if kind in ("eta", "zeta"):
        A = _structure(src["n"], src["relations"])
        return outcome == eval_team(A, Team.from_tuples(XY, src["rows"]), src["phi"])
    if kind in ("sat", "unsat", "valid", "tautology", "fo2"):
        return _check_search(kind, src["phi"], outcome)
    raise ValueError(f"unknown request kind {kind!r}")


def _check_search(kind: str, phi, outcome) -> bool:
    vocab = Vocabulary(predicates=predicate_arities(phi))
    dependency_free = not any(isinstance(node, S.DepAtom) for node in S.walk(phi))
    if kind in ("valid", "tautology"):
        # a counterexample to phi is a model of ~phi
        first = next(brute_force_models(S.BoolNot(phi), 2), None)
        if first is None:
            return outcome == "valid"
        return outcome[0] == "cex" and _witness_holds(outcome[1], phi, False)
    first = next(brute_force_models(phi, 2), None)
    if kind in ("sat", "unsat"):
        if dependency_free:
            # the two-variable route must agree at the same bound
            if isinstance(sat_fo2(phi, vocab, model_bound=2), Satisfiable) != (first is not None):
                return False
        if first is None:
            return outcome == "unsat"
        return outcome[0] == "sat" and _witness_holds(outcome[1], phi, True)
    # fo2 at bound 3: sat_bounded must agree at bound 2, the minimal
    # witness domain must match, and a domain-3 witness must re-verify.
    if isinstance(sat_bounded(phi, vocab, max_domain=2), Satisfiable) != (first is not None):
        return False
    if outcome == "unsat":
        return first is None
    if outcome[0] != "sat" or not _witness_holds(outcome[1], phi, True):
        return False
    size = outcome[1].structure.domain_size
    return size == first[0] if first is not None else size == 3
