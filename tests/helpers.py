"""Shared test machinery.

Random instance generators (formulas, structures, teams) with coarse
cost estimators so randomized equivalence harnesses can resample
instances that would be needlessly slow to check; a brute-force
propositional team logic oracle that knows nothing about the package's
evaluators; and the registry used to report the acceptance-suite
verdicts one line per criterion.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from dataclasses import dataclass

from tlk import Structure, Team
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
    Var,
    BOT,
    TOP,
    dependence_signature,
    exclusion_signature,
    inclusion_signature,
    independence_signature,
    is_fo,
    is_ml,
    prop_names,
    size,
)

# ---------------------------------------------------------------------------
# Random first-order / team formulas over the test vocabulary {P/1, R/2, =}

TEST_ARITIES = {"P": 1, "R": 2}


def random_fo_atom(rng: random.Random, vars_):
    t = lambda: Var(rng.choice(vars_))
    roll = rng.random()
    if roll < 0.35:
        return Pred("P", (t(),))
    if roll < 0.70:
        return Pred("R", (t(), t()))
    if roll < 0.95:
        return Eq(t(), t())
    return TOP if rng.random() < 0.5 else BOT


def random_dep_atom(rng: random.Random, vars_):
    t = lambda: Var(rng.choice(vars_))
    kind = rng.choice(["dep1", "dep2", "inc", "exc", "indep"])
    if kind == "dep1":
        return DepAtom(dependence_signature(1), (t(),))
    if kind == "dep2":
        return DepAtom(dependence_signature(2), (t(), t()))
    if kind == "inc":
        return DepAtom(inclusion_signature(2), (t(), t()))
    if kind == "exc":
        return DepAtom(exclusion_signature(2), (t(), t()))
    return DepAtom(independence_signature(2), (t(), t()))


def random_fo_formula(rng: random.Random, size_: int, vars_):
    if size_ <= 1:
        return random_fo_atom(rng, vars_)
    roll = rng.random()
    if roll < 0.25:
        return Not(random_fo_formula(rng, size_ - 1, vars_))
    if roll < 0.55:
        k = rng.randint(1, size_ - 2) if size_ > 2 else 1
        return And(
            random_fo_formula(rng, k, vars_),
            random_fo_formula(rng, size_ - 1 - k, vars_),
        )
    if roll < 0.85:
        k = rng.randint(1, size_ - 2) if size_ > 2 else 1
        return Or(
            random_fo_formula(rng, k, vars_),
            random_fo_formula(rng, size_ - 1 - k, vars_),
        )
    v = rng.choice(vars_)
    body = random_fo_formula(rng, size_ - 1, vars_)
    return Exists(v, body) if rng.random() < 0.5 else Forall(v, body)


def random_team_formula(rng: random.Random, size_: int, vars_, dep_rate: float = 0.3):
    """A random formula of the full team language over ``vars_``."""
    if size_ <= 1:
        if rng.random() < dep_rate:
            return random_dep_atom(rng, vars_)
        return random_fo_atom(rng, vars_)
    roll = rng.random()
    if roll < 0.18:
        return BoolNot(random_team_formula(rng, size_ - 1, vars_, dep_rate))
    if roll < 0.28:
        return Not(random_fo_formula(rng, size_ - 1, vars_))
    if roll < 0.50:
        k = rng.randint(1, size_ - 2) if size_ > 2 else 1
        return And(
            random_team_formula(rng, k, vars_, dep_rate),
            random_team_formula(rng, size_ - 1 - k, vars_, dep_rate),
        )
    if roll < 0.72:
        k = rng.randint(1, size_ - 2) if size_ > 2 else 1
        return Or(
            random_team_formula(rng, k, vars_, dep_rate),
            random_team_formula(rng, size_ - 1 - k, vars_, dep_rate),
        )
    v = rng.choice(vars_)
    body = random_team_formula(rng, size_ - 1, vars_, dep_rate)
    return Exists(v, body) if rng.random() < 0.5 else Forall(v, body)


def random_structure(rng: random.Random, n: int) -> Structure:
    return Structure(
        n,
        {
            "P": frozenset((a,) for a in range(n) if rng.random() < 0.5),
            "R": frozenset(
                (a, b) for a in range(n) for b in range(n) if rng.random() < 0.5
            ),
        },
        arities=dict(TEST_ARITIES),
    )


def all_structures(n: int):
    """Every {P/1, R/2}-structure with domain size n."""
    singles = list(itertools.product(range(n), repeat=1))
    pairs = list(itertools.product(range(n), repeat=2))
    for pmask in range(2 ** len(singles)):
        pval = frozenset(t for i, t in enumerate(singles) if pmask >> i & 1)
        for rmask in range(2 ** len(pairs)):
            rval = frozenset(t for i, t in enumerate(pairs) if rmask >> i & 1)
            yield Structure(n, {"P": pval, "R": rval}, arities=dict(TEST_ARITIES))


def random_team(rng: random.Random, n: int, vars_, max_rows: int) -> Team:
    all_rows = list(itertools.product(range(n), repeat=len(vars_)))
    k = rng.randint(0, min(max_rows, len(all_rows)))
    return Team.from_tuples(vars_, rng.sample(all_rows, k))


def all_teams(n: int, vars_):
    rows = list(itertools.product(range(n), repeat=len(vars_)))
    for mask in range(2 ** len(rows)):
        yield Team.from_tuples(vars_, (t for i, t in enumerate(rows) if mask >> i & 1))


# ---------------------------------------------------------------------------
# Cost estimators
#
# The translation-equivalence harnesses check randomized instances on both
# sides of a translation.  Brute-force second-order evaluation enumerates
# all 2**(n**a) relations per quantifier, so a handful of unlucky shapes
# (splitjunctions at domain 3, nested fresh-variable quantifiers) would eat
# the whole time budget without adding coverage.  These estimators predict
# the enumeration effort at generation time so the sampler can resample.


def so_cost_estimate(phi, n: int, arity: int) -> float:
    """Coarse upper bound on evaluator steps for the translated formula,
    where ``arity`` is the width of the team relation at this node."""
    R = 2.0 ** (n**arity)
    if is_fo(phi):
        return (n**arity) * (size(phi) + 1.0)
    if isinstance(phi, DepAtom):
        return R * 12.0 + 30.0 * n ** len(phi.args)
    if isinstance(phi, BoolNot):
        return so_cost_estimate(phi.body, n, arity)
    if isinstance(phi, And):
        return so_cost_estimate(phi.left, n, arity) + so_cost_estimate(
            phi.right, n, arity
        )
    if isinstance(phi, Or):
        left = so_cost_estimate(phi.left, n, arity)
        right = so_cost_estimate(phi.right, n, arity)
        return 3.0 * R * R + R * (left + right)
    if isinstance(phi, (Exists, Forall)):
        # fresh variables widen the team relation by one position
        body_arity = arity if phi.var in ("x", "y")[:arity] else arity + 1
        survivors = min(2.0 ** (n**body_arity), (2.0**n) ** (n ** (body_arity - 1)))
        return 12.0 * R + survivors * so_cost_estimate(phi.body, n, body_arity)
    raise TypeError(f"unexpected node {type(phi).__name__}")


def team_cost_estimate(phi, n: int, rows: int) -> float:
    """Coarse upper bound on direct team-evaluation steps."""
    r = min(rows, n * n)
    if is_fo(phi):
        return r * (size(phi) + 1.0) * (n + 1.0)
    if isinstance(phi, DepAtom):
        return r + 30.0 * n ** len(phi.args)
    if isinstance(phi, BoolNot):
        return team_cost_estimate(phi.body, n, rows)
    if isinstance(phi, And):
        return team_cost_estimate(phi.left, n, rows) + team_cost_estimate(
            phi.right, n, rows
        )
    if isinstance(phi, Or):
        subteams = 2.0**r
        return 3.0**r + subteams * (
            team_cost_estimate(phi.left, n, rows)
            + team_cost_estimate(phi.right, n, rows)
        )
    if isinstance(phi, (Exists, Forall)):
        grown = min(rows * n, n * n)
        body = team_cost_estimate(phi.body, n, grown)
        if isinstance(phi, Forall):
            return body + r
        return min((2.0**n - 1.0) ** r, 4.0 ** (n * n)) * body
    raise TypeError(f"unexpected node {type(phi).__name__}")


@dataclass
class OracleInstance:
    structure: Structure
    team: Team
    formula: object
    domain_size: int


def sample_oracle_instance(
    rng: random.Random,
    *,
    max_size: int = 8,
    max_rows: int = 4,
    so_threshold: float = 120_000.0,
    team_threshold: float = 500_000.0,
    allow_z: bool = True,
    law_rate: float = 0.0,
) -> OracleInstance:
    """One randomized instance for the translation-equivalence harnesses:
    domain <= 3, team rows <= 4, formula size <= max_size over {x, y}
    (with a third quantified variable allowed on small domains), resampled
    until the cost estimates predict a quick check on both sides.  With
    probability ``law_rate`` the formula is a random instance of one of
    the nine rewrite laws instead."""
    while True:
        n = rng.choice((1, 2, 2, 2, 3, 3))
        if allow_z and n <= 2 and rng.random() < 0.25:
            qvars = ("x", "y", "z")
        else:
            qvars = ("x", "y")
        if law_rate and rng.random() < law_rate:
            phi = random_law_instance(rng, rng.randint(1, 9))
        else:
            phi = random_team_formula(rng, rng.randint(1, max_size), qvars)
        if S.free_vars(phi) - {"x", "y"}:
            continue  # z must end up bound so the team stays two-variable
        if so_cost_estimate(phi, n, 2) > so_threshold:
            continue
        if team_cost_estimate(phi, n, max_rows) > team_threshold:
            continue
        return OracleInstance(
            structure=random_structure(rng, n),
            team=random_team(rng, n, ("x", "y"), max_rows),
            formula=phi,
            domain_size=n,
        )


# ---------------------------------------------------------------------------
# Random second-order sentences whose relation quantifiers are often
# guarded: each binder's body has, most of the time, a conjunct
# A vs. (X | psi) (a disjunct E vs. (X & psi) under A2/Ap) whose X holds
# a literal over the bound relation.  The draws vary what decides whether
# the conjunct is a guard: inner quantifiers in X that may shadow a chain
# variable, chain variables the literal lacks, psi mentioning the relation
# or a relation bound on the way down, repeated arguments, a binder of the
# same name in between, a guard under the other connective, and sparse
# caps; and, rarely, a relation used at the wrong arity.

SO_ELEMENTS = ("x", "y", "z")


class SmallDraws(random.Random):
    """A Random that takes every draw from Hypothesis as an integer in a
    small range.  Hypothesis draws ``random()`` floats as 0.0 about half
    the time and wide integers with a strong bias to small values, so the
    generators would mostly take their first branch; small ranges come
    out close to uniform and still shrink towards 0."""

    def __init__(self, source: random.Random):
        self._source = source
        super().__init__()

    def random(self) -> float:
        return self._source.randrange(1024) / 1024

    def _randbelow(self, n: int) -> int:
        return self._source.randrange(n)


def _so_atom(rng: random.Random, rels: dict):
    t = lambda: Var(rng.choice(SO_ELEMENTS))
    roll = rng.random()
    if roll < 0.2:
        return Pred("P", (t(),))
    if roll < 0.35:
        return Pred("R", (t(), t()))
    if roll < 0.45:
        return Eq(t(), t())
    if roll < 0.5:
        return TOP if rng.random() < 0.5 else BOT
    name = rng.choice(sorted(rels))
    arity = rels[name] if rng.random() < 0.98 else 3 - rels[name]
    return S.RelApp(name, tuple(t() for _ in range(arity)))


def _so_guard(rng: random.Random, name: str, arity: int, existential: bool, rels: dict):
    spine, parts, quant = (And, Or, Forall) if existential else (Or, And, Exists)
    args = [rng.choice(SO_ELEMENTS) for _ in range(arity)]
    inner = [a for a in dict.fromkeys(args) if rng.random() < 0.25]
    chain = [a for a in dict.fromkeys(args) if a not in inner]
    if rng.random() < 0.2:
        chain.append(rng.choice(SO_ELEMENTS))
    x = S.RelApp(name, tuple(Var(a) for a in args))
    if rng.random() < 0.5:
        x = Not(x)
    if rng.random() < 0.3:
        other = _so_atom(rng, rels)
        x = spine(x, other) if rng.random() < 0.5 else spine(other, x)
    for w in inner:
        x = quant(w, x)
    psi = random_so_formula(rng, rng.randint(1, 3), rels)
    body = parts(x, psi) if rng.random() < 0.5 else parts(psi, x)
    for v in reversed(chain):
        body = quant(v, body)
    return body


def _so_binder(rng: random.Random, size_: int, rels: dict):
    existential = rng.random() < 0.5
    name, arity = rng.choice(("S", "T", "S")), rng.randint(1, 2)
    rels = {**rels, name: arity}
    body = random_so_formula(rng, size_ - 1, rels)
    if rng.random() < 0.75:
        guard = _so_guard(rng, name, arity, existential, rels)
        spine = And if existential else Or
        if rng.random() < 0.3:  # a binder in between, maybe of the same name
            other = rng.choice(("U", name))
            rest = random_so_formula(rng, 2, {**rels, other: arity})
            cls = S.ExistsRel if existential else S.ForallRel
            guard = cls(other, arity, spine(guard, rest))
        if rng.random() < 0.15:  # under the other connective: no guard
            spine = Or if existential else And
        body = spine(guard, body) if rng.random() < 0.5 else spine(body, guard)
    if rng.random() < 0.4:
        cls = S.ExistsRelSparse if existential else S.ForallRelSparse
        return cls(name, arity, S.SparseBound.scaled_power(1, rng.randint(0, 1)), body)
    return (S.ExistsRel if existential else S.ForallRel)(name, arity, body)


def random_so_formula(rng: random.Random, size_: int, rels: dict):
    """A random second-order formula over P/1, R/2, =, the relation
    variables ``rels`` (name -> arity) and the elements x, y, z."""
    if size_ <= 1:
        return _so_atom(rng, rels)
    roll = rng.random()
    if roll < 0.08:
        return Not(random_so_formula(rng, size_ - 1, rels))
    if roll < 0.45:
        k = rng.randint(1, size_ - 1)
        cls = rng.choice((And, Or, And, Or, S.Implies, S.Iff))
        left = random_so_formula(rng, k, rels)
        return cls(left, random_so_formula(rng, max(1, size_ - 1 - k), rels))
    if roll < 0.7:
        cls = Exists if rng.random() < 0.5 else Forall
        return cls(rng.choice(SO_ELEMENTS), random_so_formula(rng, size_ - 1, rels))
    return _so_binder(rng, size_, rels)


def random_so_sentence(rng: random.Random, size_: int):
    """A relation quantifier over a random formula; V/2 is free."""
    return _so_binder(rng, size_, {"V": 2})


# ---------------------------------------------------------------------------
# Law instantiation: build a random formula whose root matches the
# left-hand shape of each rewrite law.


def random_law_instance(rng: random.Random, index: int):
    vars_ = ("x", "y")
    fo = lambda k=3: random_fo_formula(rng, rng.randint(1, k), vars_)
    team = lambda k=4: random_team_formula(rng, rng.randint(1, k), vars_)

    def fo_avoiding(*shapes):
        # the chain matchers treat maximal &/| chains as the law pattern,
        # so a slot that must stay a single chain element cannot itself
        # be an And/Or at the root
        while True:
            a = fo()
            if not isinstance(a, shapes):
                return a

    v = rng.choice(vars_)
    if index == 1:
        parts = [fo_avoiding(And)] + [S.mk_e(fo()) for _ in range(rng.randint(1, 3))]
        return S.and_all(parts)
    if index == 2:
        return S.or_all(
            [
                S.And(fo_avoiding(And, Or), S.mk_e(fo()))
                for _ in range(rng.randint(1, 3))
            ]
        )
    if index == 3:
        return Or(S.mk_ovee(team(), team()), team())
    if index == 4:
        return Or(team(), S.mk_ovee(team(), team()))
    if index == 5:
        return Exists(v, S.mk_ovee(team(3), team(3)))
    if index == 6:
        return Exists(v, Or(team(), team()))
    if index == 7:
        return Exists(v, And(fo(), S.mk_e(fo())))
    if index == 8:
        return Forall(v, And(team(3), team(3)))
    if index == 9:
        return Forall(v, BoolNot(team()))
    raise ValueError(index)


def equivalence_battery(rng: random.Random, *, points: int = 5):
    """(structure, team) pairs over {x, y} for semantic-equivalence spot
    checks: always the empty team and a full small team, then random."""
    out = []
    n = rng.choice((1, 2, 2))
    A = random_structure(rng, n)
    out.append((A, Team.from_tuples(("x", "y"), [])))
    out.append(
        (A, Team.from_tuples(("x", "y"), itertools.product(range(n), repeat=2)))
    )
    while len(out) < points:
        if rng.random() < 0.15:
            out.append((random_structure(rng, 3), random_team(rng, 3, ("x", "y"), 3)))
        else:
            n = rng.choice((1, 2, 2))
            out.append((random_structure(rng, n), random_team(rng, n, ("x", "y"), 4)))
    return out


# ---------------------------------------------------------------------------
# Propositional team logic: enumeration and a brute-force oracle
#
# The oracle works on teams of valuations (a valuation is the frozenset of
# true proposition names) and never touches the package's evaluators.


def enumerate_ptl(max_size: int, props=("p", "q")):
    """All propositional team formulas over the given atoms, by node count:
    atoms; ~ of anything; classical negation of classical subformulas;
    and/or of any pair."""
    by_size: dict[int, list] = {1: [Prop(name) for name in props]}
    for total in range(2, max_size + 1):
        forms = []
        for body in by_size[total - 1]:
            forms.append(BoolNot(body))
            if is_ml(body):
                forms.append(Not(body))
        for k in range(1, total - 1):
            for left in by_size[k]:
                for right in by_size[total - 1 - k]:
                    forms.append(And(left, right))
                    forms.append(Or(left, right))
        by_size[total] = forms
    return [phi for total in sorted(by_size) for phi in by_size[total]]


def _ml_holds(valuation: frozenset, phi) -> bool:
    if isinstance(phi, Prop):
        return phi.name in valuation
    if isinstance(phi, S.Top):
        return True
    if isinstance(phi, S.Bot):
        return False
    if isinstance(phi, Not):
        return not _ml_holds(valuation, phi.body)
    if isinstance(phi, And):
        return _ml_holds(valuation, phi.left) and _ml_holds(valuation, phi.right)
    return _ml_holds(valuation, phi.left) or _ml_holds(valuation, phi.right)


def ptl_team_holds(team: frozenset, phi, _memo=None) -> bool:
    """Team satisfaction for propositional team formulas, by brute force
    (splitjunction tries every cover)."""
    memo = _memo if _memo is not None else {}
    key = (id(phi), team)
    if key in memo:
        return memo[key]
    if is_ml(phi):
        out = all(_ml_holds(v, phi) for v in team)
    elif isinstance(phi, BoolNot):
        out = not ptl_team_holds(team, phi.body, memo)
    elif isinstance(phi, And):
        out = ptl_team_holds(team, phi.left, memo) and ptl_team_holds(
            team, phi.right, memo
        )
    elif isinstance(phi, Or):
        rows = sorted(team, key=sorted)
        out = False
        for sides in itertools.product((0, 1, 2), repeat=len(rows)):
            left = frozenset(r for r, side in zip(rows, sides) if side != 1)
            right = frozenset(r for r, side in zip(rows, sides) if side != 0)
            if ptl_team_holds(left, phi.left, memo) and ptl_team_holds(
                right, phi.right, memo
            ):
                out = True
                break
    else:
        raise TypeError(f"not a propositional team formula: {phi}")
    memo[key] = out
    return out


def ptl_satisfiable(phi) -> bool:
    """Is some team of valuations (possibly empty) a model of phi?"""
    names = sorted(prop_names(phi))
    valuations = [
        frozenset(name for name, bit in zip(names, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(names))
    ]
    memo: dict = {}
    for r in range(len(valuations) + 1):
        for combo in itertools.combinations(valuations, r):
            if ptl_team_holds(frozenset(combo), phi, memo):
                return True
    return False


def valuation_team(kripke, team) -> frozenset:
    """Project a team of worlds to the team of their valuations."""
    return frozenset(
        frozenset(p for p, worlds in kripke.valuation.items() if w in worlds)
        for w in team
    )


# ---------------------------------------------------------------------------
# Random modal team formulas and Kripke structures


def random_mtl_formula(rng: random.Random, size_: int, md: int, props=("p", "q")):
    if size_ <= 1 or (md == 0 and size_ <= 1):
        return Prop(rng.choice(props))
    roll = rng.random()
    if md > 0 and roll < 0.30:
        body = random_mtl_formula(rng, size_ - 1, md - 1, props)
        return S.Diamond(body) if rng.random() < 0.5 else S.Box(body)
    if roll < 0.45:
        return BoolNot(random_mtl_formula(rng, size_ - 1, md, props))
    if roll < 0.58:
        return Not(random_ml_formula(rng, size_ - 1, md, props))
    if roll < 0.80:
        k = rng.randint(1, size_ - 2) if size_ > 2 else 1
        return And(
            random_mtl_formula(rng, k, md, props),
            random_mtl_formula(rng, size_ - 1 - k, md, props),
        )
    k = rng.randint(1, size_ - 2) if size_ > 2 else 1
    return Or(
        random_mtl_formula(rng, k, md, props),
        random_mtl_formula(rng, size_ - 1 - k, md, props),
    )


def random_ml_formula(rng: random.Random, size_: int, md: int, props=("p", "q")):
    if size_ <= 1:
        return Prop(rng.choice(props))
    roll = rng.random()
    if md > 0 and roll < 0.30:
        body = random_ml_formula(rng, size_ - 1, md - 1, props)
        return S.Diamond(body) if rng.random() < 0.5 else S.Box(body)
    if roll < 0.45:
        return Not(random_ml_formula(rng, size_ - 1, md, props))
    if roll < 0.75:
        k = rng.randint(1, size_ - 2) if size_ > 2 else 1
        return And(
            random_ml_formula(rng, k, md, props),
            random_ml_formula(rng, size_ - 1 - k, md, props),
        )
    k = rng.randint(1, size_ - 2) if size_ > 2 else 1
    return Or(
        random_ml_formula(rng, k, md, props),
        random_ml_formula(rng, size_ - 1 - k, md, props),
    )


def all_kripkes(worlds: int, props=("p", "q")):
    """Every Kripke structure with the given number of worlds."""
    from tlk import KripkeStructure

    pairs = list(itertools.product(range(worlds), repeat=2))
    world_subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(worlds), r) for r in range(worlds + 1)
        )
    )
    for emask in range(2 ** len(pairs)):
        edges = frozenset(t for i, t in enumerate(pairs) if emask >> i & 1)
        for vals in itertools.product(world_subsets, repeat=len(props)):
            valuation = {p: frozenset(v) for p, v in zip(props, vals)}
            yield KripkeStructure(worlds, edges, valuation)


def random_kripke(rng: random.Random, worlds: int, props=("p", "q")):
    from tlk import KripkeStructure

    edges = frozenset(
        (a, b)
        for a in range(worlds)
        for b in range(worlds)
        if rng.random() < 0.5
    )
    valuation = {
        p: frozenset(w for w in range(worlds) if rng.random() < 0.5) for p in props
    }
    return KripkeStructure(worlds, edges, valuation)


# ---------------------------------------------------------------------------
# Supplement existence (used when checking the restriction duality)


def exists_supplement(T: Team, var: str, S: Team, n: int) -> bool:
    """Is S = T[f/var] for some supplementing function f?

    Decided by the maximal choice: take every extension of a T-row that
    lands in S; that works exactly when no T-row is left without an
    extension and no S-row fails to project back into T.
    """
    for s in T.rows:
        if not any(s.set(var, a) in S.rows for a in range(n)):
            return False
    for u in S.rows:
        if not any(s.set(var, u.get(var)) == u for s in T.rows):
            return False
    return True


# ---------------------------------------------------------------------------
# Deep and shared formulas


# Text of formulas far deeper than any recursion limit: a 3000-term
# conjunction and runs of 3000 and 6000 prefix operators, in modal team
# logic, so that every pass over formulas applies to them.
DEEP_MTL_TEXTS = {
    "chain": " & ".join(["p"] * 3000),
    "~3000": "~" * 3000 + "p",
    "~6000": "~" * 6000 + "p",
    "<>3000": "<>" * 3000 + "p",
    "<>6000": "<>" * 6000 + "p",
}


@contextlib.contextmanager
def recursion_limit(limit: int):
    """Run the block under a lower recursion limit, so that a pass that
    recurses once per level fails on depths it would otherwise survive."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def nested_iff(levels: int) -> S.Formula:
    """P(x) <-> P(x) <-> ... with ``levels`` arrows, nested to the left;
    its negation normal form shares subformulas, a DAG of linear size."""
    phi = S.Pred("P", (S.Var("x"),))
    for _ in range(levels):
        phi = S.Iff(phi, S.Pred("P", (S.Var("x"),)))
    return phi


def distinct_nodes(phi: S.Formula) -> int:
    """The number of distinct node objects in a formula."""
    seen, stack = set(), [phi]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(S.children(node))
    return len(seen)
