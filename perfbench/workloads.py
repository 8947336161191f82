"""Seeded request generators for the three benchmark workloads.

Request ``i`` of a workload depends only on (workload, seed, i), so the
same seed gives the same request stream however long a run lasts.  The
kind of each request follows a fixed schedule per workload; the seed
only draws the instance, so every seed has the same request mix.

The formula, structure and team shapes follow the random generators of
the test suite, but live here so an edit to a test cannot shift a
workload.  Each request is resampled until a coarse cost estimate
predicts that it finishes well inside its step budget: the workloads
measure the program, not how it behaves when a budget runs out.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from tlk import syntax as S
from tlk.syntax import (
    BOT,
    TOP,
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
    dependence_signature,
    exclusion_signature,
    inclusion_signature,
    independence_signature,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
ARITIES = {"P": 1, "R": 2}
PROPS = ("p", "q")


@dataclass
class Request:
    """One request: what the client sends, plus what the checker needs.

    ``payload`` holds exactly the inputs the timed call receives
    (texts for the parsing workloads).  ``source`` holds the generated
    objects the reference verdict is computed from, independently of
    the parse in the timed path.
    """

    index: int
    kind: str
    budget: int
    payload: dict
    source: dict = field(default_factory=dict)


# Step budgets per request, far above what the cost filters admit, so
# a request that exhausts one points at a change in the program.
MC_BUDGET = 2_000_000
ORACLE_BUDGET = 3_000_000
SEARCH_BUDGET = 3_000_000

# Request kinds per workload, repeated in this order.
SCHEDULES = {
    "mc": ("team", "team", "hook", "team", "modal", "team", "team", "ptl",
           "team", "hook", "team", "team", "modal", "team", "ptl", "team"),
    "oracle": ("eta", "eta", "zeta", "eta"),
    "search": ("sat", "unsat", "valid", "tautology", "fo2", "fo2"),
}

# Cost-filter thresholds in estimated evaluator steps (team_cost,
# so_cost, ptl_cost below).
MC_TEAM_COST = 10_000.0
# Team requests estimated below this are resampled too: mostly flat
# formulas, whose time would be parsing rather than team search.
MC_TEAM_FLOOR = 100.0
ORACLE_SO_COST = 60_000.0
ORACLE_TEAM_COST = 200_000.0
# Random search requests: search_space times formula size.
SEARCH_COST = 1_000.0


# ---------------------------------------------------------------------------
# Random formulas over {P/1, R/2, =}


def fo_atom(rng: random.Random, vars_):
    t = lambda: Var(rng.choice(vars_))
    roll = rng.random()
    if roll < 0.35:
        return Pred("P", (t(),))
    if roll < 0.70:
        return Pred("R", (t(), t()))
    if roll < 0.95:
        return Eq(t(), t())
    return TOP if rng.random() < 0.5 else BOT


def dep_atom(rng: random.Random, vars_):
    t = lambda: Var(rng.choice(vars_))
    kind = rng.choice(("dep1", "dep2", "inc", "exc", "indep"))
    if kind == "dep1":
        return DepAtom(dependence_signature(1), (t(),))
    if kind == "dep2":
        return DepAtom(dependence_signature(2), (t(), t()))
    if kind == "inc":
        return DepAtom(inclusion_signature(2), (t(), t()))
    if kind == "exc":
        return DepAtom(exclusion_signature(2), (t(), t()))
    return DepAtom(independence_signature(2), (t(), t()))


def _split(rng: random.Random, size: int) -> int:
    return rng.randint(1, size - 2) if size > 2 else 1


def fo_formula(rng: random.Random, size: int, vars_):
    if size <= 1:
        return fo_atom(rng, vars_)
    roll = rng.random()
    if roll < 0.25:
        return Not(fo_formula(rng, size - 1, vars_))
    if roll < 0.85:
        k = _split(rng, size)
        op = And if roll < 0.55 else Or
        return op(fo_formula(rng, k, vars_), fo_formula(rng, size - 1 - k, vars_))
    v = rng.choice(vars_)
    body = fo_formula(rng, size - 1, vars_)
    return Exists(v, body) if rng.random() < 0.5 else Forall(v, body)


def team_formula(rng: random.Random, size: int, vars_, dep_rate: float = 0.3):
    """A random formula of the full team language over ``vars_``."""
    if size <= 1:
        if rng.random() < dep_rate:
            return dep_atom(rng, vars_)
        return fo_atom(rng, vars_)
    roll = rng.random()
    if roll < 0.18:
        return BoolNot(team_formula(rng, size - 1, vars_, dep_rate))
    if roll < 0.28:
        return Not(fo_formula(rng, size - 1, vars_))
    if roll < 0.72:
        k = _split(rng, size)
        op = And if roll < 0.50 else Or
        return op(
            team_formula(rng, k, vars_, dep_rate),
            team_formula(rng, size - 1 - k, vars_, dep_rate),
        )
    v = rng.choice(vars_)
    body = team_formula(rng, size - 1, vars_, dep_rate)
    return Exists(v, body) if rng.random() < 0.5 else Forall(v, body)


def ml_formula(rng: random.Random, size: int, md: int):
    if size <= 1:
        return Prop(rng.choice(PROPS))
    roll = rng.random()
    if md > 0 and roll < 0.30:
        body = ml_formula(rng, size - 1, md - 1)
        return S.Diamond(body) if rng.random() < 0.5 else S.Box(body)
    if roll < 0.45:
        return Not(ml_formula(rng, size - 1, md))
    k = _split(rng, size)
    op = And if roll < 0.75 else Or
    return op(ml_formula(rng, k, md), ml_formula(rng, size - 1 - k, md))


def mtl_formula(rng: random.Random, size: int, md: int):
    """A random modal team formula; with md=0 a propositional one."""
    if size <= 1:
        return Prop(rng.choice(PROPS))
    roll = rng.random()
    if md > 0 and roll < 0.30:
        body = mtl_formula(rng, size - 1, md - 1)
        return S.Diamond(body) if rng.random() < 0.5 else S.Box(body)
    if roll < 0.45:
        return BoolNot(mtl_formula(rng, size - 1, md))
    if roll < 0.58:
        return Not(ml_formula(rng, size - 1, md))
    k = _split(rng, size)
    op = And if roll < 0.80 else Or
    return op(mtl_formula(rng, k, md), mtl_formula(rng, size - 1 - k, md))


# ---------------------------------------------------------------------------
# Structures, teams and Kripke structures as plain data


def random_relations(rng: random.Random, n: int) -> dict:
    return {
        "P": frozenset((a,) for a in range(n) if rng.random() < 0.5),
        "R": frozenset(
            (a, b) for a in range(n) for b in range(n) if rng.random() < 0.5
        ),
    }


def random_rows(rng: random.Random, n: int, vars_, count: int) -> list[tuple]:
    universe = list(itertools.product(range(n), repeat=len(vars_)))
    return sorted(rng.sample(universe, min(count, len(universe))))


def random_kripke(rng: random.Random, worlds: int) -> dict:
    return {
        "worlds": worlds,
        "edges": frozenset(
            (a, b) for a in range(worlds) for b in range(worlds) if rng.random() < 0.5
        ),
        "valuation": {
            p: frozenset(w for w in range(worlds) if rng.random() < 0.5) for p in PROPS
        },
        "team": frozenset(w for w in range(worlds) if rng.random() < 0.6),
    }


def _tuples(tuples) -> str:
    body = " ".join("(" + ",".join(map(str, t)) + ")" for t in sorted(tuples))
    return "{ " + body + " }" if body else "{ }"


def model_text(n: int, relations: dict, vars_=None, rows=()) -> str:
    """A model file with the structure and, optionally, team T."""
    lines = [f"domain {n}"]
    for name in sorted(relations):
        lines.append(f"rel {name} {ARITIES[name]} {_tuples(relations[name])}")
    if vars_ is not None:
        lines.append(f"T = team {' '.join(vars_)} {_tuples(rows)}")
    return "\n".join(lines) + "\n"


def kripke_text(k: dict) -> str:
    worlds = lambda ws: "{ " + " ".join(map(str, sorted(ws))) + " }"
    clauses = [f"edges {' '.join('(%d,%d)' % e for e in sorted(k['edges']))}"]
    clauses += [f"val {p} {worlds(k['valuation'][p])}" for p in PROPS]
    clauses.append(f"team {worlds(k['team'])}")
    return f"K = kripke {k['worlds']} {{\n  " + " ;\n  ".join(clauses) + "\n}\n"


# ---------------------------------------------------------------------------
# Cost estimates (coarse upper bounds on evaluator steps)


def team_cost(phi, n: int, rows: int) -> float:
    """Direct team evaluation; ``rows`` is the team size at this node.
    By locality only the rows' values on the free variables matter."""
    r = min(rows, n ** len(S.free_vars(phi)))
    if S.is_fo(phi):
        return r * (S.size(phi) + 1.0) * (n + 1.0)
    if isinstance(phi, DepAtom):
        return r + 30.0 * n ** len(phi.args)
    if isinstance(phi, BoolNot):
        return team_cost(phi.body, n, rows)
    if isinstance(phi, And):
        return team_cost(phi.left, n, rows) + team_cost(phi.right, n, rows)
    if isinstance(phi, Or):
        sides = team_cost(phi.left, n, rows) + team_cost(phi.right, n, rows)
        return 3.0**r + 2.0**r * sides
    if isinstance(phi, (Exists, Forall)):
        body = team_cost(phi.body, n, rows * n)
        if isinstance(phi, Forall):
            return body + r
        return (2.0**n - 1.0) ** r * body
    raise TypeError(f"unexpected node {type(phi).__name__}")


def ptl_cost(phi, rows: int) -> float:
    """Team evaluation of a propositional formula on ``rows`` valuations."""
    if S.is_ml(phi):
        return float(rows)
    if isinstance(phi, BoolNot):
        return ptl_cost(phi.body, rows)
    if isinstance(phi, And):
        return ptl_cost(phi.left, rows) + ptl_cost(phi.right, rows)
    return 3.0**rows + 2.0**rows * (ptl_cost(phi.left, rows) + ptl_cost(phi.right, rows))


def so_cost(phi, n: int, arity: int) -> float:
    """Brute-force evaluation of the eta translation; ``arity`` is the
    width of the team relation at this node."""
    R = 2.0 ** (n**arity)
    if S.is_fo(phi):
        return (n**arity) * (S.size(phi) + 1.0)
    if isinstance(phi, DepAtom):
        return R * 12.0 + 30.0 * n ** len(phi.args)
    if isinstance(phi, BoolNot):
        return so_cost(phi.body, n, arity)
    if isinstance(phi, And):
        return so_cost(phi.left, n, arity) + so_cost(phi.right, n, arity)
    if isinstance(phi, Or):
        return 3.0 * R * R + R * (so_cost(phi.left, n, arity) + so_cost(phi.right, n, arity))
    if isinstance(phi, (Exists, Forall)):
        body_arity = arity if phi.var in XYZ[:arity] else arity + 1
        survivors = min(2.0 ** (n**body_arity), (2.0**n) ** (n ** (body_arity - 1)))
        return 12.0 * R + survivors * so_cost(phi.body, n, body_arity)
    raise TypeError(f"unexpected node {type(phi).__name__}")


# ---------------------------------------------------------------------------
# Workload generators


def _mc_team(rng: random.Random, hook: bool) -> dict:
    while True:
        n = rng.choice((2, 3))
        vars_ = XYZ if n == 2 else XY
        rows = random_rows(rng, n, vars_, rng.randint(4, 8))
        if hook:
            alpha = fo_formula(rng, rng.randint(1, 3), vars_)
            psi = team_formula(rng, rng.randint(2, 6), vars_)
            phi = Or(Not(alpha), And(alpha, psi))
        else:
            phi = team_formula(rng, rng.randint(3, 8), vars_)
        if MC_TEAM_FLOOR <= team_cost(phi, n, len(rows)) <= MC_TEAM_COST:
            break
    relations = random_relations(rng, n)
    return {
        "model": model_text(n, relations, vars_, rows),
        "formula": S.format_formula(phi),
    }, {"n": n, "relations": relations, "vars": vars_, "rows": rows, "phi": phi}


def _mc_modal(rng: random.Random) -> tuple[dict, dict]:
    k = random_kripke(rng, rng.randint(3, 5))
    phi = mtl_formula(rng, rng.randint(3, 8), 2)
    return {"model": kripke_text(k), "formula": S.format_formula(phi)}, {
        "kripke": k, "phi": phi,
    }


def _mc_ptl(rng: random.Random) -> tuple[dict, dict]:
    while True:
        phi = mtl_formula(rng, rng.randint(3, 7), 0)
        equality = rng.random() < 0.5
        # The reduced instance splits top | phi* over one row per
        # valuation, doubled by the choice of z in the equality variant.
        rows = 2 ** len(S.prop_names(phi)) * (2 if equality else 1)
        if 3.0**rows + 2.0**rows * ptl_cost(phi, rows) <= MC_TEAM_COST:
            break
    return {"formula": S.format_formula(phi), "equality": equality}, {"phi": phi}


def _oracle(rng: random.Random) -> tuple[dict, dict]:
    while True:
        n = rng.choice((1, 2, 2, 2, 3, 3))
        qvars = XYZ if n <= 2 and rng.random() < 0.25 else XY
        phi = team_formula(rng, rng.randint(1, 8), qvars)
        if S.free_vars(phi) - set(XY):
            continue  # z must end up bound so the team stays two-variable
        if so_cost(phi, n, 2) > ORACLE_SO_COST:
            continue
        if team_cost(phi, n, 4) > ORACLE_TEAM_COST:
            continue
        break
    relations = random_relations(rng, n)
    rows = random_rows(rng, n, XY, rng.randint(0, 4))
    return {"model": model_text(n, relations, XY, rows), "formula": S.format_formula(phi)}, {
        "n": n, "relations": relations, "rows": rows, "phi": phi,
    }


def predicate_arities(phi) -> dict:
    """The formula's own predicates: the vocabulary ``tlk sat`` and
    ``tlk valid`` search when given none."""
    return {n.name: len(n.args) for n in S.walk(phi) if isinstance(n, Pred)}


def search_space(phi, max_domain: int, teams: bool = True) -> int:
    """Structures (times teams) a bounded search over the formula's own
    vocabulary and free variables visits when it finds nothing."""
    arities = predicate_arities(phi)
    free = len(S.free_vars(phi))
    return sum(
        2 ** sum(n**a for a in arities.values()) * (2 ** (n**free) if teams else 1)
        for n in range(1, max_domain + 1)
    )


def _search(rng: random.Random, kind: str) -> tuple[dict, dict]:
    if kind in ("unsat", "tautology"):
        # psi & ~psi and psi \/ ~psi visit every pair of the space; over
        # R alone with x and y free that is 258 pairs at domain <= 2.  A
        # fixed size for psi keeps their costs close together.
        while True:
            psi = team_formula(rng, 3, XY)
            if S.free_vars(psi) == set(XY) and S.pred_names(psi) == {"R"}:
                break
        phi = And(psi, BoolNot(psi)) if kind == "unsat" else S.mk_ovee(psi, BoolNot(psi))
    else:
        dep_rate = 0.0 if kind == "fo2" else 0.3
        while True:
            phi = team_formula(rng, rng.randint(1, 6), XY, dep_rate)
            space = search_space(phi, 3, False) if kind == "fo2" else search_space(phi, 2)
            if space * (S.size(phi) + 1) <= SEARCH_COST:
                break
    return {"formula": S.format_formula(phi)}, {"phi": phi}


def make_request(workload: str, seed: int, index: int) -> Request:
    schedule = SCHEDULES[workload]
    kind = schedule[index % len(schedule)]
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "mc":
        budget = MC_BUDGET
        if kind in ("team", "hook"):
            payload, source = _mc_team(rng, kind == "hook")
        elif kind == "modal":
            payload, source = _mc_modal(rng)
        else:
            payload, source = _mc_ptl(rng)
    elif workload == "oracle":
        budget = ORACLE_BUDGET
        payload, source = _oracle(rng)
    elif workload == "search":
        budget = SEARCH_BUDGET
        payload, source = _search(rng, kind)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Request(index, kind, budget, payload, source)


def make_requests(workload: str, seed: int, count: int, start: int = 0) -> list[Request]:
    return [make_request(workload, seed, i) for i in range(start, start + count)]
