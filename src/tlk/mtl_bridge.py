"""Standard translation of modal team logic and reductions into FO teams.

``standard_translation`` maps a modal team formula to a first-order team
formula over the vocabulary {R/2} + one unary predicate per proposition:
diamonds become guarded existentials, boxes become hooked universals
(!R(x,y) | (R(x,y) & ...)), and the proposition p turns into the
predicate P(x).  ``interpret_kripke``/``lift_team`` build the matching
first-order structure and team, so that

    (K, T) |= phi   iff   (A(K), T^x) |= st_x(phi),

and ``reverse_interpret`` walks back from any structure of that
vocabulary shape to a Kripke model.

``reduce_ptl_mc_to_fo_mc`` packages that equivalence for modality-free
(propositional team) formulas, where the output is quantifier-free with
one variable.  ``reduce_ptl_sat_to_mc`` maps propositional-team
satisfiability to a single model-checking instance over the two-element
structure: with equality, props become x_i = z under an outer E z; with
a unary predicate instead, props become P(x_i) and the E z is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax as S
from .structures import KripkeStructure, Structure, Team
from .syntax import Vocabulary


EDGE_REL = "R"


def _pred_name(prop: str) -> str:
    return prop[0].upper() + prop[1:]


def _prop_name(pred: str) -> str:
    return pred[0].lower() + pred[1:]


def _check_prop_names(props) -> dict[str, str]:
    """Map props to predicate names, rejecting collisions with each other
    or with the edge relation."""
    mapping: dict[str, str] = {}
    used: dict[str, str] = {}
    for p in sorted(props):
        name = _pred_name(p)
        if name == EDGE_REL:
            raise ValueError(
                f"proposition {p!r} would collide with the edge relation {EDGE_REL!r}"
            )
        if name in used:
            raise ValueError(
                f"propositions {used[name]!r} and {p!r} collide on predicate {name!r}"
            )
        used[name] = p
        mapping[p] = name
    return mapping


def _other(var: str) -> str:
    return "y" if var != "y" else "x"


def standard_translation(phi: S.Formula, var: str = "x") -> S.Formula:
    """st_var(phi): the first-order team formula equivalent over A(K).

    Uses the two variables ``var`` and its partner (x alternates with y),
    so the output always has width at most 2.
    """
    S.check_language(phi, "mtl")
    mapping = _check_prop_names(S.prop_names(phi))
    vs = tuple(dict.fromkeys((var, "x", "y")))  # every variable the translation meets

    def combine(node: S.Formula, below) -> dict[str, S.Formula]:
        """st_v(node) for each v in vs, from the same of the children."""
        if isinstance(node, S.Prop):
            return {v: S.Pred(mapping[node.name], (S.Var(v),)) for v in vs}
        if isinstance(node, (S.Diamond, S.Box)):
            return {v: _step(node, v, _other(v), below[0][_other(v)]) for v in vs}
        return {v: S.rebuild(node, [b[v] for b in below]) for v in vs}

    return S.fold(phi, combine)[var]


def _step(modality: S.Formula, v: str, o: str, body: S.Formula) -> S.Formula:
    """st_v of a diamond or box whose body translates to ``body`` at o."""
    edge = S.Pred(EDGE_REL, (S.Var(v), S.Var(o)))
    if isinstance(modality, S.Diamond):
        return S.Exists(o, S.And(edge, body))
    return S.Forall(o, S.Or(S.Not(edge), S.And(edge, body)))


def kripke_vocabulary(props) -> Vocabulary:
    """{R/2} plus one unary predicate per proposition."""
    mapping = _check_prop_names(props)
    preds = {EDGE_REL: 2}
    preds.update({name: 1 for name in mapping.values()})
    return Vocabulary(predicates=preds)


def interpret_kripke(kripke: KripkeStructure) -> Structure:
    """A(K): worlds as domain, edges as R, valuations as unary predicates."""
    mapping = _check_prop_names(kripke.valuation)
    relations: dict = {EDGE_REL: frozenset(kripke.edges)}
    arities = {EDGE_REL: 2}
    for prop, name in mapping.items():
        relations[name] = frozenset((w,) for w in kripke.valuation[prop])
        arities[name] = 1
    return Structure(kripke.worlds, relations, arities=arities)


def lift_team(team, var: str = "x") -> Team:
    """T^x: the world team as a team of one-variable assignments."""
    return Team.from_tuples((var,), [(w,) for w in team])


def reverse_interpret(structure: Structure, team: Team) -> tuple[KripkeStructure, frozenset[int]]:
    """Invert ``interpret_kripke``/``lift_team``.

    The structure must consist of the binary edge relation R and unary
    predicates only, and the team must be over exactly one variable.
    """
    if structure.functions:
        raise ValueError("a Kripke-shaped structure has no functions")
    if EDGE_REL not in structure.relations:
        raise ValueError(f"missing edge relation {EDGE_REL!r}")
    if structure.arities[EDGE_REL] != 2:
        raise ValueError(f"edge relation {EDGE_REL!r} must be binary")
    valuation: dict[str, frozenset[int]] = {}
    for name, tuples in structure.relations.items():
        if name == EDGE_REL:
            continue
        if structure.arities[name] != 1:
            raise ValueError(f"predicate {name!r} must be unary to name a proposition")
        prop = _prop_name(name)
        if _pred_name(prop) != name:
            raise ValueError(f"predicate {name!r} does not round-trip to a proposition")
        valuation[prop] = frozenset(t[0] for t in tuples)
    kripke = KripkeStructure(structure.domain_size, structure.relations[EDGE_REL], valuation)
    if len(team.domain) != 1:
        raise ValueError("a lifted world team has exactly one variable")
    var = team.domain[0]
    worlds = frozenset(s.get(var) for s in team.rows)
    return kripke, worlds


# ---------------------------------------------------------------------------
# Reductions


@dataclass
class ReducedInstance:
    """A model-checking instance produced by a reduction."""

    structure: Structure
    team: Team
    formula: S.Formula
    vocabulary: Vocabulary
    prop_vars: dict[str, str] = field(default_factory=dict)


def reduce_ptl_mc_to_fo_mc(
    kripke: KripkeStructure, team, phi: S.Formula
) -> ReducedInstance:
    """Propositional-team model checking as first-order team model checking.

    The output formula is quantifier-free and uses the single variable x.
    """
    S.check_language(phi, "mtl")
    if S.modal_depth(phi) != 0:
        raise ValueError("this reduction expects a modality-free formula")
    missing = S.prop_names(phi) - set(kripke.valuation)
    if missing:
        raise ValueError(f"Kripke structure does not value propositions {sorted(missing)}")
    structure = interpret_kripke(kripke)
    return ReducedInstance(
        structure=structure,
        team=lift_team(team),
        formula=standard_translation(phi, "x"),
        vocabulary=structure.vocabulary(),
    )


def reduce_ptl_sat_to_mc(phi: S.Formula, equality: bool = True) -> ReducedInstance:
    """Propositional-team satisfiability as one model-checking instance.

    Over the two-element domain {0,1} the variables x1..xn (one per
    proposition, sorted) simulate valuations: a team over them is a set
    of valuations.  The formula

        E z. A x1. ... A xn. (top | phi*)        (equality variant)
        A x1. ... A xn. (top | phi*)             (predicate variant)

    holds on ({0,1}, {empty assignment}) exactly when some team of
    valuations satisfies phi; phi* replaces p_i by x_i = z, or by P(x_i)
    with P = {1} in the predicate variant.
    """
    S.check_language(phi, "mtl")
    if S.modal_depth(phi) != 0:
        raise ValueError("this reduction expects a modality-free formula")
    props = sorted(S.prop_names(phi))
    prop_vars = {p: f"x{i+1}" for i, p in enumerate(props)}
    if equality:
        mapping = {p: S.Eq(S.Var(v), S.Var("z")) for p, v in prop_vars.items()}
        structure = Structure(2)
        vocab = Vocabulary(predicates={}, equality_enabled=True)
    else:
        mapping = {p: S.Pred("P", (S.Var(v),)) for p, v in prop_vars.items()}
        structure = Structure(2, {"P": frozenset(((1,),))})
        vocab = Vocabulary(predicates={"P": 1}, equality_enabled=False)
    body = S.Or(S.TOP, subst_props_fo(phi, mapping))
    psi = S.forall_all([prop_vars[p] for p in props], body)
    if equality:
        psi = S.Exists("z", psi)
    return ReducedInstance(
        structure=structure,
        team=Team.unit(),
        formula=psi,
        vocabulary=vocab,
        prop_vars=prop_vars,
    )


_PTL = (S.Not, S.BoolNot, S.And, S.Or)  # the connectives of modality-free formulas


def subst_props_fo(phi: S.Formula, mapping: dict[str, S.Formula]) -> S.Formula:
    """Replace props by first-order atoms in a modality-free team formula."""

    def combine(node: S.Formula, kids) -> S.Formula:
        if isinstance(node, S.Prop):
            try:
                return mapping[node.name]
            except KeyError:
                raise ValueError(f"no replacement for proposition {node.name!r}") from None
        if kids or isinstance(node, (S.Top, S.Bot)):
            return S.rebuild(node, kids)
        raise ValueError(f"not a modality-free team formula: {S.format_formula(node)}")

    # other nodes are leaves here, so the first offender met is the first in reading order
    return S.fold(phi, combine, lambda node: S.children(node) if isinstance(node, _PTL) else ())

