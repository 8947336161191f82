"""Disjunctive normal form for dependency-free team formulas.

Every formula of first-order team logic without dependency atoms is
equivalent to

    (a_1 & NE b_11 & ... & NE b_1k) \\/ ... \\/ (a_m & NE b_m1 & ...)

with all a_i, b_ij first-order: a Boolean disjunction (``\\/``) of
flat conjunctions guarded by nonemptiness witnesses.  ``dnf_expand``
computes such a form by structural recursion; each step is justified by
one of the nine equivalence laws exposed as ``apply_law`` (usable in
both directions, returning None when the shape does not match):

    1 and_e_over_or        a & NE b_1 & .. & NE b_n == (a & NE b_1) | .. | (a & NE b_n)
    2 or_of_and_e          (a_1 & NE b_1) | .. == (a_1 | ..) & NE (a_1 & b_1) & ..
    3 ovee_out_of_or_left  (t1 \\/ t2) | t3 == (t1 | t3) \\/ (t2 | t3)
    4 ovee_out_of_or_right t1 | (t2 \\/ t3) == (t1 | t2) \\/ (t1 | t3)
    5 exists_over_ovee     E x. (t1 \\/ t2) == (E x. t1) \\/ (E x. t2)
    6 exists_over_or       E x. (t1 | t2) == (E x. t1) | (E x. t2)
    7 exists_over_and_e    E x. (a & NE b) == (E x. a) & NE (E x. (a & b))
    8 forall_over_and      A x. (t1 & t2) == (A x. t1) & (A x. t2)
    9 forall_over_boolnot  A x. ~t == ~(A x. t)

``build_gamma`` turns a two-variable disjunct into the classical
first-order formula whose satisfiability (over the same structure)
coincides with team satisfiability of the disjunct.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as S
from .evaluator import BudgetExceeded


@dataclass(frozen=True)
class Disjunct:
    """One flat conjunction a & NE b_1 & ... & NE b_m (all first-order)."""

    alpha: S.Formula
    betas: tuple[S.Formula, ...] = ()

    def __post_init__(self):
        if not S.is_fo(self.alpha) or not all(S.is_fo(b) for b in self.betas):
            raise ValueError("disjunct parts must be first-order")

    def formula(self) -> S.Formula:
        return S.and_all([self.alpha] + [S.mk_e(b) for b in self.betas])

    def weight(self) -> int:
        return S.size(self.alpha) + sum(S.size(b) for b in self.betas)


@dataclass(frozen=True)
class DNF:
    """A Boolean disjunction of at least one disjunct."""

    disjuncts: tuple[Disjunct, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("a normal form has at least one disjunct")

    def formula(self) -> S.Formula:
        return S.ovee_all([d.formula() for d in self.disjuncts])

    def weight(self) -> int:
        return sum(d.weight() for d in self.disjuncts)


def reconstruct(dnf: DNF) -> S.Formula:
    """The team formula a normal form denotes."""
    return dnf.formula()


class _Expander:
    def __init__(self, size_budget: int | None):
        self.size_budget = size_budget

    def check(self, disjuncts: list[Disjunct]) -> list[Disjunct]:
        if self.size_budget is not None:
            total = sum(d.weight() for d in disjuncts)
            if total > self.size_budget:
                raise BudgetExceeded(
                    f"normal form grew past the size budget of {self.size_budget}"
                )
        return disjuncts

    def expand(self, phi: S.Formula) -> list[Disjunct]:
        if S.is_fo(phi):
            return [Disjunct(phi)]
        if isinstance(phi, S.DepAtom):
            raise ValueError(
                "dependency atoms have no first-order disjunctive normal form"
            )
        pair = S.as_ovee(phi)
        if pair is not None:  # a \/ b: the disjuncts of both sides
            return self.check(self.expand(pair[0]) + self.expand(pair[1]))
        if isinstance(phi, S.BoolNot):
            return self._negate(self.expand(phi.body))
        if isinstance(phi, S.And):
            return self._conjoin(self.expand(phi.left), self.expand(phi.right))
        if isinstance(phi, S.Or):
            return self._split(self.expand(phi.left), self.expand(phi.right))
        if isinstance(phi, S.Exists):
            return self.check(
                [
                    Disjunct(
                        S.Exists(phi.var, d.alpha),
                        tuple(S.Exists(phi.var, S.And(d.alpha, b)) for b in d.betas),
                    )
                    for d in self.expand(phi.body)
                ]
            )
        if isinstance(phi, S.Forall):
            return self.check(
                [
                    Disjunct(
                        S.Forall(phi.var, d.alpha),
                        tuple(S.Exists(phi.var, b) for b in d.betas),
                    )
                    for d in self.expand(phi.body)
                ]
            )
        raise ValueError(f"not a team-logic formula: {S.format_formula(phi)}")

    def _negate(self, disjuncts: list[Disjunct]) -> list[Disjunct]:
        """~(d_1 \\/ ... \\/ d_k) = ~d_1 & ... & ~d_k, each ~d expanded."""
        out: list[Disjunct] | None = None
        for d in disjuncts:
            negated = [Disjunct(S.TOP, (S.Not(d.alpha),))] + [
                Disjunct(S.Not(b)) for b in d.betas
            ]
            out = negated if out is None else self._conjoin(out, negated)
        return self.check(out)

    def _conjoin(self, left: list[Disjunct], right: list[Disjunct]) -> list[Disjunct]:
        return self.check(
            [
                Disjunct(S.And(d1.alpha, d2.alpha), d1.betas + d2.betas)
                for d1 in left
                for d2 in right
            ]
        )

    def _split(self, left: list[Disjunct], right: list[Disjunct]) -> list[Disjunct]:
        return self.check(
            [
                Disjunct(
                    S.Or(d1.alpha, d2.alpha),
                    tuple(S.And(d1.alpha, b) for b in d1.betas)
                    + tuple(S.And(d2.alpha, c) for c in d2.betas),
                )
                for d1 in left
                for d2 in right
            ]
        )


def dnf_expand(phi: S.Formula, size_budget: int | None = None) -> DNF:
    """Expand a dependency-free team formula into normal form.

    ``size_budget`` caps the total node weight of the growing form
    (the expansion can be exponential); exceeding it raises
    :class:`BudgetExceeded`.
    """
    S.check_language(phi, "team")
    return DNF(tuple(_Expander(size_budget).expand(phi)))


# ---------------------------------------------------------------------------
# The nine laws, applicable at the root in either direction


def _chain(cls: type, phi: S.Formula) -> list[S.Formula]:
    """The operands of a left-associated chain of cls nodes, in order."""
    out = []
    while isinstance(phi, cls):
        out.append(phi.right)
        phi = phi.left
    out.append(phi)
    return out[::-1]


def _guarded_chain(phi: S.Formula) -> list[tuple[S.Formula, S.Formula]] | None:
    """The pairs (a_i, b_i) of a chain (a_1 & NE b_1) | ... | (a_n & NE b_n)
    with first-order a_i and b_i, or None when phi has another shape."""
    parts = []
    for item in _chain(S.Or, phi):
        if not isinstance(item, S.And):
            return None
        beta = S.as_e(item.right)
        if beta is None or not S.is_fo(item.left) or not S.is_fo(beta):
            return None
        parts.append((item.left, beta))
    return parts


def _law1(phi: S.Formula, forward: bool) -> S.Formula | None:
    if forward:
        # a & NE b_1 & ... & NE b_n  ->  (a & NE b_1) | ... | (a & NE b_n)
        chain = _chain(S.And, phi)
        if len(chain) < 2:
            return None
        alpha, es = chain[0], chain[1:]
        if not S.is_fo(alpha):
            return None
        betas = [S.as_e(e) for e in es]
        if any(b is None or not S.is_fo(b) for b in betas):
            return None
        return S.or_all([S.And(alpha, S.mk_e(b)) for b in betas])
    parts = _guarded_chain(phi)
    if parts is None or any(a != parts[0][0] for a, _ in parts):
        return None
    return S.and_all([parts[0][0]] + [S.mk_e(b) for _, b in parts])


def _law2(phi: S.Formula, forward: bool) -> S.Formula | None:
    if forward:
        # (a_1 & NE b_1) | ... -> (a_1 | ...) & NE (a_1 & b_1) & ...
        parts = _guarded_chain(phi)
        if parts is None:
            return None
        return S.and_all(
            [S.or_all([a for a, _ in parts])]
            + [S.mk_e(S.And(a, b)) for a, b in parts]
        )
    chain = _chain(S.And, phi)
    if len(chain) < 2:
        return None
    alphas = _chain(S.Or, chain[0])
    es = chain[1:]
    if len(alphas) != len(es):
        return None
    parts = []
    for a, e in zip(alphas, es):
        body = S.as_e(e)
        if body is None or not isinstance(body, S.And) or body.left != a:
            return None
        if not S.is_fo(a) or not S.is_fo(body.right):
            return None
        parts.append((a, body.right))
    return S.or_all([S.And(a, S.mk_e(b)) for a, b in parts])


def _ovee_out_of_or(left: bool):
    """Laws 3 (``left``) and 4: a \\/ on that side of a | distributes over
    the | with the other side held fixed."""

    def split(o):  # (the distributed side, the fixed side)
        return (o.left, o.right) if left else (o.right, o.left)

    def join(t, fixed):
        return S.Or(t, fixed) if left else S.Or(fixed, t)

    def law(phi: S.Formula, forward: bool) -> S.Formula | None:
        if forward:
            if not isinstance(phi, S.Or):
                return None
            inner, fixed = split(phi)
            pair = S.as_ovee(inner)
            return None if pair is None else S.mk_ovee(join(pair[0], fixed), join(pair[1], fixed))
        pair = S.as_ovee(phi)
        if pair is None or not all(isinstance(o, S.Or) for o in pair):
            return None
        (a, c), (b, d) = split(pair[0]), split(pair[1])
        return join(S.mk_ovee(a, b), c) if c == d else None

    return law


def _law7(phi: S.Formula, forward: bool) -> S.Formula | None:
    if forward:
        # E x. (a & NE b) -> (E x. a) & NE (E x. (a & b))
        if not isinstance(phi, S.Exists) or not isinstance(phi.body, S.And):
            return None
        alpha = phi.body.left
        beta = S.as_e(phi.body.right)
        if beta is None or not S.is_fo(alpha) or not S.is_fo(beta):
            return None
        return S.And(
            S.Exists(phi.var, alpha),
            S.mk_e(S.Exists(phi.var, S.And(alpha, beta))),
        )
    if not isinstance(phi, S.And) or not isinstance(phi.left, S.Exists):
        return None
    body = S.as_e(phi.right)
    if body is None or not isinstance(body, S.Exists) or body.var != phi.left.var:
        return None
    inner = body.body
    if not isinstance(inner, S.And) or inner.left != phi.left.body:
        return None
    if not S.is_fo(inner.left) or not S.is_fo(inner.right):
        return None
    return S.Exists(phi.left.var, S.And(inner.left, S.mk_e(inner.right)))


def _law9(phi: S.Formula, forward: bool) -> S.Formula | None:
    if forward:
        if not isinstance(phi, S.Forall) or not isinstance(phi.body, S.BoolNot):
            return None
        return S.BoolNot(S.Forall(phi.var, phi.body.body))
    if not isinstance(phi, S.BoolNot) or not isinstance(phi.body, S.Forall):
        return None
    return S.Forall(phi.body.var, S.BoolNot(phi.body.body))


def _quantifier_law(cls: type, operands, join):
    """The law  cls x. join(t1, t2) == join(cls x. t1, cls x. t2), where
    ``operands`` matches a join and returns (t1, t2), or None."""

    def law(phi: S.Formula, forward: bool) -> S.Formula | None:
        if forward:
            pair = operands(phi.body) if isinstance(phi, cls) else None
            return None if pair is None else join(cls(phi.var, pair[0]), cls(phi.var, pair[1]))
        pair = operands(phi)
        if pair is None:
            return None
        left, right = pair
        if isinstance(left, cls) and isinstance(right, cls) and left.var == right.var:
            return cls(left.var, join(left.body, right.body))
        return None

    return law


def _operands_of(cls: type):
    return lambda phi: (phi.left, phi.right) if isinstance(phi, cls) else None


LAWS = {
    1: ("and_e_over_or", _law1),
    2: ("or_of_and_e", _law2),
    3: ("ovee_out_of_or_left", _ovee_out_of_or(True)),
    4: ("ovee_out_of_or_right", _ovee_out_of_or(False)),
    5: ("exists_over_ovee", _quantifier_law(S.Exists, S.as_ovee, S.mk_ovee)),
    6: ("exists_over_or", _quantifier_law(S.Exists, _operands_of(S.Or), S.Or)),
    7: ("exists_over_and_e", _law7),
    8: ("forall_over_and", _quantifier_law(S.Forall, _operands_of(S.And), S.And)),
    9: ("forall_over_boolnot", _law9),
}


def apply_law(index: int, phi: S.Formula, direction: str = "lr") -> S.Formula | None:
    """Rewrite phi at the root by one of the nine laws.

    ``direction`` is ``"lr"`` (left-to-right as listed) or ``"rl"``.
    Returns the rewritten formula, or None when the root does not match
    the law's shape.
    """
    if index not in LAWS:
        raise ValueError(f"law index must be 1..9, got {index}")
    if direction not in ("lr", "rl"):
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    return LAWS[index][1](phi, direction == "lr")


# ---------------------------------------------------------------------------
# Two-variable satisfiability transfer


def build_gamma(disjunct: Disjunct) -> S.Formula:
    """The classical sentence whose satisfiability matches the disjunct's.

    For a disjunct over the variables {x, y}, gamma is the conjunction
    of E x. E y. (a & b_i) over its witnesses; a structure satisfies
    gamma exactly when some team over it satisfies the disjunct (the
    empty team handles the witness-free case, so gamma is then top).
    """
    used = S.all_vars(disjunct.alpha)
    for b in disjunct.betas:
        used |= S.all_vars(b)
    extra = used - {"x", "y"}
    if extra:
        raise ValueError(f"disjunct uses variables {sorted(extra)} beyond x, y")
    if not disjunct.betas:
        return S.TOP
    return S.and_all(
        [
            S.Exists("x", S.Exists("y", S.And(disjunct.alpha, b)))
            for b in disjunct.betas
        ]
    )
