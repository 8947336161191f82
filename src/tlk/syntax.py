"""Formula ASTs, vocabularies, dependency signatures, parser and printer.

Four surface languages share one node pool:

* ``fo``   -- classical first-order logic (``!`` negation anywhere),
* ``team`` -- first-order team logic: FO leaves, dependency atoms,
  Boolean negation ``~``, splitjunction ``|``, quantifiers,
* ``mtl``  -- modal team logic over propositions, ``<>`` and ``[]``,
* ``so``   -- second-order logic with relation/function quantifiers,
  sparse relation quantifiers, and ``->``/``<->`` sugar.

The surface grammar (whitespace-insensitive)::

    formula := prefix* atom { binary atom }
    prefix  := '~' | '!' | ('E'|'A') ident '.'
    binary  := '\\/' | '|' | '&'              # loosest first
    atom    := ident '(' term {',' term} ')' | term '=' term
             | 'NE' atom | '(' formula ')' | 'top' | 'bot'

MTL adds ``<>``/``[]`` prefixes and bare proposition identifiers; SO adds
``E2 X:k. f`` / ``A2 X:k. f`` relation quantifiers, ``Ef f:k. f`` /
``Af f:k. f`` function quantifiers, sparse forms ``Ep[poly:1,2] X:k. f``
and ``Ap[scaled:4,2] X:k. f``, and the connectives ``<->`` and ``->``,
which bind more loosely than ``\\/``.  ``->`` is right associative, the
other binary operators left associative.  Prefix operators take maximal
scope; the printer inserts parentheses accordingly.  ``a \\/ b``
abbreviates ``~(~a & ~b)`` and ``NE b`` abbreviates ``~!b``; both are
expanded at parse time and recognised again when printing.  One table,
``_OPERATORS``, gives each operator's symbol, node, binding level,
associativity and the languages that reject it; the parser and the
printer both read it.

The parser reads runs of prefix operators and chains of binary
operators in loops; text nested more than ``MAX_TEAM_DEPTH`` levels
deep, counting parentheses and function applications, raises
``NestingTooDeep``.

The bottom-up passes (the measures, the free-name sets, the printer and
the rebuilds such as ``subst_pred_by_relvar``) run on ``fold``, which
walks with an explicit stack and combines each distinct node object
once.  They take formulas of any depth, and a formula that shares
subformulas, like the negation normal form of nested ``<->``, costs its
distinct nodes rather than the size of its tree.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, NamedTuple


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    """A first-order variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Func:
    """A function application; constants are applications with no arguments."""

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


Term = Var | Func


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return frozenset(out)


def term_functions(t: Term) -> frozenset[tuple[str, int]]:
    """The (name, arity) of every function application in a term."""
    if isinstance(t, Var):
        return frozenset()
    out = {(t.name, len(t.args))}
    for a in t.args:
        out |= term_functions(a)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Sparse bounds


@dataclass(frozen=True)
class SparseBound:
    """Cardinality bound p(n) carried by a sparse relation quantifier.

    Exactly one representation is populated: ``coeffs`` for a polynomial
    c0 + c1*n + ... (lowest degree first), or ``factor``/``power`` for
    the scaled power form factor * n**power (the |T| * n^m shape).
    All entries are nonnegative, which keeps p monotone.
    """

    coeffs: tuple[int, ...] | None = None
    factor: int | None = None
    power: int | None = None

    def __post_init__(self):
        poly = self.coeffs is not None
        scaled = self.factor is not None or self.power is not None
        if poly == scaled:
            raise ValueError("SparseBound needs coeffs or factor/power, not both")
        if poly:
            if not self.coeffs or any(c < 0 for c in self.coeffs):
                raise ValueError("polynomial coefficients must be nonnegative")
        else:
            if self.factor is None or self.power is None:
                raise ValueError("scaled form needs both factor and power")
            if self.factor < 0 or self.power < 0:
                raise ValueError("factor and power must be nonnegative")

    @classmethod
    def polynomial(cls, coeffs) -> "SparseBound":
        return cls(coeffs=tuple(coeffs))

    @classmethod
    def scaled_power(cls, factor: int, power: int) -> "SparseBound":
        """The |T| * n^m form with a concrete factor."""
        return cls(factor=factor, power=power)

    @classmethod
    def from_string(cls, text: str) -> "SparseBound":
        """Parse ``poly:c0,c1,...`` or ``scaled:F,M``."""
        kind, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"bad sparse bound {text!r}")
        try:
            nums = [int(p) for p in rest.split(",")]
        except ValueError:
            raise ValueError(f"bad sparse bound {text!r}") from None
        return cls.of_kind(kind, nums)

    @classmethod
    def of_kind(cls, kind: str, nums) -> "SparseBound":
        """The bound ``poly`` or ``scaled`` with the given numbers."""
        if kind == "poly":
            return cls.polynomial(nums)
        if kind == "scaled":
            if len(nums) != 2:
                raise ValueError("scaled bound takes exactly factor,power")
            return cls.scaled_power(*nums)
        raise ValueError(f"unknown sparse bound kind {kind!r}")

    def value(self, n: int) -> int:
        if self.coeffs is not None:
            return sum(c * n**i for i, c in enumerate(self.coeffs))
        return self.factor * n**self.power

    def __str__(self) -> str:
        if self.coeffs is not None:
            return "poly:" + ",".join(str(c) for c in self.coeffs)
        return f"scaled:{self.factor},{self.power}"


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class of all formula nodes."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Pred(Formula):
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class Not(Formula):
    """Classical negation; in team/modal languages only on flat leaves."""

    body: Formula


@dataclass(frozen=True)
class BoolNot(Formula):
    """Boolean (contradictory) negation on teams, surface ``~``."""

    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    """Splitjunction in team languages, plain disjunction in fo/so."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class DepAtom(Formula):
    """A generalized dependency atom with its resolved signature."""

    dep: "DependencySignature"
    args: tuple = ()


@dataclass(frozen=True)
class Prop(Formula):
    """A propositional atom of the modal languages."""

    name: str


@dataclass(frozen=True)
class Diamond(Formula):
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
class RelApp(Formula):
    """Application of a second-order relation variable."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsRel(Formula):
    name: str
    arity: int
    body: Formula


@dataclass(frozen=True)
class ForallRel(Formula):
    name: str
    arity: int
    body: Formula


@dataclass(frozen=True)
class ExistsFun(Formula):
    name: str
    arity: int
    body: Formula


@dataclass(frozen=True)
class ForallFun(Formula):
    name: str
    arity: int
    body: Formula


@dataclass(frozen=True)
class ExistsRelSparse(Formula):
    name: str
    arity: int
    bound: SparseBound
    body: Formula


@dataclass(frozen=True)
class ForallRelSparse(Formula):
    name: str
    arity: int
    bound: SparseBound
    body: Formula


_UNARY = (Not, BoolNot, Diamond, Box)
_BINARY = (And, Or, Implies, Iff)
_FO_QUANT = (Exists, Forall)
_SPARSE_QUANT = (ExistsRelSparse, ForallRelSparse)
_SO_QUANT = (ExistsRel, ForallRel, ExistsFun, ForallFun) + _SPARSE_QUANT

# The dual of each connective and quantifier under classical negation.
_DUAL_PAIRS = (
    (And, Or), (Exists, Forall), (ExistsRel, ForallRel), (ExistsFun, ForallFun),
    (ExistsRelSparse, ForallRelSparse),
)
DUALS = {**dict(_DUAL_PAIRS), **{b: a for a, b in _DUAL_PAIRS}}


# The number of formula children of each node class; leaves have none.
_ARITY = {**{cls: 1 for cls in _UNARY + _FO_QUANT + _SO_QUANT}, **{cls: 2 for cls in _BINARY}}


def children(phi: Formula) -> tuple[Formula, ...]:
    """Immediate formula children of a node."""
    arity = _ARITY.get(type(phi))
    if arity == 1:
        return (phi.body,)
    if arity == 2:
        return (phi.left, phi.right)
    return ()


def map_children(phi: Formula, fn, cls: type | None = None) -> Formula:
    """Rebuild phi with every formula child c replaced by fn(c).

    ``cls`` builds the node as another class of the same shape (e.g. a
    connective's dual); leaves have no children and come back unchanged.
    """
    make = cls or type(phi)
    if isinstance(phi, _BINARY):
        return make(fn(phi.left), fn(phi.right))
    if isinstance(phi, _UNARY):
        return make(fn(phi.body))
    if isinstance(phi, _FO_QUANT):
        return make(phi.var, fn(phi.body))
    if isinstance(phi, _SPARSE_QUANT):
        return make(phi.name, phi.arity, phi.bound, fn(phi.body))
    if isinstance(phi, _SO_QUANT):
        return make(phi.name, phi.arity, fn(phi.body))
    return phi


def rebuild(phi: Formula, kids) -> Formula:
    """phi with its formula children replaced by ``kids``, in order."""
    replacements = iter(kids)
    return map_children(phi, lambda _: next(replacements))


def fold(phi: Formula, combine, operands=children):
    """Fold phi bottom-up to the root's value: ``combine(node, values of its
    operands)`` runs once per distinct node object, post-order and left to
    right, on an explicit stack.  Nodes are told apart by ``id``, so
    ``operands`` (default: the children) must return subformulas of phi."""
    kids = operands(phi)
    if not kids:
        return combine(phi, ())
    done = {}
    stack = [(phi, kids, 0)]  # an inner node, its operands, the next to look at
    while stack:
        node, kids, i = stack.pop()
        n = len(kids)
        while i < n:
            c = kids[i]
            i += 1
            if id(c) not in done:
                below = operands(c)
                if below:  # an inner node: come back here once it is done
                    stack.append((node, kids, i))
                    stack.append((c, below, 0))
                    break
                done[id(c)] = combine(c, ())  # a leaf is combined at once
        else:  # the values of one or two operands go in a tuple made directly
            if n == 1:
                values = (done[id(kids[0])],)
            elif n == 2:
                values = (done[id(kids[0])], done[id(kids[1])])
            else:
                values = [done[id(c)] for c in kids]
            done[id(node)] = combine(node, values)
    return done[id(phi)]


# ---------------------------------------------------------------------------
# Dependencies


@dataclass(frozen=True)
class DependencySignature:
    """A named k-ary dependency with its defining sentence over {P, =}.

    The sentence must be a closed first-order formula mentioning only the
    predicate ``P`` (of the signature's arity) and equality.
    """

    name: str
    arity: int
    delta: Formula

    def __post_init__(self):
        problems = _check_delta(self.delta, self.arity)
        if problems:
            raise ValueError(f"bad dependency {self.name!r}: {problems}")


def _check_delta(delta: Formula, arity: int) -> str | None:
    if not is_fo(delta):
        return "defining sentence must be first-order"
    if free_vars(delta):
        return "defining sentence must be closed"
    for node in walk(delta):
        if isinstance(node, Pred):
            if node.name != "P":
                return f"defining sentence mentions predicate {node.name!r}"
            if len(node.args) != arity:
                return f"P used with arity {len(node.args)}, expected {arity}"
            if any(isinstance(a, Func) for a in node.args):
                return "defining sentence must not use function symbols"
        elif isinstance(node, Eq):
            if isinstance(node.left, Func) or isinstance(node.right, Func):
                return "defining sentence must not use function symbols"
    return None


def walk(phi: Formula):
    """Yield every node of the formula tree, root first, then each
    child's subtree from left to right (an explicit stack, so deep
    formulas cost no recursion)."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node)[::-1])


class UnknownDependencyError(KeyError):
    """Raised when no dependency of the requested name/arity is registered."""

    def __str__(self) -> str:  # KeyError quotes its payload by default
        return self.args[0] if self.args else ""


def _vars(names) -> tuple:
    return tuple(Var(n) for n in names)


def forall_all(names, body: Formula) -> Formula:
    for n in reversed(tuple(names)):
        body = Forall(n, body)
    return body


def exists_all(names, body: Formula) -> Formula:
    for n in reversed(tuple(names)):
        body = Exists(n, body)
    return body


@lru_cache(maxsize=None)
def dependence_signature(arity: int) -> DependencySignature:
    """The paper's dependence atom dep(t1,...,tk): the last term is a
    function of the others.  delta_k(P) = Ax1..x_{k-1} Ay Az
    (Px'y & Px'z -> y=z), written without the arrow."""
    if arity < 1:
        raise UnknownDependencyError("dep needs arity >= 1")
    xs = [f"u{i}" for i in range(arity - 1)]
    left = Pred("P", _vars(xs + ["v"]))
    right = Pred("P", _vars(xs + ["w"]))
    body = Or(Or(Not(left), Not(right)), Eq(Var("v"), Var("w")))
    return DependencySignature("dep", arity, forall_all(xs + ["v", "w"], body))


def _occurrences(arity: int, name: str):
    """For inc and exc, over halves of m = arity/2 places: the variables
    u0..u(m-1), and the sentences that they occur as the first half of a
    P-tuple and as its second half."""
    m = _half(arity, name)
    xs = [f"u{i}" for i in range(m)]
    ys = [f"v{i}" for i in range(m)]
    ws = [f"w{i}" for i in range(m)]
    return xs, exists_all(ys, Pred("P", _vars(xs + ys))), exists_all(ws, Pred("P", _vars(ws + xs)))


@lru_cache(maxsize=None)
def inclusion_signature(arity: int) -> DependencySignature:
    """inc(t1..tm, u1..um): every value of the first half occurs as a
    value of the second half."""
    xs, as_left, as_right = _occurrences(arity, "inc")
    return DependencySignature("inc", arity, forall_all(xs, Or(Not(as_left), as_right)))


@lru_cache(maxsize=None)
def exclusion_signature(arity: int) -> DependencySignature:
    """exc(t1..tm, u1..um): the two halves take disjoint value sets."""
    xs, as_left, as_right = _occurrences(arity, "exc")
    return DependencySignature("exc", arity, forall_all(xs, Or(Not(as_left), Not(as_right))))


@lru_cache(maxsize=None)
def independence_signature(arity: int) -> DependencySignature:
    """indep(t1..tm, u1..um): the halves vary independently
    (Pxy & Puv -> Pxv, without the arrow)."""
    m = _half(arity, "indep")
    xs = [f"u{i}" for i in range(m)]
    ys = [f"v{i}" for i in range(m)]
    us = [f"w{i}" for i in range(m)]
    vs = [f"r{i}" for i in range(m)]
    body = Or(
        Or(Not(Pred("P", _vars(xs + ys))), Not(Pred("P", _vars(us + vs)))),
        Pred("P", _vars(xs + vs)),
    )
    return DependencySignature("indep", arity, forall_all(xs + ys + us + vs, body))


def _half(arity: int, name: str) -> int:
    if arity < 2 or arity % 2:
        raise UnknownDependencyError(f"{name} needs a positive even arity")
    return arity // 2


_BUILTIN_FAMILIES = {
    "dep": dependence_signature,
    "inc": inclusion_signature,
    "exc": exclusion_signature,
    "indep": independence_signature,
}


class DependencyRegistry:
    """Resolves dependency-atom names to signatures.

    Holds fixed signatures (e.g. from a sidecar file) and, unless
    disabled, falls back to the arity-polymorphic builtin families
    dep/inc/exc/indep.
    """

    def __init__(self, signatures=(), include_builtins: bool = True):
        self.fixed: dict[str, DependencySignature] = {}
        self.include_builtins = include_builtins
        for sig in signatures:
            self.register(sig)

    def register(self, sig: DependencySignature) -> None:
        self.fixed[sig.name] = sig

    def resolve(self, name: str, arity: int) -> DependencySignature:
        if name in self.fixed:
            sig = self.fixed[name]
            if sig.arity != arity:
                raise UnknownDependencyError(
                    f"dependency {name!r} has arity {sig.arity}, not {arity}"
                )
            return sig
        if self.include_builtins and name in _BUILTIN_FAMILIES:
            return _BUILTIN_FAMILIES[name](arity)
        raise UnknownDependencyError(f"unknown dependency {name!r}")

    def knows(self, name: str) -> bool:
        return name in self.fixed or (
            self.include_builtins and name in _BUILTIN_FAMILIES
        )


# ---------------------------------------------------------------------------
# Vocabularies


@dataclass
class Vocabulary:
    """Predicate and function symbols with arities, plus equality.

    A vocabulary always contains at least one predicate or equality.
    The dependency registry rides along so that parsing can resolve
    dependency atoms; it defaults to the builtin families.
    """

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    equality_enabled: bool = True
    dependencies: DependencyRegistry = field(default_factory=DependencyRegistry)

    def __post_init__(self):
        dup = set(self.predicates) & set(self.functions)
        if dup:
            raise ValueError(f"names used as both predicate and function: {sorted(dup)}")
        for name, ar in {**self.predicates, **self.functions}.items():
            if ar < 0:
                raise ValueError(f"negative arity for {name!r}")
        if not self.predicates and not self.equality_enabled:
            raise ValueError("vocabulary needs at least one predicate or equality")

    @property
    def relational(self) -> bool:
        return not self.functions


def parse_vocabulary(text: str) -> Vocabulary:
    """Load a sidecar vocabulary file.

    One declaration per line: ``pred NAME ARITY``, ``func NAME ARITY``,
    ``dependency NAME ARITY "FO sentence over P"``, or ``equality on|off``.
    ``#`` starts a comment.
    """
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    registry = DependencyRegistry()
    equality = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"bad vocabulary line: {exc}", lineno, 1) from None
        kind = parts[0]
        try:
            if kind == "pred" and len(parts) == 3:
                preds[parts[1]] = int(parts[2])
            elif kind == "func" and len(parts) == 3:
                funcs[parts[1]] = int(parts[2])
            elif kind == "equality" and len(parts) == 2 and parts[1] in ("on", "off"):
                equality = parts[1] == "on"
            elif kind == "dependency" and len(parts) == 4:
                name, arity, sentence = parts[1], int(parts[2]), parts[3]
                delta_vocab = Vocabulary(predicates={"P": arity})
                delta = parse(sentence, "fo", delta_vocab)
                registry.register(DependencySignature(name, arity, delta))
            else:
                raise ValueError(f"unrecognised declaration {line!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from None
    try:
        return Vocabulary(preds, funcs, equality, registry)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None


# ---------------------------------------------------------------------------
# Measures


def _atom_terms(phi: Formula) -> tuple:
    if isinstance(phi, (Pred, RelApp, DepAtom)):
        return phi.args
    if isinstance(phi, Eq):
        return (phi.left, phi.right)
    return ()


def atom_vars(phi: Formula) -> frozenset[str]:
    """The variables in the terms of an atom (empty for any other node)."""
    out: frozenset[str] = frozenset()
    for t in _atom_terms(phi):
        out |= term_vars(t)
    return out


def function_uses(phi: Formula) -> frozenset[tuple[str, int]]:
    """The (name, arity) of every function application in the terms of
    an atom (empty for any other node)."""
    out: frozenset[tuple[str, int]] = frozenset()
    for t in _atom_terms(phi):
        out |= term_functions(t)
    return out


_REL_QUANT = (ExistsRel, ForallRel, ExistsRelSparse, ForallRelSparse)
_FUN_QUANT = (ExistsFun, ForallFun)


def _gather(phi: Formula, of_leaf, binders=(), field="name", bind=frozenset.difference):
    """The name sets of the leaves (``of_leaf``), united up the formula;
    at a node of a ``binders`` class, ``bind`` (by default: remove) its
    ``field``."""

    def combine(node, below):
        if not below:
            return of_leaf(node)
        names = below[0] if len(below) == 1 else below[0] | below[1]
        if isinstance(node, binders):
            return bind(names, (getattr(node, field),))
        return names

    return fold(phi, combine)


def _names_of(cls: type):
    """A leaf's name, as a set, when it is a ``cls`` node."""
    return lambda node: frozenset((node.name,)) if isinstance(node, cls) else frozenset()


def free_vars(phi: Formula) -> frozenset[str]:
    """Free first-order variables; Fr(A t) = Var(t) for dependency atoms."""
    return _gather(phi, atom_vars, _FO_QUANT, "var")


def all_vars(phi: Formula) -> frozenset[str]:
    """Var(phi): every variable occurring, bound or free, binders included."""
    return _gather(phi, atom_vars, _FO_QUANT, "var", frozenset.union)


def free_relation_vars(phi: Formula) -> frozenset[str]:
    """Free second-order relation variables."""
    return _gather(phi, _names_of(RelApp), _REL_QUANT)


def free_function_vars(phi: Formula) -> frozenset[str]:
    """Function names used outside the scope of a function quantifier.

    Vocabulary functions and free function variables are syntactically
    alike; the split is made against a vocabulary or an assignment.
    """
    return _gather(
        phi, lambda node: frozenset(name for name, _ in function_uses(node)), _FUN_QUANT
    )


def prop_names(phi: Formula) -> frozenset[str]:
    """Prop(phi): propositional variables of a modal formula."""
    return _gather(phi, _names_of(Prop))


def size(phi: Formula) -> int:
    """Number of formula nodes (atoms count one; terms are free), counting
    a shared subformula once for each place it occurs."""
    return fold(phi, lambda node, below: 1 + sum(below))


def width(phi: Formula) -> int:
    """w(phi) = |Var(phi)|."""
    return len(all_vars(phi))


def _nesting(phi: Formula, cls) -> int:
    """The most ``cls`` nodes on one branch."""
    return fold(
        phi, lambda node, below: max(below, default=0) + (1 if isinstance(node, cls) else 0)
    )


def quantifier_rank(phi: Formula) -> int:
    """Nesting depth of quantifiers; atoms 0, negations transparent."""
    return _nesting(phi, _FO_QUANT + _SO_QUANT)


def modal_depth(phi: Formula) -> int:
    """Nesting depth of modalities."""
    return _nesting(phi, (Diamond, Box))


def pred_names(phi: Formula) -> frozenset[str]:
    """The predicates phi uses, its dependency atoms' defining sentences included."""
    pred = _names_of(Pred)
    return _gather(phi, lambda n: pred_names(n.dep.delta) if isinstance(n, DepAtom) else pred(n))


# ---------------------------------------------------------------------------
# Language membership


# Each language as (leaves, connectives, flat): a formula belongs to it
# when every node is a leaf or a connective, except that below a
# classical negation ! the body must belong to the flat sublanguage
# (None: ! is an ordinary connective).  The evaluators decide flatness
# bottom-up from the "fo" and "ml" rows.
_LANGUAGES = {
    "fo": ((Pred, Eq, Top, Bot), (Not, And, Or, Exists, Forall), None),
    "ml": ((Prop, Top, Bot), (Not, And, Or, Diamond, Box), None),
    "team": ((Pred, Eq, Top, Bot, DepAtom), (BoolNot, And, Or, Exists, Forall), "fo"),
    "mtl": ((Prop, Top, Bot), (BoolNot, And, Or, Diamond, Box), "ml"),
    "so": ((Pred, Eq, Top, Bot, RelApp), (Not,) + _BINARY + _FO_QUANT + _SO_QUANT, None),
}


def _height_in(phi: Formula, language: str) -> int:
    """phi's height (the nodes on its longest branch) when phi belongs to
    the language, else 0.  It walks one level of (node, language row)
    pairs at a time, with no recursion, and stops at the first node
    outside its language.  A node met twice on one level with the same
    row is visited there once, not once per path to it."""
    level = {(id(phi), language): phi}
    height = 0
    while level:
        height += 1
        below = {}
        for (_, row), node in level.items():
            leaves, connectives, flat = _LANGUAGES[row]
            if isinstance(node, leaves):
                continue
            if flat is not None and isinstance(node, Not):
                below[id(node.body), flat] = node.body
            elif isinstance(node, connectives):
                for c in children(node):
                    below[id(c), row] = c
            else:
                return 0
        level = below
    return height


def is_fo(phi: Formula) -> bool:
    """Classical first-order formulas: no ~, no dependency atoms, no modal
    or second-order material."""
    return _height_in(phi, "fo") > 0


def is_ml(phi: Formula) -> bool:
    """Classical modal logic: propositions, top/bot, ! & | <> []."""
    return _height_in(phi, "ml") > 0


def is_team(phi: Formula) -> bool:
    """First-order team logic: FO leaves, dependency atoms, ~ & | E A,
    and ! over first-order formulas."""
    return _height_in(phi, "team") > 0


def is_mtl(phi: Formula) -> bool:
    """Modal team logic: ML leaves plus ~ & | <> [], and ! over
    classical modal formulas."""
    return _height_in(phi, "mtl") > 0


def is_so(phi: Formula) -> bool:
    """Second-order logic, sugar connectives and sparse quantifiers included."""
    return _height_in(phi, "so") > 0


_CHECKED_LANGUAGES = ("fo", "team", "mtl", "so")

# The recursive passes over a formula (negation normal form, the
# translations to second-order logic and the second-order evaluator)
# accept formulas at most this many levels deep, which keeps them well
# inside Python's default recursion limit; deeper ones raise
# NestingTooDeep.
MAX_DEPTH = 200

# The team and modal evaluators recurse about twice per nesting level
# (``eval`` and ``_eval_inner``; ``eval_fo`` at most twice), where the
# second-order passes that MAX_DEPTH bounds recurse three times, so they
# accept formulas half as deep again.  The parser accepts text nested
# as deep.
MAX_TEAM_DEPTH = 3 * MAX_DEPTH // 2


class NestingTooDeep(ValueError):
    """A formula nested deeper than a pass accepts (``MAX_DEPTH`` or
    ``MAX_TEAM_DEPTH`` levels)."""

    def __init__(self):
        super().__init__("formula nested too deeply")


def check_language(phi: Formula, language: str) -> int:
    """Raise ValueError if phi is not a well-formed formula of the
    language; otherwise return its height, measured on the way."""
    if language not in _CHECKED_LANGUAGES:
        raise ValueError(f"unknown language {language!r}")
    height = _height_in(phi, language)
    if not height:
        raise ValueError(f"not a well-formed {language} formula: {format_formula(_shallow(phi))}")
    return height


_ELIDED = Pred("...")


def _shallow(phi: Formula, levels: int = 40) -> Formula:
    """phi with every subformula more than ``levels`` deep shown as
    ``...``, so that a message can print a formula of any depth."""
    if levels == 0:
        return _ELIDED if children(phi) else phi
    return map_children(phi, lambda c: _shallow(c, levels - 1))


# ---------------------------------------------------------------------------
# Construction helpers


def and_all(items, empty: Formula = TOP) -> Formula:
    """Left-associated conjunction; the empty conjunction is top."""
    items = list(items)
    return reduce(And, items) if items else empty


def or_all(items, empty: Formula = BOT) -> Formula:
    items = list(items)
    return reduce(Or, items) if items else empty


def mk_e(beta: Formula) -> Formula:
    """E beta := ~!beta ("some row satisfies beta")."""
    return BoolNot(Not(beta))


def as_e(phi: Formula) -> Formula | None:
    """Match E beta = ~!beta; return beta or None."""
    if isinstance(phi, BoolNot) and isinstance(phi.body, Not):
        return phi.body.body
    return None


def mk_ovee(left: Formula, right: Formula) -> Formula:
    """Boolean disjunction a \\/ b := ~(~a & ~b)."""
    return BoolNot(And(BoolNot(left), BoolNot(right)))


def as_ovee(phi: Formula) -> tuple[Formula, Formula] | None:
    """Match ~(~a & ~b); return (a, b) or None."""
    if (
        isinstance(phi, BoolNot)
        and isinstance(phi.body, And)
        and isinstance(phi.body.left, BoolNot)
        and isinstance(phi.body.right, BoolNot)
    ):
        return (phi.body.left.body, phi.body.right.body)
    return None


def ovee_all(items, empty: Formula | None = None) -> Formula:
    """Boolean disjunction as a balanced tree, so that its height grows
    with the logarithm of the number of items."""
    items = list(items)
    if not items:
        if empty is None:
            raise ValueError("empty Boolean disjunction")
        return empty
    if len(items) == 1:
        return items[0]
    half = len(items) // 2
    return mk_ovee(ovee_all(items[:half]), ovee_all(items[half:]))


def subst_pred_by_relvar(phi: Formula, pred: str, rel: str) -> Formula:
    """Turn every atom pred(t...) into an application of relation variable rel."""

    def combine(node: Formula, kids) -> Formula:
        if isinstance(node, Pred) and node.name == pred:
            return RelApp(rel, node.args)
        return rebuild(node, kids)

    return fold(phi, combine)


# ---------------------------------------------------------------------------
# Operators


class _Op(NamedTuple):
    """A surface operator, as the parser and the printer both read it.

    ``level`` is a binary operator's binding strength (1 binds
    loosest); prefix operators and quantifiers take maximal scope
    (``_PREFIX``) and ``NE`` takes an atom (``_ATOM``).  ``make`` builds
    the node from a quantifier's binder fields, if any, and the
    operands.  The languages in ``rejected`` refuse the operator with
    ``message``.
    """

    symbol: str
    make: Callable[..., Formula]
    level: int
    right: bool = False  # right associative
    rejected: tuple[str, ...] = ()
    message: str = ""


_PREFIX = 0
_ATOM = 100
_NOT_TEAM = ("fo", "so")
_NOT_MTL = ("fo", "team", "so")
_NOT_SO = ("fo", "team", "mtl")

_OPERATORS = (
    _Op("<->", Iff, 1, rejected=_NOT_SO, message="'<->' is second-order sugar"),
    _Op("->", Implies, 2, right=True, rejected=_NOT_SO, message="'->' is second-order sugar"),
    _Op("\\/", mk_ovee, 3, rejected=_NOT_TEAM, message="'\\/' is team-logic sugar"),
    _Op("|", Or, 4),
    _Op("&", And, 5),
    _Op("~", BoolNot, _PREFIX, rejected=_NOT_TEAM,
        message="Boolean negation '~' is not allowed here"),
    _Op("!", Not, _PREFIX),
    _Op("<>", Diamond, _PREFIX, rejected=_NOT_MTL, message="'<>' is modal syntax"),
    _Op("[]", Box, _PREFIX, rejected=_NOT_MTL, message="'[]' is modal syntax"),
    _Op("E", Exists, _PREFIX, rejected=("mtl",), message="quantifiers are not modal syntax"),
    _Op("A", Forall, _PREFIX, rejected=("mtl",), message="quantifiers are not modal syntax"),
    *(
        _Op(keyword, cls, _PREFIX, rejected=_NOT_SO, message=f"'{keyword}' is second-order syntax")
        for keyword, cls in (
            ("E2", ExistsRel), ("A2", ForallRel), ("Ef", ExistsFun),
            ("Af", ForallFun), ("Ep", ExistsRelSparse), ("Ap", ForallRelSparse),
        )
    ),
    _Op("NE", mk_e, _ATOM, rejected=_NOT_TEAM, message="'NE' is team-logic sugar"),
)
_OP_BY_SYMBOL = {op.symbol: op for op in _OPERATORS}
_OP_BY_MAKE = {op.make: op for op in _OPERATORS}
_BINARY_OPS = {op.symbol: op for op in _OPERATORS if _PREFIX < op.level < _ATOM}

# A flat body (first-order, or classical modal) keeps these flat.
_KEEPS_FLAT = (Exists, Forall, Diamond, Box)


# ---------------------------------------------------------------------------
# Tokenizer


class ParseError(ValueError):
    """Syntax, arity, or symbol-resolution error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<sym><->|<>|\[\]|->|\\/|[()=,.:&|~!\[\]])
    )""",
    re.VERBOSE,
)

_RESERVED = {"top", "bot", *(op.symbol for op in _OPERATORS if op.symbol.isidentifier())}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m and m.lastgroup is None:
            break  # only trailing whitespace left
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        start = m.start(m.lastgroup)
        line = text.count("\n", 0, start) + 1
        col = start - (text.rfind("\n", 0, start) + 1) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()
    tokens.append(("eof", "", text.count("\n") + 1, len(text) - (text.rfind("\n") + 1) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# Inference mode resolves dependency atoms against the builtin families.
_BUILTIN_DEPENDENCIES = DependencyRegistry()


class _Parser:
    """Recursive descent that recurses, two frames at a time, only into
    parentheses and function applications."""

    def __init__(self, text: str, language: str, vocab: Vocabulary | None):
        if language not in _CHECKED_LANGUAGES:
            raise ValueError(f"unknown language {language!r}")
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses and function applications
        self.language = language
        self.vocab = vocab
        # arity records for inference mode and for free relation variables
        self.seen_preds: dict[str, int] = {}
        self.seen_funcs: dict[str, int] = {}
        self.free_relvars: dict[str, int] = {}
        self.relvar_scope: list[tuple[str, int]] = []
        self.funvar_scope: list[tuple[str, int]] = []

    # -- token plumbing

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_sym(self, *symbols: str) -> bool:
        kind, val, _, _ = self.peek()
        return kind == "sym" and val in symbols

    def expect_sym(self, symbol: str):
        kind, val, line, col = self.next()
        if kind != "sym" or val != symbol:
            raise ParseError(f"expected {symbol!r}, found {val or 'end of input'!r}", line, col)

    def expect_ident(self) -> tuple[str, int, int]:
        kind, val, line, col = self.next()
        if kind != "ident":
            raise ParseError(f"expected identifier, found {val or 'end of input'!r}", line, col)
        return val, line, col

    def expect_int(self) -> int:
        kind, val, line, col = self.next()
        if kind != "int":
            raise ParseError(f"expected number, found {val or 'end of input'!r}", line, col)
        return int(val)

    # -- grammar

    def parse(self) -> Formula:
        phi = self.formula()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", line, col)
        return phi

    def formula(self) -> Formula:
        """Prefix operators, then atoms joined by binary operators,
        which an operator stack combines by level and associativity."""
        prefixes = self._prefixes(_PREFIX)
        operands = [self.atom()]
        pending: list[_Op] = []
        while True:
            op = _BINARY_OPS.get(self.peek()[1])
            level = _PREFIX if op is None else op.level  # the end combines all
            while pending and (
                pending[-1].level > level or (pending[-1].level == level and not op.right)
            ):
                right = operands.pop()
                operands[-1] = pending.pop().make(operands[-1], right)
            if op is None:
                return self._apply(prefixes, operands[0]) if prefixes else operands[0]
            self._accept(op)
            pending.append(op)
            operands.append(self.atom())

    def _accept(self, op: _Op) -> None:
        _, _, line, col = self.next()
        if self.language in op.rejected:
            raise ParseError(op.message, line, col)

    def _prefixes(self, level: int) -> list:
        """Read a run of operators of the level (prefixes and
        quantifiers, or NE), each with its binder fields and position."""
        run = []
        while True:
            _, val, line, col = self.peek()
            op = _OP_BY_SYMBOL.get(val)
            if op is None or op.level != level:
                return run
            self._accept(op)
            run.append((op, self._binder(op), line, col))

    def _binder(self, op: _Op) -> tuple:
        """The fields a quantifier reads before its body (none for other
        operators); a relation or function variable enters its scope."""
        if op.make in _FO_QUANT:
            var, _, _ = self.expect_ident()
            self.expect_sym(".")
            return (var,)
        if op.make not in _SO_QUANT:
            return ()
        bound = ()
        if op.make in _SPARSE_QUANT:
            self.expect_sym("[")
            bound = (self._sparse_bound(),)
            self.expect_sym("]")
        name, _, _ = self.expect_ident()
        self.expect_sym(":")
        arity = self.expect_int()
        self.expect_sym(".")
        self._scope(op).append((name, arity))
        return (name, arity, *bound)

    def _scope(self, op: _Op) -> list[tuple[str, int]]:
        return self.funvar_scope if op.make in (ExistsFun, ForallFun) else self.relvar_scope

    def _apply(self, run: list, body: Formula) -> Formula:
        """Wrap body in a run of prefix operators, innermost first."""
        flat = False  # body is known to be flat, so a '!' over it needs no check
        for op, binder, line, col in reversed(run):
            if op.make in (Not, mk_e) and not flat:
                self._check_flat_negation(body, line, col)
            if op.make in _SO_QUANT:
                self._scope(op).pop()
            body = op.make(*binder, body)
            flat = op.make is Not or (flat and op.make in _KEEPS_FLAT)
        return body

    def _check_flat_negation(self, body: Formula, line: int, col: int):
        if self.language == "team" and not is_fo(body):
            raise ParseError("'!' may only negate first-order formulas here", line, col)
        if self.language == "mtl" and not is_ml(body):
            raise ParseError("'!' may only negate classical modal formulas here", line, col)

    def _sparse_bound(self) -> SparseBound:
        kword, line, col = self.expect_ident()
        self.expect_sym(":")
        nums = [self.expect_int()]
        while self.at_sym(","):
            self.next()
            nums.append(self.expect_int())
        try:
            return SparseBound.of_kind(kword, nums)
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None

    def atom(self) -> Formula:
        run = self._prefixes(_ATOM)
        if self.at_sym("("):
            if self.depth == MAX_TEAM_DEPTH:
                raise NestingTooDeep()
            self.next()
            self.depth += 1
            phi = self.formula()
            self.depth -= 1
            self.expect_sym(")")
        else:
            phi = self._leaf()
        return self._apply(run, phi) if run else phi

    def _leaf(self) -> Formula:
        kind, val, line, col = self.peek()
        if kind == "ident" and val in ("top", "bot"):
            self.next()
            return TOP if val == "top" else BOT
        if kind != "ident":
            raise ParseError(f"expected a formula, found {val or 'end of input'!r}", line, col)
        if val in _RESERVED:
            raise ParseError(f"reserved word {val!r} cannot start an atom", line, col)
        self.next()
        if self.at_sym("("):
            args = self._args()
            if not self.at_sym("="):
                return self._applied_atom(val, args, line, col)
            lhs = self._function_term(val, args, line, col)
        elif self.at_sym("="):
            lhs = self._simple_term(val, line, col)
        else:
            return self._bare_atom(val, line, col)
        self.next()
        rhs = self.term()
        if self.vocab is not None and not self.vocab.equality_enabled:
            raise ParseError("equality is not in the vocabulary", line, col)
        return Eq(lhs, rhs)

    def _args(self) -> tuple:
        self.expect_sym("(")
        args = [self.term()]
        while self.at_sym(","):
            self.next()
            args.append(self.term())
        self.expect_sym(")")
        return tuple(args)

    def term(self) -> Term:
        name, line, col = self.expect_ident()
        if name in _RESERVED:
            raise ParseError(f"reserved word {name!r} cannot be a term", line, col)
        if self.at_sym("("):
            if self.depth == MAX_TEAM_DEPTH:
                raise NestingTooDeep()
            self.depth += 1
            args = self._args()
            self.depth -= 1
            return self._function_term(name, args, line, col)
        return self._simple_term(name, line, col)

    def _function_term(self, name: str, args: tuple, line: int, col: int) -> Term:
        arity = dict(self.funvar_scope).get(name)  # the innermost binder wins
        if arity is not None:
            _check_arity("function variable", name, arity, args, line, col)
        elif self.vocab is not None:
            if name in self.vocab.functions:
                _check_arity("function", name, self.vocab.functions[name], args, line, col)
            elif name in self.vocab.predicates:
                raise ParseError(f"predicate {name!r} used as a function", line, col)
            else:
                raise ParseError(f"unknown function {name!r}", line, col)
        else:
            _check_uses("function", self.seen_funcs, name, args, line, col)
            if self.seen_preds.get(name) is not None:
                raise ParseError(f"name {name!r} used as both predicate and function", line, col)
        return Func(name, args)

    def _simple_term(self, name: str, line: int, col: int) -> Term:
        if self.vocab is not None and name in self.vocab.functions:
            _check_arity("function", name, self.vocab.functions[name], (), line, col)
            return Func(name, ())
        return Var(name)

    def _applied_atom(self, name: str, args: tuple, line: int, col: int) -> Formula:
        arity = dict(self.relvar_scope).get(name)
        if arity is not None:
            _check_arity("relation variable", name, arity, args, line, col)
            return RelApp(name, args)
        if self.language == "mtl":
            raise ParseError("predicates cannot appear in modal formulas", line, col)
        vocab = self.vocab
        if vocab is not None and name in vocab.predicates:
            _check_arity("predicate", name, vocab.predicates[name], args, line, col)
            return Pred(name, args)
        registry = _BUILTIN_DEPENDENCIES if vocab is None else vocab.dependencies
        if self.language == "team" and registry.knows(name):
            try:
                return DepAtom(registry.resolve(name, len(args)), args)
            except UnknownDependencyError as exc:
                raise ParseError(str(exc), line, col) from None
        if vocab is None:  # inference mode
            _check_uses("predicate", self.seen_preds, name, args, line, col)
            if name in self.seen_funcs:
                raise ParseError(f"name {name!r} used as both predicate and function", line, col)
            return Pred(name, args)
        if self.language == "so":
            _check_uses("relation variable", self.free_relvars, name, args, line, col)
            return RelApp(name, args)
        if self.language == "team":
            raise ParseError(f"unknown dependency or predicate {name!r}", line, col)
        raise ParseError(f"unknown predicate {name!r}", line, col)

    def _bare_atom(self, name: str, line: int, col: int) -> Formula:
        arity = dict(self.relvar_scope).get(name)
        if arity is not None:
            _check_arity("relation variable", name, arity, (), line, col)
            return RelApp(name, ())
        if self.language == "mtl":
            return Prop(name)
        if self.vocab is not None and name in self.vocab.predicates:
            _check_arity("predicate", name, self.vocab.predicates[name], (), line, col)
            return Pred(name, ())
        raise ParseError(f"unknown symbol {name!r}", line, col)


def _check_arity(kind: str, name: str, arity: int, args: tuple, line: int, col: int):
    if arity != len(args):
        raise ParseError(f"{kind} {name!r} has arity {arity}, not {len(args)}", line, col)


def _check_uses(kind: str, seen: dict[str, int], name: str, args: tuple, line: int, col: int):
    """Record the arity of name's first use; later uses must agree."""
    first = seen.setdefault(name, len(args))
    if first != len(args):
        raise ParseError(f"{kind} {name!r} used with arities {first} and {len(args)}", line, col)


def parse(text: str, language: str = "team", vocab: Vocabulary | None = None) -> Formula:
    """Parse surface syntax into a formula of the given language.

    With ``vocab=None`` symbol arities are inferred from use; passing a
    vocabulary enables strict symbol and arity checking and is required
    to resolve custom dependency atoms, constants, and free second-order
    relation variables.  Text nested more than ``MAX_TEAM_DEPTH``
    levels deep, counting parentheses and function applications, raises
    ``NestingTooDeep``.
    """
    return _Parser(text, language, vocab).parse()


# ---------------------------------------------------------------------------
# Printer


def _surface(phi: Formula) -> tuple[_Op | None, tuple[Formula, ...]]:
    """phi's outermost surface operator (None for an atom) and its operands."""
    pair = as_ovee(phi)
    if pair is not None:
        return _OP_BY_MAKE[mk_ovee], pair
    beta = as_e(phi)
    if beta is not None:
        return _OP_BY_MAKE[mk_e], (beta,)
    op = _OP_BY_MAKE.get(type(phi))
    return op, () if op is None else children(phi)


def _binder(phi: Formula) -> str:
    """What a quantifier prints between its keyword and its body."""
    if isinstance(phi, _FO_QUANT):
        return f" {phi.var}. "
    if isinstance(phi, _SO_QUANT):
        bound = f"[{phi.bound}]" if isinstance(phi, _SPARSE_QUANT) else ""
        return f"{bound} {phi.name}:{phi.arity}. "
    return ""


def format_formula(phi: Formula) -> str:
    """Render a formula in surface syntax; parse round-trips it."""
    return fold(phi, _render, lambda node: _surface(node)[1])[0]


def _render(phi: Formula, operands) -> tuple[str, int]:
    """phi's surface text and the level of its outermost operator, from
    the (text, level) of each of its surface operands."""
    op, _ = _surface(phi)
    if op is None:
        return _format_atom(phi), _ATOM
    texts = []
    for side, (text, level) in enumerate(operands):
        if op.level == _ATOM:  # NE takes an atom
            parens = level != _ATOM
        elif op.level == _PREFIX:  # maximal scope: only a binary operator needs parentheses
            parens = _PREFIX < level < _ATOM
        else:  # the operand on the side op does not associate to binds strictly tighter
            parens = level < op.level or (level == op.level and op.right != (side == 1))
        texts.append(f"({text})" if parens else text)
    if op.level == _ATOM:
        return f"NE {texts[0]}", _ATOM
    if op.level == _PREFIX:
        return f"{op.symbol}{_binder(phi)}{texts[0]}", _PREFIX
    return f"{texts[0]} {op.symbol} {texts[1]}", op.level


def _format_atom(phi: Formula) -> str:
    if isinstance(phi, Pred) or isinstance(phi, RelApp):
        if not phi.args:
            return phi.name
        return f"{phi.name}({','.join(str(a) for a in phi.args)})"
    if isinstance(phi, DepAtom):
        return f"{phi.dep.name}({','.join(str(a) for a in phi.args)})"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Bot):
        return "bot"
    if isinstance(phi, Prop):
        return phi.name
    raise TypeError(f"not a formula: {phi!r}")
