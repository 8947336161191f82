"""Finite structures, assignments, teams, Kripke models, and team operations.

Domains are always {0, ..., n-1}.  Teams are finite sets of assignments
sharing a domain of variables; the empty team over any domain is a
different object from the team containing only the empty assignment.
The operations here (restriction, image, supplementation, duplication,
successor teams) are the semantic workhorses of the evaluators.

Model files bundle structures, teams, and Kripke models::

    domain 4
    rel R { (0,1) (1,2) }
    rel S 3 { }                # explicit arity for empty relations
    fun f { (0)->1 (1)->0 (2)->2 (3)->3 }
    T = team x y { (0,1) (2,2) }
    kripke 3 { edges (0,1) (1,2) ; val p { 0 2 } ; team { 0 } }

Named blocks default to ``T`` for teams and ``K`` for Kripke models.
``#`` starts a comment.  Each declaration starts a line; a block opens
with ``{`` on that line and may span lines up to its ``}``, which ends
its line.  A second domain, a name declared twice, a repeated kripke
clause, a repeated function entry and a team value outside the domain
are errors.  An error names the line of the faulty text; the structure
and each Kripke model are checked once read, so an error of a relation
or function (a tuple outside the domain, mixed arities, a partial
function, a missing arity) names the line of its declaration, and one
of a Kripke model the block's first line.  Assignment files
(``so_bridge.parse_so_assignment``) are read by the same functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .syntax import Func, ParseError, Term, Var, Vocabulary


# ---------------------------------------------------------------------------
# Assignments and teams


@dataclass(frozen=True)
class Assignment:
    """An immutable finite map from variables to domain elements."""

    items: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, mapping: dict[str, int] | None = None, **kw: int) -> "Assignment":
        merged = dict(mapping or {})
        merged.update(kw)
        return cls(tuple(sorted(merged.items())))

    def __post_init__(self):
        names = [n for n, _ in self.items]
        if list(self.items) != sorted(self.items) or len(set(names)) != len(names):
            object.__setattr__(self, "items", tuple(sorted(dict(self.items).items())))

    def get(self, var: str) -> int:
        for n, v in self.items:
            if n == var:
                return v
        raise KeyError(var)

    def set(self, var: str, value: int) -> "Assignment":
        """s(a/x): bind or overwrite one variable."""
        d = dict(self.items)
        d[var] = value
        return Assignment(tuple(sorted(d.items())))

    def drop(self, var: str) -> "Assignment":
        return Assignment(tuple((n, v) for n, v in self.items if n != var))

    def restrict(self, variables) -> "Assignment":
        keep = set(variables)
        return Assignment(tuple((n, v) for n, v in self.items if n in keep))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.items)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def __str__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in self.items)
        return "{" + inner + "}"


EMPTY_ASSIGNMENT = Assignment(())


@dataclass(frozen=True)
class Team:
    """A set of assignments over a common variable domain.

    ``domain`` lists the variables every member assigns (sorted).  The
    empty team keeps its domain, so ``Team.empty(("x",))`` and
    ``Team.empty()`` differ.  Over the empty domain the empty team
    ``Team.empty()`` and ``Team.unit()``, the team of the empty
    assignment, are different teams too.
    """

    domain: tuple[str, ...]
    rows: frozenset[Assignment]

    @classmethod
    def of(cls, variables, assignments) -> "Team":
        dom = tuple(sorted(set(variables)))
        rows = frozenset(assignments)
        return cls(dom, rows)

    @classmethod
    def from_tuples(cls, variables, tuples) -> "Team":
        """Build from value tuples listed in the order of ``variables``."""
        order = tuple(variables)
        dom = tuple(sorted(set(order)))
        if len(dom) != len(order):
            raise ValueError(f"duplicate team variables in {order}")
        rows = frozenset(
            Assignment(tuple(sorted(zip(order, t)))) for t in tuples
        )
        return cls(dom, rows)

    @classmethod
    def empty(cls, variables=()) -> "Team":
        return cls(tuple(sorted(set(variables))), frozenset())

    @classmethod
    def unit(cls) -> "Team":
        """{emptyset}: the singleton team of the empty assignment."""
        return cls((), frozenset((EMPTY_ASSIGNMENT,)))

    def __post_init__(self):
        dom = frozenset(self.domain)
        for s in self.rows:
            if s.domain != dom:
                raise ValueError(
                    f"assignment over {sorted(s.domain)} in a team over {list(self.domain)}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __contains__(self, s: Assignment) -> bool:
        return s in self.rows

    def sorted_rows(self) -> list[Assignment]:
        """Rows in a deterministic order (lexicographic on values)."""
        return sorted(self.rows, key=lambda s: tuple(v for _, v in s.items))

    def is_empty(self) -> bool:
        return not self.rows

    def __str__(self) -> str:
        header = " ".join(self.domain) if self.domain else "-"
        body = ", ".join(str(s) for s in self.sorted_rows())
        return f"Team[{header}]{{{body}}}"


# ---------------------------------------------------------------------------
# First-order structures


@dataclass
class Structure:
    """A finite relational structure over domain {0..domain_size-1}.

    ``relations`` maps names to sets of tuples; ``functions`` maps names
    to total tables {argument tuple: value}.  Everything is normalised
    to hashable, frozen containers on construction.
    """

    domain_size: int
    relations: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    arities: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("structures need a nonempty domain")
        rng = range(self.domain_size)
        rels: dict[str, frozenset[tuple[int, ...]]] = {}
        for name, tuples in self.relations.items():
            frozen = frozenset(tuple(t) for t in tuples)
            arity = self.arities.get(name)
            for t in frozen:
                if arity is None:
                    arity = len(t)
                if len(t) != arity:
                    raise ValueError(f"mixed arities in relation {name!r}")
                if any(v not in rng for v in t):
                    raise ValueError(f"relation {name!r} tuple {t} leaves the domain")
            if arity is None:
                raise ValueError(f"empty relation {name!r} needs an explicit arity")
            self.arities[name] = arity
            rels[name] = frozen
        self.relations = rels
        funcs: dict[str, dict[tuple[int, ...], int]] = {}
        for name, table in self.functions.items():
            fixed = {tuple(k): v for k, v in table.items()}
            arities = {len(k) for k in fixed}
            if len(arities) > 1:
                raise ValueError(f"mixed arities in function {name!r}")
            arity = arities.pop() if arities else self.arities.get(name)
            if arity is None:
                raise ValueError(f"empty function {name!r} needs an explicit arity")
            expected = self.domain_size**arity
            if len(fixed) != expected:
                raise ValueError(
                    f"function {name!r} is partial: {len(fixed)} of {expected} entries"
                )
            if any(v not in rng for v in fixed.values()):
                raise ValueError(f"function {name!r} leaves the domain")
            self.arities[name] = arity
            funcs[name] = fixed
        self.functions = funcs

    @property
    def domain(self) -> range:
        return range(self.domain_size)

    def vocabulary(self, dependencies=None) -> Vocabulary:
        kw = {} if dependencies is None else {"dependencies": dependencies}
        return Vocabulary(
            predicates={n: self.arities[n] for n in self.relations},
            functions={n: self.arities[n] for n in self.functions},
            **kw,
        )

    def holds(self, name: str, values: tuple[int, ...]) -> bool:
        try:
            return values in self.relations[name]
        except KeyError:
            raise KeyError(f"no relation {name!r} in the structure") from None

    def apply(self, name: str, values: tuple[int, ...]) -> int:
        try:
            return self.functions[name][values]
        except KeyError:
            raise KeyError(f"no function value {name}{values}") from None


def single_predicate_structure(domain_size: int, tuples, arity: int | None = None) -> Structure:
    """The structure ({0..n-1}, P) a dependency's sentence is checked in."""
    tuples = frozenset(tuple(t) for t in tuples)
    if arity is None:
        arity = len(next(iter(tuples))) if tuples else 1
    return Structure(domain_size, {"P": tuples}, arities={"P": arity})


# ---------------------------------------------------------------------------
# Kripke models


@dataclass
class KripkeStructure:
    """A finite Kripke model: worlds {0..n-1}, edges, and a valuation."""

    worlds: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    valuation: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.worlds < 1:
            raise ValueError("Kripke structures need at least one world")
        rng = range(self.worlds)
        self.edges = frozenset((int(a), int(b)) for a, b in self.edges)
        for a, b in self.edges:
            if a not in rng or b not in rng:
                raise ValueError(f"edge ({a},{b}) leaves the worlds")
        self.valuation = {p: frozenset(int(w) for w in ws) for p, ws in self.valuation.items()}
        for p, ws in self.valuation.items():
            if any(w not in rng for w in ws):
                raise ValueError(f"valuation of {p!r} leaves the worlds")

    def successors(self, world: int) -> frozenset[int]:
        return frozenset(b for a, b in self.edges if a == world)

    def predecessors(self, world: int) -> frozenset[int]:
        return frozenset(a for a, b in self.edges if b == world)

    def image(self, team: frozenset[int]) -> frozenset[int]:
        """RT = {v : some w in team has an edge to v}."""
        return frozenset(b for a, b in self.edges if a in team)


# ---------------------------------------------------------------------------
# Term evaluation and team operations


def eval_term(structure: Structure, s: Assignment, t: Term) -> int:
    if isinstance(t, Var):
        try:
            return s.get(t.name)
        except KeyError:
            raise KeyError(f"assignment does not bind variable {t.name!r}") from None
    values = tuple(eval_term(structure, s, a) for a in t.args)
    return structure.apply(t.name, values)


def team_restrict(team: Team, variables) -> Team:
    """T restricted to the given variables; rows that collide merge.

    When no variable is dropped this is T itself.
    """
    keep = tuple(sorted(set(variables) & set(team.domain)))
    if keep == team.domain:
        return team
    rows = frozenset(s.restrict(keep) for s in team.rows)
    return Team(keep, rows)


def team_image(structure: Structure, team, terms: tuple[Term, ...]) -> frozenset[tuple[int, ...]]:
    """t<T>: the relation {t<s> : s in T}, for a Team or any iterable of
    its rows."""
    return frozenset(
        tuple(eval_term(structure, s, t) for t in terms) for s in team
    )


def supplement(team: Team, var: str, choice) -> Team:
    """T[f/x]: extend/overwrite x in every row by f's nonempty value set.

    ``choice`` maps each row to an iterable of domain elements (a dict
    keyed by Assignment, or any callable).  Empty value sets are the
    function's job to avoid; they raise here.
    """
    pick = choice.__getitem__ if isinstance(choice, dict) else choice
    new_rows = []
    for s in team.rows:
        values = tuple(pick(s))
        if not values:
            raise ValueError(f"supplementing function empty on {s}")
        for a in values:
            new_rows.append(s.set(var, a))
    dom = tuple(sorted(set(team.domain) | {var}))
    return Team(dom, frozenset(new_rows))


def duplicate(team: Team, var: str, domain_size: int) -> Team:
    """T[A/x]: every row extended/overwritten with every domain element."""
    rows = frozenset(
        s.set(var, a) for s in team.rows for a in range(domain_size)
    )
    dom = tuple(sorted(set(team.domain) | {var}))
    return Team(dom, rows)


def successor_teams(kripke: KripkeStructure, team: frozenset[int], budget=None):
    """Yield the successor teams of a world team in binary-counter order.

    S is a successor team of T when S is a subset of RT and every world of T
    has an edge into S.  For the empty team this yields exactly the empty
    team, so diamonds over the empty team recurse on the empty team.
    """
    if not team:
        yield frozenset()
        return
    reachable = sorted(kripke.image(team))
    n = len(reachable)
    for mask in range(2**n):
        if budget is not None:
            budget.charge()
        candidate = frozenset(reachable[i] for i in range(n) if mask >> i & 1)
        if all(kripke.successors(w) & candidate for w in team):
            yield candidate


# ---------------------------------------------------------------------------
# Model files
#
# The reader works on the text at absolute offsets.  Comments are cut and
# every line ends in one "\n", so each offset keeps its line; the line is
# counted only when an error is raised.


_COMMENT_RE = re.compile(r"#[^\n]*")
# the blank text before a declaration, the NAME of ``NAME = team ...`` or
# ``NAME = kripke ...``, and the declaration's first word
_DECL_RE = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)[^\S\n]*=[^\S\n]*(?=(?:team|kripke)\s))?(\S+)"
)
_BRACE_RE = re.compile(r"[{}]")
# one item of a block: a tuple and its value (empty for a plain tuple),
# or a stray word
_TUPLES_RE = re.compile(r"\(([^()]*)\)()|\S[^\s(]*")
_ENTRIES_RE = re.compile(r"\(([^()]*)\)\s*->\s*(\d+)|\S[^\s(]*")
_CLAUSE_RE = re.compile(r"[^;\s][^;]*")


@dataclass
class ModelFile:
    """Parsed contents of a model file."""

    structure: Structure | None
    teams: dict[str, Team]
    kripkes: dict[str, "KripkeStructure"]
    kripke_teams: dict[str, frozenset[int]]

    def team(self, name: str = "T") -> Team:
        try:
            return self.teams[name]
        except KeyError:
            raise KeyError(f"no team {name!r} in the model file") from None

    def kripke(self, name: str = "K") -> tuple["KripkeStructure", frozenset[int]]:
        try:
            return self.kripkes[name], self.kripke_teams[name]
        except KeyError:
            raise KeyError(f"no Kripke block {name!r} in the model file") from None


def _file_text(text: str) -> str:
    """text without ``#`` comments, every line ended by one "\\n"."""
    return _COMMENT_RE.sub("", "\n".join(text.splitlines())) + "\n"


def _error(message: str, text: str, pos: int) -> ParseError:
    """A ParseError on the line of offset pos."""
    return ParseError(message, text.count("\n", 0, pos) + 1, 1)


def _parse_int(word: str, what: str, text: str, pos: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise _error(f"bad {what} {word!r}", text, pos) from None


def _header(text: str, start: int) -> tuple[list[str], int, int]:
    """The words before the first '{' on the line at offset start, the
    offset of that '{' (-1 when the line has none) and of the line's end."""
    eol = text.index("\n", start)
    brace = text.find("{", start, eol)
    return text[start : brace if brace >= 0 else eol].split(), brace, eol


def _block(text: str, start: int, brace: int) -> tuple[int, int]:
    """The offset of the '}' closing the '{' at offset brace of the
    declaration at offset start, and the end of the '}''s line, where the
    next declaration may begin; text after the '}' on its line is an error."""
    if brace < 0:
        raise _error("expected '{' on the declaration's first line", text, start)
    depth = 0
    for m in _BRACE_RE.finditer(text, brace):
        depth += 1 if m.group() == "{" else -1
        if not depth:
            end = text.index("\n", m.start())
            if text[m.end() : end].strip():
                raise _error("trailing text after '}'", text, m.start())
            return m.start(), end
    raise _error("unterminated '{' block", text, start)


def _tuples(text: str, start: int, end: int, width, what: str, items=_TUPLES_RE) -> dict:
    """Read the tuples ``(a,b) ...`` of text[start:end], or with
    ``_ENTRIES_RE`` the entries ``(a,b)->v ...``, in one pass.

    Returns a dict from each tuple to its value (None for a plain
    tuple).  Stray text, a bad tuple, a tuple of another width than
    ``width`` (unless None) and a second entry for one tuple are errors
    on the line where they stand.
    """
    table: dict = {}
    for m in items.finditer(text, start, end):
        inner, value = m.groups()
        if inner is None:
            raise _error(f"stray text {m.group()!r} in {what}", text, m.start())
        inner = inner.strip()
        try:
            row = tuple(map(int, inner.split(","))) if inner else ()
        except ValueError:
            raise _error(f"bad tuple ({inner})", text, m.start()) from None
        if width is not None and len(row) != width:
            raise _error(f"{row} in {what} has width {len(row)}, not {width}", text, m.start())
        if value and row in table:
            raise _error(f"{what} lists {row} twice", text, m.start())
        table[row] = int(value) if value else None
    return table


def _table_declaration(text: str, start: int, head: list[str], brace: int):
    """Read ``rel NAME [ARITY] { (a,b) ... }`` or ``fun NAME [ARITY] {
    (a,b)->v ... }`` declared at offset start, whose words before the
    '{' at offset brace are ``head``.  Returns the name, the arity (None
    when omitted), the table (see ``_tuples``) and the offset where the
    next declaration may begin."""
    if len(head) not in (2, 3):
        raise _error(f"expected '{head[0]} NAME [ARITY] {{ ... }}'", text, start)
    kind, name = head[0], head[1]
    arity = _parse_int(head[2], "arity", text, start) if len(head) == 3 else None
    close, end = _block(text, start, brace)
    items = _TUPLES_RE if kind == "rel" else _ENTRIES_RE
    return name, arity, _tuples(text, brace + 1, close, arity, f"{kind} {name!r}", items), end


def parse_model_file(text: str) -> ModelFile:
    """Parse a model file (structure, named teams, Kripke blocks); the
    module docstring gives the format."""
    text = _file_text(text)

    domain_size: int | None = None
    relations: dict[str, frozenset] = {}
    functions: dict[str, dict] = {}
    arities: dict[str, int] = {}
    teams: dict[str, Team] = {}
    kripkes: dict[str, KripkeStructure] = {}
    kripke_teams: dict[str, frozenset[int]] = {}

    # the offset of the domain declaration (under None, first), then of
    # each rel/fun declaration
    declared: dict[str | None, int] = {None: 0}
    # the span of each team's rows, and its rows
    team_rows: list[tuple[int, int, dict]] = []

    pos = 0
    while m := _DECL_RE.match(text, pos):
        name, kind, start = m.group(1), m.group(2), m.start(2)
        head, brace, pos = _header(text, start)
        if kind == "domain" and len(head) == 2 and brace < 0:
            if domain_size is not None:
                raise _error("second domain declaration", text, start)
            domain_size = _parse_int(head[1], "domain size", text, start)
            declared[None] = start
        elif kind in ("rel", "fun"):
            name, arity, table, pos = _table_declaration(text, start, head, brace)
            if name in relations or name in functions:
                raise _error(f"{name!r} is declared twice", text, start)
            declared[name] = start
            if arity is not None:
                arities[name] = arity
            if kind == "rel":
                relations[name] = frozenset(table)
            else:
                functions[name] = table
        elif kind == "team":
            variables = tuple(head[1:])
            if len(set(variables)) != len(variables):
                raise _error(f"duplicate team variables in {variables}", text, start)
            name = name or "T"
            if name in teams:
                raise _error(f"second team {name!r}", text, start)
            close, pos = _block(text, start, brace)
            rows = _tuples(text, brace + 1, close, len(variables), "team")
            teams[name] = Team.from_tuples(variables, rows)
            team_rows.append((brace + 1, close, rows))
        elif kind == "kripke":
            if len(head) != 2:
                raise _error("expected 'kripke WORLDS { ... }'", text, start)
            worlds = _parse_int(head[1], "world count", text, start)
            name = name or "K"
            if name in kripkes:
                raise _error(f"second kripke block {name!r}", text, start)
            close, pos = _block(text, start, brace)
            kripkes[name], kripke_teams[name] = _kripke_body(text, start, brace, close, worlds)
        else:
            line = text[start:pos].rstrip()
            raise _error(f"unrecognised model declaration {line!r}", text, start)

    structure = None
    if domain_size is not None:
        structure = _structure(text, domain_size, relations, functions, arities, declared)
        domain = set(range(domain_size))
        for start, end, rows in team_rows:
            if not {v for row in rows for v in row} <= domain:
                raise _outside_row(text, start, end, domain)
    elif relations or functions:
        raise ParseError("relations/functions given without a domain", 1, 1)
    return ModelFile(structure, teams, kripkes, kripke_teams)


def _outside_row(text: str, start: int, end: int, domain: set[int]) -> ParseError:
    """The error for the first row of text[start:end] (a team block's
    rows) with a value outside the domain."""
    for m in _TUPLES_RE.finditer(text, start, end):
        (row,) = _tuples(text, m.start(), m.end(), None, "team")
        if not set(row) <= domain:
            return _error(f"team row {row} leaves the domain", text, m.start())
    return _error("a team row leaves the domain", text, start)


def _structure(text: str, domain_size: int, relations, functions, arities, declared) -> Structure:
    """The structure a model file declares.  When ``Structure`` rejects
    it, the error names the line of the first declaration in ``declared``
    (name to offset, the domain's under None) that fails the check alone."""
    try:
        return Structure(domain_size, relations, functions, arities)
    except ValueError as exc:
        fault, at = exc, 0
    for name, start in declared.items():
        try:
            Structure(
                domain_size,
                {k: v for k, v in relations.items() if k == name},
                {k: v for k, v in functions.items() if k == name},
                {k: v for k, v in arities.items() if k == name},
            )
        except ValueError as exc:
            fault, at = exc, start
            break
    raise _error(str(fault), text, at) from None


def _kripke_body(text: str, start: int, brace: int, close: int, worlds: int):
    """Read the ``;``-separated clauses between the braces at offsets
    brace and close of the kripke block declared at offset start.  An
    error in a clause carries the clause's line, one about the whole
    block the block's first line."""
    edges: frozenset = frozenset()
    valuation: dict[str, frozenset[int]] = {}
    team = frozenset(range(worlds))  # without a team clause, every world
    seen: set[str] = set()
    for m in _CLAUSE_RE.finditer(text, brace + 1, close):
        at, end = m.span()
        clause = m.group().rstrip()
        first = clause.split()[0]
        if first == "edges":
            key = first
            edges = frozenset(_tuples(text, at + len(first), end, 2, "edges"))
        elif first in ("val", "team"):
            open_b, close_b = text.find("{", at, end), text.find("}", at, end)
            if open_b < 0 or close_b < open_b:
                raise _error(f"expected '{{ worlds }}' in {clause!r}", text, at)
            tail = text[close_b + 1 : end].lstrip()
            if tail:
                raise _error(f"trailing text after '}}' in {clause!r}", text, end - len(tail))
            try:
                listed = frozenset(map(int, text[open_b + 1 : close_b].split()))
            except ValueError:
                raise _error(f"bad world list in {clause!r}", text, at) from None
            words = text[at:open_b].split()
            key = " ".join(words)
            if words[0] == "val" and len(words) == 2:
                valuation[words[1]] = listed
            elif key == "team":
                team = listed
            else:
                raise _error(f"unrecognised kripke clause {clause!r}", text, at)
        else:
            raise _error(f"unrecognised kripke clause {clause!r}", text, at)
        if key in seen:
            raise _error(f"repeated kripke clause {key!r}", text, at)
        seen.add(key)
    try:
        model = KripkeStructure(worlds, edges, valuation)
    except ValueError as exc:
        raise _error(str(exc), text, start) from None
    if any(w not in range(worlds) for w in team):
        raise _error("kripke team leaves the worlds", text, start)
    return model, team
