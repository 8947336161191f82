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


def team_image(structure: Structure, team: Team, terms: tuple[Term, ...]) -> frozenset[tuple[int, ...]]:
    """t<T>: the relation {t<s> : s in T}."""
    return frozenset(
        tuple(eval_term(structure, s, t) for t in terms) for s in team.rows
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


_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_FUN_ENTRY_RE = re.compile(r"\(([^()]*)\)\s*->\s*(\d+)")


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


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", lineno, 1) from None


def _line_at(starts: list[tuple[int, int]], pos: int) -> int:
    """The line of offset pos in a block body; ``starts`` pairs the
    offset of each line joined into the body with its number."""
    return next(lineno for offset, lineno in reversed(starts) if offset <= pos)


def _stray_line(text: str, pattern: re.Pattern, starts, base: int) -> int:
    """The line of the first text outside pattern's matches in text,
    which sits at offset base of a block body."""
    blanked = pattern.sub(lambda m: " " * len(m.group()), text)
    return _line_at(starts, base + len(blanked) - len(blanked.lstrip()))


def _int_tuple(m: re.Match, starts, base: int) -> tuple[int, ...]:
    """The integer tuple of match m, whose text sits at offset base of a
    block body."""
    inner = m.group(1).strip()
    if not inner:
        return ()
    try:
        return tuple(map(int, inner.split(",")))
    except ValueError:
        raise ParseError(f"bad tuple ({inner})", _line_at(starts, base + m.start()), 1) from None


def _parse_int_tuples(text: str, starts, base: int = 0) -> list[tuple[int, ...]]:
    """The tuples '(a,b) (c,d) ...' of text, which sits at offset base of
    a block body; errors carry the line of the faulty text."""
    stripped = _TUPLE_RE.sub("", text).strip()
    if stripped:
        lineno = _stray_line(text, _TUPLE_RE, starts, base)
        raise ParseError(f"stray text {stripped!r} in tuple list", lineno, 1)
    return [_int_tuple(m, starts, base) for m in _TUPLE_RE.finditer(text)]


def _width_line(text: str, pattern: re.Pattern, width: int, starts, base: int = 0) -> int:
    """The line of the first tuple in text whose width is not width."""
    m = next(m for m in pattern.finditer(text) if len(_int_tuple(m, starts, base)) != width)
    return _line_at(starts, base + m.start())


def _table_declaration(lines: list[tuple[int, str]], i: int):
    """Read ``rel NAME [ARITY] { (a,b) ... }`` or ``fun NAME [ARITY] {
    (a,b)->v ... }`` starting on line i.

    Returns the name, the arity (None when omitted), the tuple list or
    the function table, and the index of the block's last line.  Stray
    text and rows of another arity than the declared one are errors.
    """
    lineno, line = lines[i]
    brace = line.find("{")
    header = line[:brace] if brace >= 0 else line
    head = header.split()
    if len(head) not in (2, 3):
        raise ParseError(f"expected '{head[0]} NAME [ARITY] {{ ... }}'", lineno, 1)
    kind, name = head[0], head[1]
    arity = _parse_int(head[2], "arity", lineno) if len(head) == 3 else None
    body, starts, i_end = _block_body(lines, i, header)
    if kind == "rel":
        table = _parse_int_tuples(body, starts)
    else:
        leftover = _FUN_ENTRY_RE.sub("", body).strip()
        if leftover:
            lineno = _stray_line(body, _FUN_ENTRY_RE, starts, 0)
            raise ParseError(f"stray text {leftover!r} in function block", lineno, 1)
        table = {
            _int_tuple(m, starts, 0): int(m.group(2)) for m in _FUN_ENTRY_RE.finditer(body)
        }
    if arity is not None and any(len(t) != arity for t in table):
        pattern = _TUPLE_RE if kind == "rel" else _FUN_ENTRY_RE
        lineno = _width_line(body, pattern, arity, starts)
        raise ParseError(f"entry of wrong arity in {kind} {name!r}", lineno, 1)
    return name, arity, table, i_end


def _block_body(lines: list[tuple[int, str]], i: int, after: str):
    """Collect a brace-balanced '{ ... }' starting on line i after the prefix text.

    Returns the body, its lines joined by spaces; the (offset in the
    body, line number) of each joined line, for error messages; and the
    index of the block's last line.
    """
    lineno, text = lines[i]
    brace = text.find("{", len(after))
    if brace < 0:
        raise ParseError(f"expected '{{' after {after!r}", lineno, 1)
    chunks: list[str] = []
    starts: list[tuple[int, int]] = [(0, lineno)]
    j, pos, depth = i, brace + 1, 1
    while True:
        line = text if j == i else lines[j][1]
        for k in range(pos, len(line)):
            ch = line[k]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    if line[k + 1 :].strip():
                        raise ParseError("trailing text after '}'", lines[j][0], 1)
                    chunks.append(line[pos:k])
                    return " ".join(chunks), starts, j
        chunks.append(line[pos:])
        j += 1
        pos = 0
        if j >= len(lines):
            raise ParseError("unterminated '{' block", lineno, 1)
        starts.append((starts[-1][0] + len(chunks[-1]) + 1, lines[j][0]))


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Numbered nonblank lines with ``#`` comments removed."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines


def parse_model_file(text: str) -> ModelFile:
    """Parse a model file (structure, named teams, Kripke blocks)."""
    lines = _content_lines(text)

    domain_size: int | None = None
    relations: dict[str, frozenset] = {}
    functions: dict[str, dict] = {}
    arities: dict[str, int] = {}
    teams: dict[str, Team] = {}
    kripkes: dict[str, KripkeStructure] = {}
    kripke_teams: dict[str, frozenset[int]] = {}

    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        name_prefix = None
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)", line)
        if m and m.group(2).split(None, 1)[0:1] in (["team"], ["kripke"]):
            name_prefix, line = m.group(1), m.group(2)
            lines[i] = (lineno, line)

        head = line.split()
        kind = head[0]
        if kind == "domain" and len(head) == 2:
            domain_size = _parse_int(head[1], "domain size", lineno)
            i += 1
        elif kind in ("rel", "fun"):
            name, arity, table, i_end = _table_declaration(lines, i)
            if arity is not None:
                arities[name] = arity
            if kind == "rel":
                relations[name] = frozenset(table)
            else:
                functions[name] = table
            i = i_end + 1
        elif kind == "team":
            varstop = line.find("{")
            if varstop < 0:
                raise ParseError("expected '{' on the team line", lineno, 1)
            variables = tuple(line[len("team") : varstop].split())
            body, starts, i_end = _block_body(lines, i, line[:varstop])
            tuples = _parse_int_tuples(body, starts)
            tname = name_prefix or "T"
            bad = next((t for t in tuples if len(t) != len(variables)), None)
            if bad is not None:
                message = (
                    f"team row {bad} does not match variables {list(variables)}"
                    if variables
                    else "team without variables can only hold ()"
                )
                lineno = _width_line(body, _TUPLE_RE, len(variables), starts)
                raise ParseError(message, lineno, 1)
            if variables:
                teams[tname] = Team.from_tuples(variables, tuples)
            else:
                teams[tname] = (
                    Team((), frozenset((EMPTY_ASSIGNMENT,))) if tuples else Team.empty()
                )
            i = i_end + 1
        elif kind == "kripke" and len(head) >= 2:
            worlds = _parse_int(head[1], "world count", lineno)
            body, starts, i_end = _block_body(lines, i, f"kripke {head[1]}")
            kname = name_prefix or "K"
            kripkes[kname], kripke_teams[kname] = _parse_kripke_body(body, worlds, starts)
            i = i_end + 1
        else:
            raise ParseError(f"unrecognised model declaration {line!r}", lineno, 1)

    structure = None
    if domain_size is not None:
        try:
            structure = Structure(domain_size, relations, functions, arities)
        except ValueError as exc:
            raise ParseError(str(exc), 1, 1) from None
    elif relations or functions:
        raise ParseError("relations/functions given without a domain", 1, 1)
    return ModelFile(structure, teams, kripkes, kripke_teams)


def _parse_kripke_body(body: str, worlds: int, starts: list[tuple[int, int]]):
    """Read the ``;``-separated clauses of a kripke block body (see
    ``_block_body`` for ``starts``).  An error in a clause carries the
    clause's line, one about the whole block the block's first line."""
    edges: frozenset = frozenset()
    valuation: dict[str, frozenset[int]] = {}
    team: frozenset[int] = frozenset()
    saw_team = False
    pos = 0
    for raw in body.split(";"):
        part = raw.lstrip()
        at = pos + len(raw) - len(part)  # body offset of the clause
        pos += len(raw) + 1
        part = part.rstrip()
        if not part:
            continue
        head = part.split()
        if head[0] == "edges":
            tuples = part[len("edges") :]
            pairs = _parse_int_tuples(tuples, starts, at + len("edges"))
            if any(len(p) != 2 for p in pairs):
                lineno = _width_line(tuples, _TUPLE_RE, 2, starts, at + len("edges"))
                raise ParseError("edges must be pairs", lineno, 1)
            edges = frozenset(pairs)
        elif head[0] in ("val", "team"):
            words, listed = _world_clause(part, starts, at)
            if words[0] == "val" and len(words) == 2:
                valuation[words[1]] = listed
            elif words == ["team"]:
                team = listed
                saw_team = True
            else:
                raise ParseError(f"unrecognised kripke clause {part!r}", _line_at(starts, at), 1)
        else:
            raise ParseError(f"unrecognised kripke clause {part!r}", _line_at(starts, at), 1)
    if not saw_team:
        team = frozenset(range(worlds))
    lineno = starts[0][1]
    try:
        model = KripkeStructure(worlds, edges, valuation)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from None
    if any(w not in range(worlds) for w in team):
        raise ParseError("kripke team leaves the worlds", lineno, 1)
    return model, team


def _world_clause(part: str, starts, at: int) -> tuple[list[str], frozenset[int]]:
    """Split ``val NAME { w ... }`` or ``team { w ... }``, which sits at
    offset at of a block body, into the words before the brace and the
    listed worlds; text after the brace is an error."""
    open_b, close_b = part.find("{"), part.find("}")
    if open_b < 0 or close_b < open_b:
        raise ParseError(f"expected '{{ worlds }}' in {part!r}", _line_at(starts, at), 1)
    tail = part[close_b + 1 :]
    if tail.strip():
        lineno = _line_at(starts, at + len(part) - len(tail.lstrip()))
        raise ParseError(f"trailing text after '}}' in {part!r}", lineno, 1)
    try:
        worlds = frozenset(int(w) for w in part[open_b + 1 : close_b].split())
    except ValueError:
        raise ParseError(f"bad world list in {part!r}", _line_at(starts, at), 1) from None
    return part[:open_b].split(), worlds
