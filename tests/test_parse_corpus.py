"""A pinned corpus of parser outcomes.

About 5000 seeded inputs: random token strings in all four languages,
with and without a vocabulary, and the printed text of random formulas
of each language, whole and cut short.  Each input's outcome -- the
``repr`` of the AST, or the error with its line and column -- is hashed
in blocks of ``BLOCK`` inputs, and the block digests are pinned, so any
change to what the parser accepts, builds or reports shows up here.
Block i covers the inputs ``_corpus()[i * BLOCK:(i + 1) * BLOCK]``.  A
second set of digests pins, for every input that parses, the measures
of ``syntax`` and the printed text.
"""

from __future__ import annotations

import hashlib
import random

from helpers import random_fo_formula, random_mtl_formula, random_so_sentence, random_team_formula
from tlk import syntax as S

LANGUAGES = ("fo", "team", "mtl", "so")
SYMBOLS = ["(", ")", "(", ")", ",", ".", ":", "=", "&", "|", "~", "!", "<>", "[]", "->", "<->",
           "\\/", "[", "]"]
IDENTS = ["P", "R", "Q", "F", "G", "c", "x", "y", "z", "p", "q", "dep", "inc", "exc", "indep",
          "mydep", "S", "X", "E", "A", "NE", "E2", "A2", "Ef", "Af", "Ep", "Ap", "top", "bot",
          "poly", "scaled"]
BLOCK = 100


def _vocabularies():
    delta = S.parse("A x. A y. (!P(x,y) | P(x,y))", "fo", S.Vocabulary({"P": 2}))
    custom = S.DependencyRegistry([S.DependencySignature("mydep", 2, delta)])
    return (
        None,
        S.Vocabulary({"P": 1, "R": 2, "Q": 0, "p": 0}, {"F": 1, "c": 0, "G": 2}, True, custom),
        S.Vocabulary({"P": 1, "R": 2, "dep": 1}, {"c": 0}, False,
                     S.DependencyRegistry(include_builtins=False)),
        # predicates shadow the builtin dependencies of the same name
        S.Vocabulary({"P": 1, "R": 2, "dep": 1, "inc": 2}),
    )


def _token_string(rng: random.Random) -> str:
    tokens = []
    for _ in range(rng.randint(1, 25)):
        roll = rng.random()
        if roll < 0.45:
            tokens.append(rng.choice(SYMBOLS))
        elif roll < 0.92:
            tokens.append(rng.choice(IDENTS))
        else:
            tokens.append(str(rng.randint(0, 3)))
    return rng.choice((" ", "")).join(tokens)


def _printed(rng: random.Random, i: int) -> tuple[str, str]:
    language = LANGUAGES[i % 4]
    if language == "fo":
        phi = random_fo_formula(rng, rng.randint(1, 10), ("x", "y"))
    elif language == "team":
        phi = random_team_formula(rng, rng.randint(1, 12), ("x", "y", "z"))
    elif language == "mtl":
        phi = random_mtl_formula(rng, rng.randint(1, 10), 3)
    else:
        phi = random_so_sentence(rng, rng.randint(2, 8))
    return S.format_formula(phi), language


def _corpus():
    """(text, language, vocabulary index) triples, in a fixed order."""
    rng = random.Random(21)
    out = []
    for i in range(3000):
        out.append((_token_string(rng), LANGUAGES[i % 4], i // 4 % 4))
    for i in range(500):
        text, language = _printed(rng, i)
        out.append((text, language, 0))
        out.append((text, language, 1 + i % 3))
        out.append((text[: rng.randrange(len(text))], language, 0))
        out.append((text, LANGUAGES[(i + 1 + i // 4) % 4], 0))
    return out


def _outcome(text: str, language: str, vocab) -> str:
    try:
        return repr(S.parse(text, language, vocab))
    except ValueError as exc:  # ParseError carries its line and column
        return f"{type(exc).__name__}: {exc}"


def _digests() -> list[str]:
    vocabs = _vocabularies()
    lines = [f"{t!r} {lang} {v}: {_outcome(t, lang, vocabs[v])}" for t, lang, v in _corpus()]
    return [
        hashlib.sha256("\n".join(lines[i:i + BLOCK]).encode()).hexdigest()[:16]
        for i in range(0, len(lines), BLOCK)
    ]


PINNED = [
    "ef6d975d9af4ef81", "e55ee826e2ba28a7", "c2a05160dba4c6ce", "947ec0ad499abd4e",
    "3d7a048e45edbed8", "0ca40706cd44a692", "f21c0b4e4cb6fe57", "59b19095ebc315ef",
    "93e3c278d6fd4371", "752816dbf2553682", "46edb94bf5dde3b1", "2d8d3bcc1175d5e2",
    "3f70e0f294276074", "d742b7f47e4dea39", "40cd4a056e9486c5", "aff10cb2caf646e6",
    "9c1373f0a65addc5", "a959526b7aee4d6c", "eaf6fa3e4e85510f", "28105f4363b6e22a",
    "512d399863ddd599", "dfd8bd6a2bb7bfd5", "1e2064545ae23f68", "f185893c0a068494",
    "2afb30390eec850f", "83206c0544257423", "790e6f8fea9696c1", "f6a72a349efc1395",
    "78fef3f7ab22fc1a", "4eaa8f6bcae1314d", "f4264d938bda7906", "5dd416925f6e5b08",
    "9420c8c12227e796", "4a53c6a83402a992", "f93a75c30879541c", "775d564dd7cf29c5",
    "89db3dd4833d12d3", "6cbe888a97b16dd6", "10afc68941ea1d52", "601417625da2cf5f",
    "d9de4391e3fd3283", "c6705010f64d210b", "a547857f749714d7", "9ecf0e1d1b844219",
    "f517c099f2a2d1a8", "c388cd258134a542", "c92074be3a10602a", "9309160a28d8cc67",
    "c742ca497bd1b87b", "cde294831ef5c10d",
]


def test_parser_outcomes_match_the_pinned_corpus():
    assert _digests() == PINNED


def _measures(phi: S.Formula) -> str:
    return " ".join(str(value) for value in (
        S.size(phi), S.width(phi), S.quantifier_rank(phi), S.modal_depth(phi),
        sorted(S.free_vars(phi)), sorted(S.free_relation_vars(phi)),
        sorted(S.free_function_vars(phi)), sorted(S.prop_names(phi)),
        repr(S.format_formula(phi)),
    ))


def _measure_digests() -> list[str]:
    """Block digests of the measures and printed text of every corpus
    input that parses, in corpus order."""
    vocabs = _vocabularies()
    lines = []
    for text, language, v in _corpus():
        try:
            phi = S.parse(text, language, vocabs[v])
        except ValueError:
            continue
        lines.append(f"{text!r} {language} {v}: {_measures(phi)}")
    return [
        hashlib.sha256("\n".join(lines[i:i + BLOCK]).encode()).hexdigest()[:16]
        for i in range(0, len(lines), BLOCK)
    ]


MEASURES_PINNED = [
    "634e7942aae68ad3", "84ca17099cd5fe7c", "542fb100e05f5707", "31e0aabc9a5e58b2",
    "0f3a412511080228", "6b6d7132c39cdd89", "d77db7f0f31fdc6a", "91e4a67ff0c48c4e",
    "17ef9674f8db8aa9", "38d8c856f8500dd4", "95e585fad0e1207c", "6cb6e3ec1f4592fd",
    "543347107a7fc48e",
]


def test_measures_and_printed_text_match_the_pinned_corpus():
    assert _measure_digests() == MEASURES_PINNED
