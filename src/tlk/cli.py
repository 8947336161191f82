"""The ``tlk`` command line.

Subcommands::

    parse       check and reprint a formula
    mc          model-check a team (or modal-team) formula
    mc-so       model-check a second-order formula
    translate   so: compile a team formula to second-order logic
                st: standard translation of a modal formula
    dnf         expand into disjunctive normal form
    sat         bounded satisfiability search
    valid       bounded validity search
    reduce      ptl-sat / ptl-mc hardness reductions

Exit codes: 0 for true/sat/valid verdicts, 1 for false/unsat/
counterexample verdicts, 2 when a work budget ran out or a formula is
nested too deeply to process, 64 for usage and syntax errors, 66 for
unreadable input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import syntax as S
from .evaluator import Budget, BudgetExceeded, EvalStats, eval_mtl, eval_team
from .mtl_bridge import (
    reduce_ptl_mc_to_fo_mc,
    reduce_ptl_sat_to_mc,
    standard_translation,
)
from .normal_form import dnf_expand, reconstruct
from .so_bridge import (
    EMPTY_SO_ASSIGNMENT,
    eval_so,
    parse_so_assignment,
    translate_eta,
    translate_zeta,
)
from .solver import (
    Counterexample,
    ResourceExhausted,
    Satisfiable,
    UnsatUpTo,
    ValidUpTo,
    sat_bounded,
    sat_fo2,
    valid_bounded,
)
from .structures import Structure, Team, parse_model_file
from .syntax import ParseError, SparseBound, Vocabulary, parse, parse_vocabulary

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64
EXIT_NOFILE = 66


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rendering


def _render_tuple(t) -> str:
    return "(" + ",".join(str(v) for v in t) + ")"


def render_structure(structure: Structure) -> str:
    lines = [f"domain {structure.domain_size}"]
    for name in sorted(structure.relations):
        tuples = " ".join(_render_tuple(t) for t in sorted(structure.relations[name]))
        body = f"{{ {tuples} }}" if tuples else "{ }"
        lines.append(f"rel {name} {structure.arities[name]} {body}")
    for name in sorted(structure.functions):
        entries = " ".join(
            f"{_render_tuple(k)}->{v}"
            for k, v in sorted(structure.functions[name].items())
        )
        body = f"{{ {entries} }}" if entries else "{ }"
        lines.append(f"fun {name} {structure.arities[name]} {body}")
    return "\n".join(lines)


def render_team(team: Team, name: str = "T") -> str:
    header = " ".join(team.domain)
    rows = " ".join(
        _render_tuple(tuple(s.get(v) for v in team.domain)) for s in team.sorted_rows()
    )
    body = f"{{ {rows} }}" if rows else "{ }"
    if header:
        return f"{name} = team {header} {body}"
    return f"{name} = team {body}"


def render_vocabulary(vocab: Vocabulary) -> str:
    lines = []
    for name in sorted(vocab.predicates):
        lines.append(f"pred {name} {vocab.predicates[name]}")
    for name in sorted(vocab.functions):
        lines.append(f"func {name} {vocab.functions[name]}")
    for name in sorted(vocab.dependencies.fixed):
        sig = vocab.dependencies.fixed[name]
        lines.append(f'dependency {name} {sig.arity} "{S.format_formula(sig.delta)}"')
    lines.append(f"equality {'on' if vocab.equality_enabled else 'off'}")
    return "\n".join(lines)


def _structure_json(structure: Structure) -> dict:
    return {
        "domain": structure.domain_size,
        "relations": {
            name: sorted([list(t) for t in structure.relations[name]])
            for name in sorted(structure.relations)
        },
        "functions": {
            name: {str(list(k)): v for k, v in sorted(structure.functions[name].items())}
            for name in sorted(structure.functions)
        },
    }


def _team_json(team: Team) -> dict:
    return {
        "variables": list(team.domain),
        "rows": [[s.get(v) for v in team.domain] for s in team.sorted_rows()],
    }


def _stats_json(stats: EvalStats) -> dict:
    return {
        "nodes": stats.nodes,
        "splits": stats.splits,
        "hooks": stats.hooks,
        "alternations": stats.alternations,
    }


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _budget(args) -> Budget | None:
    return Budget(args.budget) if getattr(args, "budget", None) else None


def _load_vocab(args) -> Vocabulary | None:
    if getattr(args, "vocab", None):
        return parse_vocabulary(_read(args.vocab))
    return None


def _inferred_vocabulary(phi: S.Formula) -> Vocabulary:
    preds: dict[str, int] = {}
    for node in S.walk(phi):
        if isinstance(node, S.Pred):
            preds[node.name] = len(node.args)
    return Vocabulary(predicates=preds, equality_enabled=True)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args) -> int:
    vocab = _load_vocab(args)
    phi = parse(args.formula, args.language, vocab)
    text = S.format_formula(phi)
    payload = {
        "formula": text,
        "size": S.size(phi),
        "width": S.width(phi),
        "quantifier_rank": S.quantifier_rank(phi),
        "modal_depth": S.modal_depth(phi),
    }
    _emit(args, payload, text)
    return EXIT_TRUE


def _cmd_mc(args) -> int:
    model = parse_model_file(_read(args.structure))
    stats = EvalStats()
    budget = _budget(args)
    if args.language == "mtl":
        kripke, default_team = model.kripke(args.kripke)
        team = default_team
        phi = parse(args.formula, "mtl", None)
        verdict = eval_mtl(kripke, team, phi, budget, stats=stats)
    else:
        if model.structure is None:
            raise ValueError("the model file declares no first-order structure")
        vocab = _load_vocab(args) or model.structure.vocabulary()
        phi = parse(args.formula, "team", vocab)
        team = model.team(args.team)
        verdict = eval_team(model.structure, team, phi, budget, stats=stats)
    payload = {"verdict": verdict, "stats": _stats_json(stats)}
    _emit(args, payload, "true" if verdict else "false")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_mc_so(args) -> int:
    model = parse_model_file(_read(args.structure))
    if model.structure is None:
        raise ValueError("the model file declares no first-order structure")
    vocab = _load_vocab(args) or model.structure.vocabulary()
    phi = parse(args.formula, "so", vocab)
    assignment = EMPTY_SO_ASSIGNMENT
    if args.assign:
        assignment = parse_so_assignment(_read(args.assign))
    stats = EvalStats()
    verdict = eval_so(model.structure, assignment, phi, _budget(args), stats=stats)
    payload = {"verdict": verdict, "stats": _stats_json(stats)}
    _emit(args, payload, "true" if verdict else "false")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _auto_rel_name(phi: S.Formula) -> str:
    used = S.pred_names(phi)
    if "R" not in used:
        return "R"
    i = 0
    while f"R{i}" in used:
        i += 1
    return f"R{i}"


def _cmd_translate(args) -> int:
    if args.kind == "st":
        phi = parse(args.formula, "mtl", None)
        out = standard_translation(phi, args.var)
    else:
        vocab = _load_vocab(args)
        phi = parse(args.formula, "team", vocab)
        xs = tuple(p for p in args.vars.split(",") if p) if args.vars else None
        rel = args.rel or _auto_rel_name(phi)
        if args.sparse is None:
            out = translate_eta(phi, xs, rel)
        else:
            bound = None if args.sparse == "auto" else SparseBound.from_string(args.sparse)
            out = translate_zeta(phi, xs, rel, bound=bound, team_size=args.team_size)
    text = S.format_formula(out)
    _emit(args, {"formula": text}, text)
    return EXIT_TRUE


def _cmd_dnf(args) -> int:
    vocab = _load_vocab(args)
    phi = parse(args.formula, "team", vocab)
    dnf = dnf_expand(phi, args.size_budget)
    text = S.format_formula(reconstruct(dnf))
    payload = {"formula": text, "disjuncts": len(dnf.disjuncts)}
    _emit(args, payload, text)
    return EXIT_TRUE


def _cmd_sat(args) -> int:
    vocab = _load_vocab(args)
    phi = parse(args.formula, "team", vocab)
    if vocab is None:
        vocab = _inferred_vocabulary(phi)
    stats = EvalStats()
    budget = _budget(args)
    if args.method == "two-var":
        outcome = sat_fo2(phi, vocab, args.max_domain, budget, stats=stats)
    else:
        outcome = sat_bounded(phi, vocab, args.max_domain, budget, stats=stats)
    return _report_sat(args, outcome, stats)


def _report_sat(args, outcome, stats: EvalStats) -> int:
    if isinstance(outcome, Satisfiable):
        witness_text = "\n".join(
            [render_structure(outcome.structure), render_team(outcome.team)]
        )
        payload = {
            "verdict": "sat",
            "witness": {
                "structure": _structure_json(outcome.structure),
                "team": _team_json(outcome.team),
            },
            "stats": _stats_json(stats),
        }
        _emit(args, payload, f"sat\n{witness_text}")
        return EXIT_TRUE
    if isinstance(outcome, UnsatUpTo):
        payload = {
            "verdict": "unsat-up-to",
            "max_domain": outcome.max_domain,
            "witness": None,
            "stats": _stats_json(stats),
        }
        _emit(args, payload, f"unsat up to domain {outcome.max_domain}")
        return EXIT_FALSE
    return _report_exhausted(args, outcome)


def _report_exhausted(args, outcome) -> int:
    if not isinstance(outcome, ResourceExhausted):
        raise TypeError(f"unexpected search outcome {outcome!r}")
    payload = {"verdict": "resource-exhausted", "detail": outcome.detail}
    _emit(args, payload, f"resource exhausted: {outcome.detail}")
    return EXIT_RESOURCE


def _cmd_valid(args) -> int:
    vocab = _load_vocab(args)
    phi = parse(args.formula, "team", vocab)
    if vocab is None:
        vocab = _inferred_vocabulary(phi)
    stats = EvalStats()
    outcome = valid_bounded(phi, vocab, args.max_domain, _budget(args), stats=stats)
    if isinstance(outcome, ValidUpTo):
        payload = {
            "verdict": "valid-up-to",
            "max_domain": outcome.max_domain,
            "witness": None,
            "stats": _stats_json(stats),
        }
        _emit(args, payload, f"valid up to domain {outcome.max_domain}")
        return EXIT_TRUE
    if isinstance(outcome, Counterexample):
        witness_text = "\n".join(
            [render_structure(outcome.structure), render_team(outcome.team)]
        )
        payload = {
            "verdict": "counterexample",
            "witness": {
                "structure": _structure_json(outcome.structure),
                "team": _team_json(outcome.team),
            },
            "stats": _stats_json(stats),
        }
        _emit(args, payload, f"counterexample\n{witness_text}")
        return EXIT_FALSE
    return _report_exhausted(args, outcome)


def _cmd_reduce(args) -> int:
    if args.kind == "ptl-sat":
        phi = parse(args.formula, "mtl", None)
        instance = reduce_ptl_sat_to_mc(phi, equality=not args.no_equality)
    else:
        model = parse_model_file(_read(args.structure))
        kripke, team = model.kripke(args.kripke)
        phi = parse(args.formula, "mtl", None)
        instance = reduce_ptl_mc_to_fo_mc(kripke, team, phi)
    formula_text = S.format_formula(instance.formula)
    sections = [
        "# vocabulary",
        render_vocabulary(instance.vocabulary),
        "# structure",
        render_structure(instance.structure),
        render_team(instance.team),
        "# formula",
        formula_text,
    ]
    payload = {
        "vocabulary": render_vocabulary(instance.vocabulary),
        "structure": _structure_json(instance.structure),
        "team": _team_json(instance.team),
        "formula": formula_text,
        "prop_vars": instance.prop_vars,
    }
    if args.check:
        stats = EvalStats()
        verdict = eval_team(
            instance.structure, instance.team, instance.formula, _budget(args), stats=stats
        )
        payload["verdict"] = verdict
        payload["stats"] = _stats_json(stats)
        sections.append("# verdict")
        sections.append("true" if verdict else "false")
        _emit(args, payload, "\n".join(sections))
        return EXIT_TRUE if verdict else EXIT_FALSE
    _emit(args, payload, "\n".join(sections))
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# Wiring


def build_parser() -> _Parser:
    top = _Parser(prog="tlk", description="team logic toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--seed", type=int, default=None,
        help="accepted for interface stability; all searches are deterministic",
    )
    common.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for interface stability; evaluation is single-process",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="check and reprint a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--language", choices=["team", "fo", "mtl", "so"], default="team")
    p.add_argument("--vocab", help="vocabulary sidecar file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("mc", parents=[common], help="model-check a formula over a team")
    p.add_argument("--structure", required=True, help="model file")
    p.add_argument("--formula", required=True)
    p.add_argument("--language", choices=["team", "mtl"], default="team")
    p.add_argument("--team", default="T", help="team name in the model file")
    p.add_argument("--kripke", default="K", help="kripke block name (modal checking)")
    p.add_argument("--vocab", help="vocabulary sidecar file")
    p.add_argument("--budget", type=int, help="work cap; exceeding it exits 2")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("mc-so", parents=[common], help="model-check a second-order formula")
    p.add_argument("--structure", required=True, help="model file")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", help="second-order assignment file")
    p.add_argument("--vocab", help="vocabulary sidecar file")
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_mc_so)

    p = sub.add_parser("translate", parents=[common], help="compile between logics")
    p.add_argument("kind", choices=["so", "st"])
    p.add_argument("--formula", required=True)
    p.add_argument("--vocab", help="vocabulary sidecar file (so)")
    p.add_argument("--vars", help="comma-separated team variables x-bar (so)")
    p.add_argument("--rel", help="team relation name (so; default: first unused R, R0, ...)")
    p.add_argument(
        "--sparse", nargs="?", const="auto", default=None, metavar="BOUND",
        help="emit sparse quantifiers; BOUND like poly:1,2 or scaled:4,2 (so)",
    )
    p.add_argument("--team-size", type=int, help="intended team size for the default bound")
    p.add_argument("--var", default="x", help="world variable (st)")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("dnf", parents=[common], help="disjunctive normal form")
    p.add_argument("--formula", required=True)
    p.add_argument("--vocab", help="vocabulary sidecar file")
    p.add_argument("--size-budget", type=int, default=100000)
    p.set_defaults(fn=_cmd_dnf)

    p = sub.add_parser("sat", parents=[common], help="bounded satisfiability search")
    p.add_argument("--formula", required=True)
    p.add_argument("--vocab", help="vocabulary sidecar file")
    p.add_argument("--max-domain", type=int, default=3)
    p.add_argument("--method", choices=["search", "two-var"], default="search")
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("valid", parents=[common], help="bounded validity search")
    p.add_argument("--formula", required=True)
    p.add_argument("--vocab", help="vocabulary sidecar file")
    p.add_argument("--max-domain", type=int, default=3)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_valid)

    p = sub.add_parser("reduce", parents=[common], help="hardness reductions")
    p.add_argument("kind", choices=["ptl-sat", "ptl-mc"])
    p.add_argument("--formula", required=True)
    p.add_argument("--no-equality", action="store_true",
                   help="ptl-sat: use the unary-predicate variant")
    p.add_argument("--structure", help="model file with a kripke block (ptl-mc)")
    p.add_argument("--kripke", default="K")
    p.add_argument("--check", action="store_true", help="also run the reduced instance")
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_reduce)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reduce" and args.kind == "ptl-mc" and not args.structure:
            raise _UsageError("reduce ptl-mc requires --structure")
        return args.fn(args)
    except _UsageError as exc:
        print(f"tlk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"tlk: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_NOFILE
    except BudgetExceeded as exc:
        print(f"tlk: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        # the parser, printer and evaluators recurse once per nesting level
        print("tlk: formula nested too deeply", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"tlk: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
