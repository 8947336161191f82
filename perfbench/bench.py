"""One benchmark process: set up, run one workload, check, report.

A closed loop with one client: each request is sent when the previous
verdict is back.  Requests go through the same public calls the ``tlk``
command line makes:

* ``mc``: ``parse_model_file`` -> ``parse`` -> ``eval_team`` /
  ``eval_mtl``, and ``parse`` -> ``reduce_ptl_sat_to_mc`` ->
  ``eval_team`` (``tlk mc``, ``tlk reduce ptl-sat --check``);
* ``oracle``: ``parse_model_file`` -> ``parse`` -> ``translate_eta`` or
  ``translate_zeta`` -> ``team_relation`` -> ``eval_so`` (the
  second-order cross-check);
* ``search``: ``parse`` -> ``sat_bounded`` / ``valid_bounded`` at
  domain 2, ``sat_fo2`` at model bound 3 (``tlk sat``, ``tlk valid``).

Usage (from the repository root)::

    python3 perfbench/bench.py --workload mc --seed 1 --seconds 24 --trace 0
    python3 perfbench/bench.py --workload mc --seed 1 --setup-only
    python3 perfbench/bench.py --workload mc --seed 1 --trace 1 --requests 24

It prints one JSON object on its last line; ``run.py`` aggregates.
"""

from __future__ import annotations

import time

from hostspeed import probe, scale, warm_probe

# The host's speed just before set-up starts (see hostspeed.py).
_PROBE0 = warm_probe()
_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tlk import evaluator as tlk_evaluator  # noqa: E402
from tlk import solver as tlk_solver  # noqa: E402
from tlk import syntax as S  # noqa: E402
from tlk.evaluator import Budget, BudgetExceeded, EvalStats, eval_mtl, eval_team  # noqa: E402
from tlk.mtl_bridge import reduce_ptl_sat_to_mc  # noqa: E402
from tlk.so_bridge import (  # noqa: E402
    SOAssignment,
    eval_so,
    sufficient_bound,
    team_relation,
    translate_eta,
    translate_zeta,
)
from tlk.solver import (  # noqa: E402
    Counterexample,
    ResourceExhausted,
    Satisfiable,
    UnsatUpTo,
    ValidUpTo,
    sat_bounded,
    sat_fo2,
    valid_bounded,
)
from tlk.structures import parse_model_file  # noqa: E402
from tlk.syntax import Vocabulary  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import XY, make_requests, predicate_arities  # noqa: E402

# Requests per pass.  A run repeats passes of fresh requests until its
# time is up, so no request is sent twice (a cache shared across
# requests gains only what it would gain on distinct inputs).  Sized so
# a pass takes about a second on a 2-core machine.
PASS_SIZE = {"mc": 1200, "oracle": 400, "search": 60}
MIN_PASSES = 8
# A traced run sends this many passes' worth of requests twice: once
# untraced, once traced.
TRACE_PASSES = 4
# A pass times the host-speed probe between requests at least this often.
PROBE_EVERY_SECONDS = 0.05
# Requests sent untimed at set-up, from outside the timed stream, so
# lazy caches (the second-order candidate pools) fill before timing.
WARMUP = {"mc": 16, "oracle": 32, "search": 6}

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("syntax.parse_ms", "ms"),
    ("structures.model_parse_ms", "ms"),
    ("structures.team_restrict_ms", "ms"),
    ("structures.team_restrict_calls", "count"),
    ("structures.team_ops_ms", "ms"),
    ("evaluator.eval_fo_ms", "ms"),
    ("evaluator.eval_fo_calls", "count"),
    ("evaluator.self_ms", "ms"),
    ("evaluator.calls", "count"),
    ("evaluator.ms_per_call", "ms"),
    ("evaluator.steps", "count"),
    ("evaluator.nodes", "count"),
    ("evaluator.splits", "count"),
    ("evaluator.hooks", "count"),
    ("evaluator.exists_candidates", "count"),
    ("so_bridge.translate_ms", "ms"),
    ("so_bridge.sentence_size", "count"),
    ("so_bridge.eval_so_ms", "ms"),
    ("so_bridge.steps", "count"),
    ("so_bridge.nodes", "count"),
    ("so_bridge.candidates", "count"),
    ("so_bridge.alternations", "count"),
    ("mtl_bridge.reduce_ms", "ms"),
    ("normal_form.dnf_expand_ms", "ms"),
    ("normal_form.disjuncts", "count"),
    ("normal_form.build_gamma_ms", "ms"),
    ("solver.self_ms", "ms"),
    ("solver.pairs", "count"),
    ("solver.steps", "count"),
    ("tracing.overhead", "ratio"),
)

# Span names whose self time makes up each per-layer "_ms" metric.
SPAN_METRICS = {
    "syntax.parse_ms": "syntax.parse",
    "structures.model_parse_ms": "structures.model_parse",
    "structures.team_restrict_ms": "structures.team_restrict",
    "structures.team_ops_ms": "structures.team_ops",
    "evaluator.eval_fo_ms": "evaluator.eval_fo",
    "evaluator.self_ms": "evaluator",
    "so_bridge.translate_ms": "so_bridge.translate",
    "so_bridge.eval_so_ms": "so_bridge.eval_so",
    "mtl_bridge.reduce_ms": "mtl_bridge.reduce",
    "normal_form.dnf_expand_ms": "normal_form.dnf_expand",
    "normal_form.build_gamma_ms": "normal_form.build_gamma",
    "solver.self_ms": "solver",
}

# Counters that must repeat exactly between runs with the same seed.
DETERMINISTIC = (
    "evaluator.steps", "evaluator.nodes", "evaluator.splits", "evaluator.hooks",
    "so_bridge.steps", "so_bridge.nodes", "solver.pairs",
)

_NO_SPAN = contextlib.nullcontext()


def _no_span(name):
    return _NO_SPAN


# ---------------------------------------------------------------------------
# The timed calls


def run_request(req, span, counts: dict):
    """Send one request; return its verdict, or None if it failed.
    ``counts`` receives the program's own counters (Budget.used and
    EvalStats)."""
    budget = Budget(req.budget)
    stats = EvalStats()
    p = req.payload
    kind = req.kind
    try:
        if kind in ("team", "hook", "modal"):
            with span("structures.model_parse"):
                model = parse_model_file(p["model"])
            if kind == "modal":
                kripke, team = model.kripke("K")
                with span("syntax.parse"):
                    phi = S.parse(p["formula"], "mtl", None)
                with span("evaluator"):
                    verdict = eval_mtl(kripke, team, phi, budget, stats=stats)
            else:
                with span("syntax.parse"):
                    phi = S.parse(p["formula"], "team", model.structure.vocabulary())
                with span("evaluator"):
                    verdict = eval_team(model.structure, model.team("T"), phi, budget, stats=stats)
        elif kind == "ptl":
            with span("syntax.parse"):
                phi = S.parse(p["formula"], "mtl", None)
            with span("mtl_bridge.reduce"):
                inst = reduce_ptl_sat_to_mc(phi, equality=p["equality"])
            with span("evaluator"):
                verdict = eval_team(inst.structure, inst.team, inst.formula, budget, stats=stats)
        elif kind in ("eta", "zeta"):
            with span("structures.model_parse"):
                model = parse_model_file(p["model"])
            A, T = model.structure, model.team("T")
            with span("syntax.parse"):
                phi = S.parse(p["formula"], "team", A.vocabulary())
            with span("so_bridge.translate"):
                if kind == "eta":
                    sentence = translate_eta(phi, XY, rel="R0")
                else:
                    bound = sufficient_bound(phi, XY, team_size=len(T))
                    sentence = translate_zeta(phi, XY, rel="R0", bound=bound)
            J = SOAssignment.of({"R0": team_relation(A, T, XY)})
            with span("so_bridge.eval_so"):
                verdict = eval_so(A, J, sentence, budget, stats=stats)
            counts["so_bridge.sentence_size"] += S.size(sentence)
        else:
            with span("syntax.parse"):
                phi = S.parse(p["formula"], "team", None)
            vocab = Vocabulary(predicates=predicate_arities(phi))
            with span("solver"):
                if kind in ("sat", "unsat"):
                    outcome = sat_bounded(phi, vocab, 2, budget, stats=stats)
                elif kind in ("valid", "tautology"):
                    outcome = valid_bounded(phi, vocab, 2, budget, stats=stats)
                else:
                    outcome = sat_fo2(phi, vocab, 3, budget, stats=stats)
            verdict = _search_verdict(outcome)
    except (BudgetExceeded, ValueError, KeyError):
        # budget exhaustion or a tlk error (ParseError is a ValueError,
        # UnknownDependencyError a KeyError): the request failed
        verdict = None
    _count(req, budget, stats, counts)
    return verdict


def _search_verdict(outcome):
    if isinstance(outcome, ResourceExhausted):
        return None
    if isinstance(outcome, Satisfiable):
        return ("sat", outcome)
    if isinstance(outcome, Counterexample):
        return ("cex", outcome)
    if isinstance(outcome, UnsatUpTo):
        return "unsat"
    if isinstance(outcome, ValidUpTo):
        return "valid"
    raise TypeError(f"unexpected solver outcome {outcome!r}")


def _count(req, budget: Budget, stats: EvalStats, counts: dict) -> None:
    kind = req.kind
    if kind in ("eta", "zeta"):
        counts["so_bridge.steps"] += budget.used
        counts["so_bridge.nodes"] += stats.nodes
        counts["so_bridge.candidates"] += budget.used - stats.nodes
        counts["so_bridge.alternations"] += stats.alternations
        return
    counts["evaluator.steps" if kind in ("team", "hook", "modal", "ptl") else "solver.steps"] += budget.used
    counts["evaluator.nodes"] += stats.nodes
    counts["evaluator.splits"] += stats.splits
    counts["evaluator.hooks"] += stats.hooks
    if kind in ("team", "hook", "ptl"):
        counts["evaluator.exists_candidates"] += budget.used - stats.nodes - stats.splits


def _new_counts() -> dict:
    return {name: 0 for name, unit in PER_LAYER if unit == "count"}


# ---------------------------------------------------------------------------
# Tracing hooks


def install_tracing(tracer: Tracer) -> None:
    """Wrap the module-level names the evaluator and solver call."""
    for attr in ("supplement", "duplicate", "team_image", "single_predicate_structure"):
        wrapper = tracer.wrap("structures.team_ops", getattr(tlk_evaluator, attr))
        tracer.install(tlk_evaluator, attr, wrapper)
    tracer.install(
        tlk_evaluator, "successor_teams",
        tracer.wrap_generator("structures.team_ops", tlk_evaluator.successor_teams),
    )
    tracer.install(
        tlk_evaluator, "team_restrict",
        tracer.wrap("structures.team_restrict", tlk_evaluator.team_restrict),
    )
    # eval_fo recurses through its global name in tlk.evaluator; one
    # shared wrapper in both modules keeps only the outermost call.
    eval_fo = tracer.wrap_outermost("evaluator.eval_fo", tlk_evaluator.eval_fo)
    tracer.install(tlk_evaluator, "eval_fo", eval_fo)
    tracer.install(tlk_solver, "eval_fo", eval_fo)
    tracer.install(tlk_solver, "eval_team", tracer.wrap("evaluator", tlk_solver.eval_team))

    def disjuncts(dnf):
        tracer.counts["normal_form.disjuncts"] += len(dnf.disjuncts)

    tracer.install(
        tlk_solver, "dnf_expand",
        tracer.wrap("normal_form.dnf_expand", tlk_solver.dnf_expand, on_result=disjuncts),
    )
    tracer.install(
        tlk_solver, "build_gamma",
        tracer.wrap("normal_form.build_gamma", tlk_solver.build_gamma),
    )


# ---------------------------------------------------------------------------
# Runs


def load_pass(workload: str, seed: int, count: int, index: int):
    """The distinct requests of pass ``index``, generated untimed.
    Callers drop the previous pass's requests first."""
    gc.unfreeze()
    gc.collect()
    requests = make_requests(workload, seed, count, start=index * count)
    gc.collect()
    # The requests are the client's data, not the program's: keep them
    # out of the collector's scans so they do not slow the program down.
    gc.freeze()
    return requests


def warm_up(workload: str) -> None:
    """Send a few requests from outside the timed stream, so lazy caches
    (second-order candidate pools) are filled at set-up.  They are the
    same for every seed, so set-up time does not vary with the seed."""
    count = WARMUP[workload]
    for req in make_requests(workload, 0, count, start=-count):
        run_request(req, _no_span, _new_counts())


def send_all(requests):
    """One closed-loop pass; returns (verdicts, latencies, scaled
    latencies).  The host-speed probe runs between requests, outside
    their timing; each request's scaled latency is its latency at the
    reference speed, from the probes on either side of it."""
    clock = time.perf_counter
    counts = _new_counts()
    verdicts = []
    latencies = []
    scaled = []
    pending = 0  # requests since the last probe
    before = probe()
    mark = clock()
    for req in requests:
        t = clock()
        verdicts.append(run_request(req, _no_span, counts))
        end = clock()
        latencies.append(end - t)
        pending += 1
        if end - mark >= PROBE_EVERY_SECONDS:
            after = probe()
            factor = scale(before, after)
            scaled += (lat * factor for lat in latencies[-pending:])
            pending, before, mark = 0, after, clock()
    if pending:
        factor = scale(before, probe())
        scaled += (lat * factor for lat in latencies[-pending:])
    return verdicts, latencies, scaled


def traced_pass(requests):
    """One pass with spans on; returns (seconds, per-layer dict,
    verdicts, per-module shares of self time)."""
    tracer = Tracer()
    install_tracing(tracer)
    counts = _new_counts()
    verdicts = []
    try:
        start = time.perf_counter()
        for req in requests:
            with tracer.span("request"):
                verdicts.append(run_request(req, tracer.span, counts))
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    inclusive, own, number = tracer.totals()
    n = len(requests)
    layer = {metric: own.get(name, 0.0) * 1000.0 / n for metric, name in SPAN_METRICS.items()}
    layer.update((name, value / n) for name, value in counts.items())
    layer["normal_form.disjuncts"] = tracer.counts["normal_form.disjuncts"] / n
    layer["structures.team_restrict_calls"] = number.get("structures.team_restrict", 0) / n
    layer["evaluator.eval_fo_calls"] = number.get("evaluator.eval_fo", 0) / n
    calls = number.get("evaluator", 0)
    layer["evaluator.calls"] = calls / n
    layer["evaluator.ms_per_call"] = (
        inclusive.get("evaluator", 0.0) * 1000.0 / calls if calls else 0.0
    )
    spans = tracer.spans
    pairs = sum(1 for s in spans if s[0] == "evaluator" and spans[s[3]][0] == "solver")
    layer["solver.pairs"] = pairs / n
    # Each module's share of the time requests took; "request" is the
    # benchmark's own glue between the calls.
    total = sum(own.values())
    shares: dict[str, float] = {}
    for name, seconds in own.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds / total
    return elapsed, layer, verdicts, shares


def check_verdicts(requests, verdicts) -> list:
    """Compare each verdict with its reference; returns the mismatches."""
    return [
        [req.index, req.kind, req.payload.get("formula")]
        for req, verdict in zip(requests, verdicts)
        if verdict is not None and not reference.check(req, verdict)
    ]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = -(-q * len(sorted_values) // 100)
    return sorted_values[max(0, min(len(sorted_values), int(rank)) - 1)]


def tail_percentile(count: int) -> float:
    """The highest of these percentiles with at least ten samples beyond it."""
    for q in (99.0, 98.0, 95.0, 90.0, 75.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def _comparable(verdict):
    """A verdict in a form that compares across runs."""
    if isinstance(verdict, tuple):
        w = verdict[1]
        rows = sorted(tuple(s.items) for s in w.team.rows)
        rels = sorted((k, sorted(v)) for k, v in w.structure.relations.items())
        return [verdict[0], w.structure.domain_size, rels, rows]
    return verdict


def run_timed(workload: str, seed: int, count: int, requests, seconds: float) -> dict:
    """Closed-loop passes until ``seconds`` of timed work (at least
    MIN_PASSES), each over ``count`` fresh requests, so no request is
    sent twice.  Throughput is requests decided over timed seconds, and
    latencies are percentiles, both over every request of the run: on a
    shared host these pooled figures repeat better between runs than
    medians over passes, whose requests differ in cost.  The metrics are
    at the reference host speed; ``raw`` holds them as timed."""
    latencies = {"raw": [], "scaled": []}
    seconds_sent = {"raw": 0.0, "scaled": 0.0}
    decided = 0
    mismatches = []
    timed = 0.0
    index = 0
    while index < MIN_PASSES or timed < seconds:
        if index:
            requests = None  # release the previous pass before generating
            requests = load_pass(workload, seed, count, index)
        verdicts, raw, scaled = send_all(requests)
        timed += sum(raw)
        decided += sum(v is not None for v in verdicts)
        for key, values in (("raw", raw), ("scaled", scaled)):
            seconds_sent[key] += sum(values)
            # a failed request misses every latency limit
            latencies[key] += (
                lat if v is not None else float("inf") for lat, v in zip(values, verdicts)
            )
        mismatches += check_verdicts(requests, verdicts)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # fixed by the smallest run, so the percentile does not move with speed
    q = tail_percentile(count * MIN_PASSES)
    figures = {}
    for key, values in latencies.items():
        values.sort()
        figures[key] = {
            "throughput_rps": decided / seconds_sent[key],
            "latency_p50_ms": percentile(values, 50.0) * 1000.0,
            "latency_tail_ms": percentile(values, q) * 1000.0,
        }
    attempted = len(latencies["raw"])
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": attempted - decided,
        "passes": index,
        "timed_seconds": timed,
        "host_slowdown": figures["scaled"]["throughput_rps"] / figures["raw"]["throughput_rps"],
        "tail_percentile": q,
        "mismatches": mismatches[:5],
        "raw": figures["raw"],
        "metrics": {**figures["scaled"], "peak_rss_mb": peak_rss_mb},
    }


def run_traced(requests) -> dict:
    """An untraced pass, then a traced pass over the same requests."""
    plain, latencies, _ = send_all(requests)
    traced_seconds, metrics, verdicts, shares = traced_pass(requests)
    metrics["tracing.overhead"] = sum(latencies) / traced_seconds
    comparable = [_comparable(v) for v in verdicts]
    mismatches = check_verdicts(requests, verdicts)
    if comparable != [_comparable(v) for v in plain]:
        mismatches.append("traced and untraced verdicts differ")
    failed = sum(v is None for v in verdicts) + sum(v is None for v in plain)
    return {
        "correct": not mismatches,
        "attempted": 2 * len(requests),
        "failed": failed,
        "passes": 2,
        "mismatches": mismatches[:5],
        "shares": {k: round(v, 4) for k, v in sorted(shares.items())},
        "metrics": metrics,
        "verdicts": comparable,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SIZE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument(
        "--requests", type=int, default=None,
        help="requests per pass (default: the workload's pass size)",
    )
    args = ap.parse_args(argv)

    count = args.requests or PASS_SIZE[args.workload] * (TRACE_PASSES if args.trace else 1)
    requests = load_pass(args.workload, args.seed, count, 0)
    warm_up(args.workload)
    raw_setup = time.perf_counter() - _T0
    out = {"setup_s": raw_setup * scale(_PROBE0, probe()), "raw_setup_s": raw_setup}
    if not args.setup_only:
        if args.trace:
            out.update(run_traced(requests))
        else:
            out.update(run_timed(args.workload, args.seed, count, requests, args.seconds))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
