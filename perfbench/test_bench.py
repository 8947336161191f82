"""Checks of the benchmark itself (not part of the tlk test suite).

    python3 -m pytest perfbench -q

Smoke-sized: each traced run sends 24 requests once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402
from workloads import make_requests  # noqa: E402

WORKLOADS = ("mc", "oracle", "search")
SMOKE = "24"


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--requests", SMOKE],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_verdicts_and_counters(workload):
    """Two processes (so two hash seeds) with one seed agree exactly."""
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert first["verdicts"] == second["verdicts"]
    for name in bench.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


def test_every_module_reports_on_its_workload():
    layers = {w: _traced(w, 3)["metrics"] for w in WORKLOADS}
    for name, _ in bench.PER_LAYER:
        assert any(layers[w][name] > 0 for w in WORKLOADS), name
    assert layers["mc"]["evaluator.steps"] > 0 and layers["mc"]["so_bridge.steps"] == 0
    assert layers["oracle"]["so_bridge.steps"] > 0 and layers["oracle"]["evaluator.calls"] == 0
    assert layers["search"]["solver.pairs"] > 0
    assert layers["search"]["solver.pairs"] == layers["search"]["evaluator.calls"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_requests_depend_only_on_seed(workload):
    a = make_requests(workload, 11, 12)
    b = make_requests(workload, 11, 12)
    c = make_requests(workload, 12, 12)
    assert [r.payload for r in a] == [r.payload for r in b]
    assert [r.payload for r in a] != [r.payload for r in c]
    assert [r.kind for r in a] == [r.kind for r in c]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_rejects_a_flipped_verdict(workload):
    for req in make_requests(workload, 5, 12):
        verdict = bench.run_request(req, bench._no_span, bench._new_counts())
        assert reference.check(req, verdict), req.payload
        if isinstance(verdict, bool):
            assert not reference.check(req, not verdict), req.payload
        elif verdict in ("unsat", "valid"):
            assert not reference.check(req, "sat" if verdict == "unsat" else "cex")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_probe_runs_no_program_code():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hostspeed; hostspeed.warm_probe(); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tlk'))"],
        cwd=HERE, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_latencies_are_rescaled_by_the_probes(monkeypatch):
    """A host probed at half the reference speed halves every latency."""
    monkeypatch.setattr(bench, "probe", lambda: 2.0 * hostspeed.REFERENCE_SECONDS)
    verdicts, raw, scaled = bench.send_all(make_requests("mc", 5, 12))
    assert len(verdicts) == len(raw) == len(scaled) == 12
    assert scaled == pytest.approx([lat / 2.0 for lat in raw])
