"""Benchmark entry point.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in a fresh process
(``bench.py``), so imports, lazy caches and peak memory belong to that
workload alone.  Set-up is measured in that process and in further
set-up-only processes, and the median is reported.  Timed end-to-end
metrics are rescaled to a reference host speed (``hostspeed.py``); the
line before the result gives them as timed.  The last line of
standard output is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  A verdict that differs from its
reference makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SETUP_SAMPLES = 7
# Every process this run starts ends (or is killed) by this many
# seconds after the start.
DEADLINE_SECONDS = 170


def _child(args: list[str], deadline: float) -> dict:
    # A fixed hash seed removes one source of run-to-run variation (set
    # and dict layouts); the benchmark's tests show the counters and
    # verdicts do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tlk request benchmark")
    ap.add_argument("--workload", required=True, choices=("mc", "oracle", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tlk", "__init__.py")):
        print("error: run from a checkout of the repository (src/tlk is missing)", file=sys.stderr)
        return 2

    from bench import END_TO_END, PER_LAYER

    deadline = time.monotonic() + DEADLINE_SECONDS
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        result = _child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        metrics = result["metrics"]
        if args.trace:
            units = dict(PER_LAYER)
        else:
            setups = [result] + [
                _child([*common, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            result["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": args.workload,
        "passes": result["passes"],
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
    }
    if args.trace:
        info["self_time_shares"] = result["shares"]
    else:
        info["latency_tail_percentile"] = result["tail_percentile"]
        info["latency_samples"] = attempted
        # the metrics as timed, before rescaling to the reference host speed
        info["raw"] = result["raw"]
        info["host_slowdown"] = result["host_slowdown"]
    if result["mismatches"]:
        info["mismatches"] = result["mismatches"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
