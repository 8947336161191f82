"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload mc --seeds 1-10

Runs ``run.py`` once per seed (sequentially, from the repository root)
and prints, per metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread at
or above a third of the metric's bound in ``BENCHMARK.json`` is flagged.
The timed metrics as measured, before rescaling to the reference host
speed, are summarised the same way under ``raw.``.  With ``--out`` the
summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run-to-run spread of the benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values: dict[str, list[float]] = {}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [
            *spec["command"], "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        raw = json.loads(lines[-2]).get("raw", {})
        runs.append({"seed": seed, **result, "raw": raw})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in raw.items():
            values.setdefault(f"raw.{name}", []).append(value)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        summary[name] = {
            "median": statistics.median(vals), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "runs": len(vals),
        }
        flag = "" if bound is None or spread < bound / 3 else "  <-- at or above bound/3"
        print(f"{name:18s} median {statistics.median(vals):10.4g}  q1 {q1:10.4g}  "
              f"q3 {q3:10.4g}  spread {spread:6.3f}  bound {bound}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "summary": summary,
                       "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
