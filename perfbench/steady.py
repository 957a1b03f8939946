"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/steady.py --workload engine-sweep --seeds 1-10 [--seconds 15] [--out FILE]

For every metric it prints the median over the runs and the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
BENCHMARK.json. ``--out`` writes the runs, the summary and the
environment (commit, Python, numpy, CPU count) as JSON. Runs are made
one after another, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    ).stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        runs.append({"seed": seed, "exit": done.returncode, "wall_s": wall, **result})
        print(f"seed {seed}: exit {done.returncode}, {wall:.1f} s, failed {result.get('failed')}", file=sys.stderr)
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)

    names = list(runs[0].get("metrics", {}))
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
        if len(values) >= 2:
            summary[name] = summarize(values)
            bound = bounds.get(name)
            flag = "" if bound is None or summary[name]["spread"] < bound / 3 else "  <-- above bound/3"
            print(
                f"{name:<42} median {summary[name]['median']:>14.6f}  spread {summary[name]['spread']:.4f}"
                f"  bound {bound}{flag}"
            )
    if args.out:
        record = {
            "workload": args.workload,
            "seconds": seconds,
            "trace": args.trace,
            "environment": environment(),
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
