"""Repeat the benchmark over several seeds and report, for every metric, the
median and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  The runs
are untraced and measure for the `run_seconds` of BENCHMARK.json.

    python3 bench/spread.py --workload single --seeds 1-10

Before each run a fixed pure-Python loop is timed over a few windows, so the
noise of the host is recorded beside the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
LOOP_WINDOWS = 3


def cpu_loop() -> float:
    """Seconds for a fixed amount of pure-Python work (about 0.4 s)."""
    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median if median else 0.0


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])
    runs, loops = [], []
    for seed in seeds_of(args.seeds):
        loops += [cpu_loop() for _ in range(LOOP_WINDOWS)]
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {values}", flush=True)
    print(f"{'metric':40s} {'median':>12s} {'spread':>7s}")
    for name, rec in runs[0]["metrics"].items():
        median, share = spread([r["metrics"][name]["value"] for r in runs])
        print(f"{name:40s} {median:12.6g} {share:7.3f} {rec['unit']}")
    median, share = spread(loops)
    print(f"{'cpu loop (host noise)':40s} {median:12.6g} {share:7.3f} s  "
          f"range {min(loops):.3f}-{max(loops):.3f} over {len(loops)} windows")
    fails = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(fails)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
