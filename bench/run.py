"""Benchmark of dislat, driven from outside the package.

    python3 bench/run.py --workload {sweep,single,witness} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports dislat from `src/`.
The run makes its inputs from the seed, sets up, then repeats whole rounds of
commands: at least MIN_ROUNDS, and more while the next round, at the pace of
the last, still ends within S seconds.  Set-up is also sampled in fresh
interpreters spread over the run.
Every output is checked against bench/inputs.py.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics` --
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A copy of the result with more detail goes to bench/out/.

  sweep    `dislat verify --suite all --max-nodes 10`, one fresh process per
           round, as a user runs it.
  single   build, zdg, analyze, recognize and iso through cli.main --json in
           this process, on fresh 48-72 element lattices every round.
  witness  iso --witness on (lattice, relabeled copy) pairs of 16-40 elements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Rounds every run completes, whatever --seconds says: single and witness
# then time at least 100 commands, so that ten lie beyond the 90th percentile.
# The per-layer metrics cover exactly these rounds, so their counts repeat.
MIN_ROUNDS = {"sweep": 2, "single": 4, "witness": 10}
TAIL_PERCENTILE = 90
SETUP_PROBES = 24

PER_LAYER = (
    "oracle.rooted_tree_codes.self_ms",
    "oracle.trees_yielded",
    "oracle.brute_lattice_iso.self_ms",
    "oracle.brute_graph_iso.self_ms",
    "dsl.parse.self_ms",
    "dsl.elaborate.self_ms",
    "lattice.adjunct.self_ms",
    "lattice.build_from_covers.self_ms",
    "lattice.build_from_covers.calls",
    "lattice.build_from_covers.elements",
    "lattice.induced_sublattice.self_ms",
    "lattice.classify.self_ms",
    "lattice.adjunct_representation.self_ms",
    "zdg.zero_divisor_graph.self_ms",
    "zdg.zero_divisor_graph.calls",
    "zdg.connectivity_report.self_ms",
    "treeiso.recognize.self_ms",
    "treeiso.canonical_code.self_ms",
    "treeiso.lattice_of_tree.self_ms",
    "treeiso.tree_of_lattice.self_ms",
    "treeiso.align_adjuncts.self_ms",
    "treeiso.lift_to_lattice_iso.self_ms",
    "blocks.peel_decomposition.self_ms",
    "blocks.basic_block.self_ms",
    "blocks.basic_block.calls",
    "blocks.is_ssc.self_ms",
    "blocks.peel_order.self_ms",
    "blocks.explore_deletion_orders.self_ms",
    "cli.self_ms",
)

# What a user types as `dislat ...`: the console entry point of the package.
ENTRY_POINT = "import sys; from dislat.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); import dislat.cli\n"
    "for p in sys.argv[1:]:\n"
    "    open(p, 'rb').read()\n"
    "print(time.perf_counter() - t)"
)


class Tally:
    """Outcome of the operations of a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.rounds: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.checked = 0
        self.reasons: list[str] = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, op: inputs.Op, rc: int | None, stdout: str, elapsed: float, error: str | None = None) -> None:
        """Account one operation.

        An operation fails when it raises, prints no JSON document or an error
        document, or its output is rejected; a rejected output is also wrong.
        """
        self.latencies.append(elapsed)
        reason = error
        out = None
        if reason is None:
            try:
                out = json.loads(stdout)
            except ValueError:
                reason = f"exit {rc}, no JSON document on stdout"
        if reason is None and not isinstance(out, dict):
            reason = f"exit {rc}, output is not a JSON object"
        if reason is None and "error" in out:
            error_doc = out["error"] if isinstance(out["error"], dict) else {}
            reason = f"exit {rc}: {error_doc.get('type')}: {error_doc.get('message')}"
        if reason is None:
            self.digest.update(json.dumps(out, sort_keys=True).encode())
            try:
                reason = op.check(rc, out)
            except (KeyError, TypeError, AttributeError) as exc:  # a field missing or of another shape
                reason = f"malformed output: {type(exc).__name__}: {exc}"
            if reason is not None:
                self.wrong += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{op.kind} {' '.join(op.argv)}: {reason}")
        else:
            self.checked += _instances(op, out)


def _instances(op: inputs.Op, out: dict) -> int:
    """Outputs checked by one passing operation: a verify run checks every
    theorem instance its suites count; any other command checks one output."""
    if op.kind == "verify":
        return sum(s["checked"] for s in out["suites"].values())
    return 1


def call_main(main, argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """Run cli.main in this process; (exit code, stdout, seconds, error)."""
    buf = io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escape from cli.main is a failed operation
        error = f"{type(exc).__name__} escaped cli.main: {exc}"
    elapsed = time.perf_counter() - start
    return rc, buf.getvalue(), elapsed, error


def call_process(argv: list[str], env: dict) -> tuple[int | None, str, float, str | None]:
    """Run one `dislat` process; (exit code, stdout, seconds, error)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    error = None
    if proc.returncode not in (0, 1):
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return proc.returncode, proc.stdout, elapsed, error


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure_setup(files: list[str], env: dict, probes: int) -> list[float]:
    """Set-up time of fresh interpreters: import dislat and read the inputs."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, *files], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True)
        samples.append(float(proc.stdout))
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.chdir(ROOT)
    work = os.path.relpath(os.path.join(OUT, f"work-{workload}"), ROOT)
    shutil.rmtree(work, ignore_errors=True)
    # Set-up is timed as a user sees it after installing: with dislat's
    # bytecode cached.  The first import below writes the cache, whatever
    # PYTHONDONTWRITEBYTECODE says, so the figure does not depend on it.
    sys.dont_write_bytecode = False
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = SRC
    tally = Tally()
    tracer = spans.Tracer() if trace else None
    snapshots: list[dict] = []
    try:
        ops = inputs.round_ops(workload, seed, 0, work)
        files = sorted(os.path.join(work, f) for f in os.listdir(work))

        start = time.perf_counter()
        sys.path.insert(0, SRC)
        import dislat.cli

        for path in files:
            with open(path, "rb") as fh:
                fh.read()
        setup = [time.perf_counter() - start]
        if not dislat.cli.__file__.startswith(SRC):
            raise SystemExit(f"dislat was imported from {dislat.cli.__file__}, not from {SRC}")
        if tracer is not None:
            tracer.install()

        start = time.perf_counter()
        round_no = 0
        pace = 0.0  # how long the last round took, generation and checks included
        # No round starts that would, at that pace, end after the time is up.
        while round_no < MIN_ROUNDS[workload] or time.perf_counter() - start + pace <= seconds:
            # The set-up probes are spread over the run, a share before each
            # round and the rest after the last, so that their median does not
            # rest on one spell of the host.
            due = math.ceil(SETUP_PROBES * (time.perf_counter() - start) / seconds)
            setup += measure_setup(files, env, max(0, min(due, SETUP_PROBES) - (len(setup) - 1)))
            round_start = time.perf_counter()
            if round_no:
                ops = inputs.round_ops(workload, seed, round_no, work)
            gc.collect()
            round_time = 0.0
            for op in ops:
                if workload == "sweep":
                    trace_file = os.path.join(work, f"trace-{round_no}.json")
                    cmd = ([sys.executable, os.path.join(BENCH, "spans.py"), trace_file] if trace
                           else [sys.executable, "-c", ENTRY_POINT])
                    rc, stdout, elapsed, error = call_process(cmd + op.argv, env)
                    if trace and round_no < MIN_ROUNDS[workload] and os.path.exists(trace_file):
                        with open(trace_file, encoding="utf-8") as fh:
                            snapshots.append(json.load(fh))
                else:
                    rc, stdout, elapsed, error = call_main(dislat.cli.main, op.argv)
                tally.record(op, rc, stdout, elapsed, error)
                round_time += elapsed
            tally.rounds.append(round_time)
            round_no += 1
            pace = time.perf_counter() - round_start
            if round_no == MIN_ROUNDS[workload]:
                digest = tally.digest.hexdigest()
                if tracer is not None:
                    snapshots.append(tracer.snapshot())
        setup += measure_setup(files, env, SETUP_PROBES - (len(setup) - 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    usage = resource.RUSAGE_CHILDREN if workload == "sweep" else resource.RUSAGE_SELF
    # The timed part of the run per round.  The host alternates between fast
    # and slow spells, so round times fall into two clusters; the mean moved
    # less between runs and between sets of runs than the median or the
    # first quartile did (README, "Why the mean round time").
    wall = sum(tally.rounds) / len(tally.rounds)
    if workload == "sweep":
        # One verify process per round: the median or tail of two or three
        # processes would only repeat the round time.
        p50 = tail = wall
    else:
        p50, tail = statistics.median(tally.latencies), percentile(tally.latencies, TAIL_PERCENTILE)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "checked_per_s": (tally.checked / sum(tally.rounds), "1/s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(tally.rounds), "round_s": tally.rounds, "setup_samples_s": setup,
        "slowest_op_s": max(tally.latencies),
        "checked": tally.checked, "wrong": tally.wrong, "failures": tally.reasons[:20],
        "outputs_sha256": digest,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if trace:
        merged = spans.merge(snapshots)
        detail["trace"] = merged
        metrics = {name: {"value": spans.metric(merged, name), "unit": "ms" if name.endswith("_ms") else "count"}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in end_to_end.items()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{workload}: {tally.attempted} operations in {len(tally.rounds)} rounds, "
          f"{tally.failed} failed, {tally.checked} outputs checked, outputs sha256 {digest[:16]}")
    for reason in tally.reasons[:5]:
        print(f"  failed: {reason}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(MIN_ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dislat", "cli.py")):
        print(f"no dislat sources at {SRC}: run from the root of a dislat checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
