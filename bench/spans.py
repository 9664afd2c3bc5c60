"""Per-layer timing of dislat, recorded from outside the package.

`Tracer.install` wraps every public function of the dislat modules and
rebinds each module-level reference to it, so calls between modules and
within one module are both seen.  Each wrapped call is a span; its self time
is its duration minus the time of the spans it called.  Generator functions
are not wrapped (their time stays with the caller), except that the trees
yielded by `oracle.enumerate_rooted_trees` are counted.  Spans are summed in
memory per function and written out once.

Run the `dislat` command line with tracing, writing the sums as JSON:

    PYTHONPATH=src python3 bench/spans.py OUT.json verify --suite all --max-nodes 10
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("lattice", "dsl", "zdg", "blocks", "treeiso", "oracle", "cli")


class Tracer:
    """Span sums per wrapped function, plus the counted generators' items."""

    def __init__(self) -> None:
        # name -> [calls, self seconds, elements]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._child_time: list[float] = []

    def install(self) -> None:
        """Replace dislat's public functions by timing wrappers."""
        modules = {short: importlib.import_module(f"dislat.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name.startswith("_"):
                    continue
                if short == "cli" and name != "main":
                    continue  # the subcommands are cli's own time
                key = f"{short}.{name}"
                if key == "oracle.enumerate_rooted_trees":
                    wrappers[fn] = self._counting("oracle.trees_yielded", fn)
                elif not inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self._span(key, fn)
        for mod in (*modules.values(), importlib.import_module("dislat")):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])

    def _span(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._child_time
        # build_from_covers also sums the sizes of the lattices it builds.
        counts_elements = key == "lattice.build_from_covers"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - children
                if counts_elements and result is not None:
                    stats[2] += result.n

        return wrapper

    def _counting(self, key: str, fn):
        self.counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return wrapper

    def snapshot(self) -> dict:
        return {
            "spans": {k: {"calls": c, "self_ms": s * 1000.0, "elements": e} for k, (c, s, e) in self.stats.items()},
            "counts": dict(self.counts),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum of several snapshots (one per process)."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for snap in snapshots:
        for key, rec in snap["spans"].items():
            acc = spans.setdefault(key, {"calls": 0, "self_ms": 0.0, "elements": 0})
            for field in acc:
                acc[field] += rec[field]
        for key, n in snap["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return {"spans": spans, "counts": counts}


def metric(snapshot: dict, name: str) -> float:
    """A per-layer metric by name: `<module>.<function>.<field>`, a counted
    generator's name, or `cli.self_ms` for cli.main's own time."""
    if name in snapshot["counts"]:
        return snapshot["counts"][name]
    if name == "cli.self_ms":
        name = "cli.main.self_ms"
    key, field = name.rsplit(".", 1)
    return snapshot["spans"].get(key, {}).get(field, 0)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from dislat import cli

    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
