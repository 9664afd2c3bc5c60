"""Command-line front end.

Subcommands: build, zdg, analyze, iso, recognize, verify.  Exit codes:
0 success / affirmative, 1 negative mathematical answer (not isomorphic, not
in class, suite found violations), 2 input error, 3 internal failure (a
broken invariant, or any other exception the program does not expect).
With --json a single JSON document is emitted; its shape is pinned by
schemas/cli_output.schema.json in the repository.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from pathlib import Path

from . import blocks, dsl, jsonout, oracle, treeiso, zdg
from .errors import (
    BadGraph,
    BadOption,
    DislatError,
    DslError,
    HypothesisViolated,
    InternalInconsistency,
    NotInClass,
)
from .lattice import Lattice, adjunct_elements, is_lower_dismantlable, relabel, top_join_reducible

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_lattice(path: str) -> Lattice:
    expr = dsl.parse_file(path)
    return dsl.elaborate(expr)


def _write_json(payload: dict) -> None:
    """The document in one write, with sorted keys: the bytes of
    `json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True)`."""
    sys.stdout.write(jsonout.dumps(payload, sort_keys=True) + "\n")


def _emit(payload: dict, args, text: str | None = None) -> None:
    """JSON document in --json mode, otherwise the human/text rendering."""
    if args.json or text is None:
        _write_json(payload)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------------


def cmd_build(args) -> int:
    lat = _load_lattice(args.file)
    lower = is_lower_dismantlable(lat)
    payload = {
        "command": "build",
        "n": lat.n,
        "bottom": lat.bottom_label,
        "top": lat.top_label,
        "atoms": sorted(lat.labels[x] for x in lat._uppers[lat.bottom]),
        "adjunct_elements": sorted(adjunct_elements(lat)),
        "lower_dismantlable": lower,
        "top_join_reducible": top_join_reducible(lat),
    }
    lines = [
        f"n = {lat.n} (bottom {lat.bottom_label}, top {lat.top_label})",
        f"atoms: {' '.join(payload['atoms'])}",
        f"adjunct elements: {' '.join(payload['adjunct_elements']) or '(none)'}",
        f"lower dismantlable: {lower}",
        f"top join-reducible: {payload['top_join_reducible']}",
    ]
    _emit(payload, args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_zdg(args) -> int:
    lat = _load_lattice(args.file)
    graph = zdg.zero_divisor_graph(lat)
    if args.dot and not args.json:
        sys.stdout.write(graph.to_dot())
        return EXIT_OK
    if not args.json:
        sys.stdout.write(graph.to_json())
        return EXIT_OK
    payload: dict = {"command": "zdg", "vertices": graph.vertices, "edges": graph.edges}  # printed as lists
    if graph.n == 0:
        payload["warning"] = "zero-divisor graph is empty (the lattice has at most one atom)"
    _write_json(payload)
    return EXIT_OK


def cmd_analyze(args) -> int:
    lat = _load_lattice(args.file)
    block = blocks.basic_block(lat)
    payload: dict = {
        "command": "analyze",
        "n": lat.n,
        "basic_block_size": block.n,
        "basic_block_elements": sorted(block.labels),
        "lower_dismantlable": is_lower_dismantlable(lat),
    }
    graph = zdg.zero_divisor_graph(lat)
    try:
        payload["ssc"] = blocks.ssc_equivalence_report(lat, block, graph)
    except HypothesisViolated as exc:
        payload["ssc"] = None
        payload["ssc_hypothesis_violated"] = str(exc)
    payload["zdg_classes"] = blocks.annotate_classes(lat, graph)
    if payload["lower_dismantlable"]:
        classes = blocks.peel_order(treeiso.tree_of_lattice(lat))
        payload["tree_classes"] = {"classes": classes, "peel_order": list(range(len(classes)))}
    else:
        payload["tree_classes"] = None
    text = [f"n = {lat.n}", f"basic block size = {block.n}"]
    if payload["ssc"] is None:
        text.append(f"ssc: hypothesis violated ({payload['ssc_hypothesis_violated']})")
    else:
        text.append(f"ssc report: {payload['ssc']}")
    for c in payload["zdg_classes"]:
        mark = f" (adjunct {c['adjunct_member']})" if c["has_adjunct"] else ""
        text.append("zdg class: {" + " ".join(c["members"]) + "}" + mark)
    _emit(payload, args, "\n".join(text) + "\n")
    return EXIT_OK


def cmd_iso(args) -> int:
    lat1, lat2 = _load_lattice(args.file_a), _load_lattice(args.file_b)
    for which, lat in (("first", lat1), ("second", lat2)):
        if not is_lower_dismantlable(lat):
            raise NotInClass(f"{which} lattice is not lower dismantlable", which=which)
    (code1, order1), (code2, order2) = (treeiso._canonical(treeiso.tree_of_lattice(lat)) for lat in (lat1, lat2))
    isomorphic = code1 == code2
    g1, g2 = zdg.zero_divisor_graph(lat1), zdg.zero_divisor_graph(lat2)
    f = treeiso.graph_iso(g1, g2)
    zdg_isomorphic = f is not None
    # The main theorem: with join-reducible tops the two verdicts coincide.
    tops_join_reducible = top_join_reducible(lat1) and top_join_reducible(lat2)
    if tops_join_reducible and isomorphic != zdg_isomorphic:
        raise InternalInconsistency(
            "join-reducible tops, but lattice and zero-divisor-graph isomorphism disagree"
        )
    payload: dict = {"command": "iso", "isomorphic": isomorphic, "zdg_isomorphic": zdg_isomorphic}
    if isomorphic and args.witness:
        if tops_join_reducible:  # the theorem's route, from the graph isomorphism
            psi = treeiso.lift_to_lattice_iso(lat1, lat2, g1, g2, f)
            payload["witness_route"] = "zdg-lift"
        else:
            psi = treeiso.tree_match_iso(lat1, lat2, order1, order2)
            payload["witness_route"] = "tree-match"
        payload["witness"] = {"kind": "lattice-iso", "map": {k: psi[k] for k in sorted(psi)}}
        payload["witness_verified"] = True
    text = "isomorphic\n" if isomorphic else "not isomorphic\n"
    text += "zero-divisor graphs " + ("isomorphic\n" if zdg_isomorphic else "not isomorphic\n")
    if "witness" in payload:
        pairs = "  ".join(f"{k}->{v}" for k, v in payload["witness"]["map"].items())
        text += f"witness: {pairs}\n"
    _emit(payload, args, text)
    return EXIT_OK if isomorphic else EXIT_NEGATIVE


def cmd_recognize(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise BadGraph("graph JSON nests too deeply to be a graph") from None
    graph = zdg.LabeledGraph.from_json_obj(obj)
    tree = treeiso.recognize(graph)
    if tree is None:
        payload = {"command": "recognize", "in_class": False}
        _emit(payload, args, "not in class\n")
        return EXIT_NEGATIVE
    bad = [v for v in graph.vertices if not dsl.is_element_name(v)]
    if bad:
        raise BadGraph(f"vertex label {bad[0]!r} is not an .adl element name (an identifier, not a keyword)")
    adl = _adl(tree, name="recognized")
    # An isolated vertex is comparable to every other: it lies on the path
    # from the root down to the first branching node, and the printed
    # lattice's zero-divisor graph leaves it out.
    zdg_of_output = all(graph.masks)
    payload = {"command": "recognize", "in_class": True, "adl": adl, "zdg_of_output": zdg_of_output}
    note = (
        "# zdg_of_output: true (the input is the zero-divisor graph of this lattice)\n"
        if zdg_of_output
        else "# zdg_of_output: false (the input has isolated vertices, which this lattice's zero-divisor graph drops)\n"
    )
    _emit(payload, args, note + adl)
    return EXIT_OK


# -- verification suites --------------------------------------------------------
#
# `cmd_verify` walks the tree enumeration once, in ascending size, and hands
# each lattice to every selected suite.  A suite is built from (seed,
# root_min, dump_dir); `add` folds one lattice into its running result, and
# `result` returns a dict with at least "checked", "violations" and
# "first_counterexample".  The walk yields only trees whose root has at least
# root_min children (lower covers of the top); suites that need a
# join-reducible top skip those with fewer than 2.  dump_dir is None unless
# counterexample files are wanted.


class _Item:
    """One enumerated tree.  Its lattice, the lattice's zero-divisor graph
    and its basic block are built on first use, once, and shared by every
    suite."""

    def __init__(self, tree: treeiso.RootedTree):
        self.tree = tree
        self.join_reducible_top = len(tree._children[tree.root]) >= 2

    @functools.cached_property
    def lat(self) -> Lattice:
        return treeiso.lattice_of_tree(self.tree)

    @functools.cached_property
    def graph(self) -> zdg.LabeledGraph:
        return zdg.zero_divisor_graph(self.lat)

    @functools.cached_property
    def block(self) -> Lattice:
        return blocks.basic_block(self.lat)


def _adl(tree: treeiso.RootedTree, name: str = "L") -> str:
    return dsl.serialize(treeiso.adjunct_representation(tree, name=name))


class _Suite:
    def __init__(self, _seed: int, _root_min: int, _dump_dir: str | None):
        self.checked = self.violations = 0
        self.first: dict | None = None

    def result(self) -> dict:
        return {"checked": self.checked, "violations": self.violations, "first_counterexample": self.first}


class _Diam(_Suite):
    def add(self, item: _Item) -> None:
        if item.graph.n == 0:
            return
        self.checked += 1
        report = zdg.connectivity_report(item.graph)
        if not report["connected"] or report["diameter"] > 3:
            self.violations += 1
            self.first = self.first or {"lattice": _adl(item.tree), "report": report}


def _meet_mismatch(lat: Lattice) -> str | None:
    """The first pair (x, y) of nonzero elements, x < y by label, in index
    order, whose meet is the bottom exactly when they are comparable."""
    labels, down, bottom = lat.labels, lat._down, lat.bottom
    for x in range(lat.n):
        for y in range(lat.n):
            if x == bottom or y == bottom or labels[x] >= labels[y]:
                continue
            incomparable = not (down[y] >> x & 1 or down[x] >> y & 1)
            if (lat._meet_idx(x, y) == bottom) != incomparable:
                return f"meet/incomparability mismatch at ({labels[x]}, {labels[y]})"
    return None


class _Lemma400(_Suite):
    def add(self, item: _Item) -> None:
        lat = item.lat
        self.checked += 1
        bad = _meet_mismatch(lat)
        if bad is None and item.join_reducible_top and item.graph.n != lat.n - 2:
            bad = f"|V| = {item.graph.n} but |L| - 2 = {lat.n - 2}"
        if bad:
            self.violations += 1
            self.first = self.first or {"lattice": _adl(item.tree), "reason": bad}


class _Thm704(_Suite):
    def __init__(self, seed: int, root_min: int, dump_dir: str | None):
        super().__init__(seed, root_min, dump_dir)
        # backward direction, once: the lattice made for part sizes has the
        # complete multipartite graph with those parts
        for k in range(2, 5):
            for sizes in itertools.combinations_with_replacement(range(1, 5), k):
                self.checked += 1
                lat = zdg.lattice_from_complete_multipartite(sizes)
                got = zdg.complete_multipartite_parts(zdg.zero_divisor_graph(lat))
                if got != sorted(sizes, reverse=True):
                    self.violations += 1
                    self.first = self.first or {"sizes": list(sizes), "got": got}

    def add(self, item: _Item) -> None:
        # forward direction: top-only adjunct element implies complete multipartite
        if not item.join_reducible_top or adjunct_elements(item.lat) != {item.lat.top_label}:
            return
        self.checked += 1
        if zdg.complete_multipartite_parts(item.graph) is None:
            self.violations += 1
            self.first = self.first or {"lattice": _adl(item.tree)}


class _Ssc(_Suite):
    def add(self, item: _Item) -> None:
        if not item.join_reducible_top:
            return
        lat = item.lat
        self.checked += 1
        report = blocks.ssc_equivalence_report(lat, item.block, item.graph)
        if len(set(report.values())) != 1:
            self.violations += 1
            self.first = self.first or {"lattice": _adl(item.tree), "report": report}


class _T1(_Suite):
    """Every pair (i, j), i <= j, of the lattices with a join-reducible top,
    numbered in enumeration order: the recognized zero-divisor graphs of
    lattice i and of lattice j with its nonzero labels shuffled have equal
    codes exactly when brute force finds a lattice isomorphism.

    Brute force runs only within a bucket of `oracle.lattice_iso_key`, which
    holds the size, so a pair across buckets whose codes differ agrees by
    construction: it is counted, not visited.  Only this size's trees are
    kept, as their canonical codes, and of earlier sizes only the codes of
    their recognized graphs.  The first counterexample is that of the least
    pair (i, j), printed from the trees of lattice i and of the relabelled
    copy."""

    def __init__(self, seed: int, root_min: int, dump_dir: str | None):
        super().__init__(seed, root_min, dump_dir)
        self.rng = random.Random(seed)
        self.root_min = max(root_min, 2)
        self.numbers = itertools.count()  # numbers the lattices
        self.numbers_of_code: dict[str, list[int]] = {}
        # the canonical codes of this size's trees by their lattices' key
        self.buckets: dict[tuple, dict[int, str]] = {}
        self.first_pair: tuple[int, int] | None = None

    def add(self, item: _Item) -> None:
        if not item.join_reducible_top:
            return
        lat, j = item.lat, next(self.numbers)
        self.checked += j + 1
        nonzero = [x for x in lat.labels if x != lat.bottom_label]
        image = nonzero[:]
        self.rng.shuffle(image)  # the bottom keeps its label, so `second` reads back as .adl
        relab = relabel(lat, {lat.bottom_label: lat.bottom_label, **dict(zip(nonzero, image))})
        key = oracle.lattice_iso_key(lat)
        if next(iter(self.buckets), key)[0] != key[0]:  # a new size
            self.buckets = {}
        self.buckets.setdefault(key, {})[j] = treeiso.canonical_code(item.tree)
        self.numbers_of_code.setdefault(treeiso.canonical_code(treeiso.recognize(item.graph)), []).append(j)
        code = treeiso.canonical_code(treeiso.recognize(zdg.zero_divisor_graph(relab)))
        equal = self.numbers_of_code.get(code, [])  # the i whose code is that of relabeled lattice j
        bucket = self.buckets[key]  # relab shares lat's index arrays, so its key is key
        # a violation has fast != slow: equal codes outside the bucket, or brute force disagreeing within it
        bad = [i for i in equal if i not in bucket]
        lats = ((i, treeiso.lattice_of_tree(treeiso.tree_from_code(c))) for i, c in bucket.items())  # one at a time
        bad += [i for i, lat_i in lats if (i in equal) == (oracle.brute_lattice_iso(lat_i, relab) is None)]
        if not bad:
            return
        self.violations += len(bad)
        i = min(bad)
        if self.first_pair is not None and self.first_pair < (i, j):
            return
        self.first_pair = (i, j)
        if i in bucket:
            first = treeiso.tree_from_code(bucket[i])
        else:  # outside the bucket: only a counterexample pays to enumerate it again
            first = next(itertools.islice(oracle.enumerate_rooted_trees(lat.n - 1, self.root_min), i, None))
        fast = i in equal
        second = treeiso.tree_of_lattice(relab)  # relab's bottom is still "0", which _adl prints
        self.first = {"first": _adl(first), "second": _adl(second), "codes_equal": fast, "brute": not fast}


class _BlockConfluence(_Suite):
    """`basic_block` against the closed form of the fixed points of deletion
    (`blocks.fixed_point_form`), which the README proves.  All fixed points
    are isomorphic, so only label-level confluence can fail: the fixed point
    is unique iff each leaf-ending class has one member."""

    def __init__(self, seed: int, root_min: int, dump_dir: str | None):
        super().__init__(seed, root_min, dump_dir)
        self.dump_dir = dump_dir
        self.dump_path: str | None = None
        self.label_confluent = 0

    def add(self, item: _Item) -> None:
        kept, leaf_classes = blocks.fixed_point_form(item.tree)
        base = [item.lat.bottom_label, item.lat.top_label, *kept]
        got, want = sorted(item.block.labels), sorted(base + [max(c) for c in leaf_classes])
        if got != want:
            raise InternalInconsistency(f"basic_block keeps {got}; the closed form of the fixed points says {want}")
        self.checked += 1
        if all(len(c) == 1 for c in leaf_classes):
            self.label_confluent += 1
        elif self.first is None:
            adl = _adl(item.tree, name="counterexample")
            self.first = {
                "lattice": adl,
                "fixed_points": sorted(sorted(base + list(pick)) for pick in itertools.product(*leaf_classes)),
                "isomorphic_fixed_points": True,
            }
            if self.dump_dir is not None:
                self.dump_path = str(Path(self.dump_dir) / "block_confluence_counterexample.adl")
                Path(self.dump_path).write_text(adl, encoding="utf-8")

    def result(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.checked - self.label_confluent,
            "label_confluent": self.label_confluent,
            "iso_confluent": self.checked,
            "first_counterexample": self.first,
            "counterexample_file": self.dump_path,
        }


_SUITES = {
    "diam": _Diam,
    "lemma400": _Lemma400,
    "thm704": _Thm704,
    "ssc": _Ssc,
    "t1": _T1,
    "block-confluence": _BlockConfluence,
}


def _run_suites(names: list[str], max_nodes: int, seed: int, root_min: int, dump_dir: str | None) -> dict:
    """The named suites over lattices of at most `max_nodes` elements, from
    one walk of the tree enumeration in ascending size.  Each lattice is
    handed to every suite in turn; only t1 keeps its tree's code past that,
    to the end of its size."""
    suites = {name: _SUITES[name](seed, root_min, dump_dir) for name in names}
    for item in map(_Item, oracle.enumerate_rooted_trees(max_nodes - 1, root_min)):
        for suite in suites.values():
            suite.add(item)
    return {name: suite.result() for name, suite in suites.items()}


def cmd_verify(args) -> int:
    if args.max_nodes < 2:
        raise BadOption(f"--max-nodes must be at least 2, got {args.max_nodes}")
    if args.dump_dir is not None and not Path(args.dump_dir).is_dir():
        raise BadOption(f"--dump-dir {args.dump_dir!r} is not a directory")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = _run_suites(names, args.max_nodes, args.seed, args.root_min_children, args.dump_dir)
    worst = EXIT_NEGATIVE if any(result["violations"] for result in results.values()) else EXIT_OK
    payload = {"command": "verify", "max_nodes": args.max_nodes, "suites": results}
    lines = []
    for name, result in results.items():
        status = "ok" if not result["violations"] else f"{result['violations']} violation(s)"
        lines.append(f"{name}: checked {result['checked']}, {status}")
        if result.get("counterexample_file"):
            lines.append(f"  counterexample dumped to {result['counterexample_file']}")
    _emit(payload, args, "\n".join(lines) + "\n")
    return worst


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """When `main` sets `json`, a usage error is a BadOption, which it prints
    as one error document; otherwise argparse prints the usage and exits 2."""

    json = False

    def error(self, message: str):
        if _Parser.json:
            raise BadOption(message)
        super().error(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse fills a new namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a single JSON document")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized relabeling in verify")

    parser = _Parser(prog="dislat", description=__doc__)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="parse + elaborate an .adl file: size, atoms, adjunct elements, class flags")
    p.add_argument("file")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("zdg", parents=[common], help="emit the zero-divisor graph")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="DOT instead of JSON")
    p.set_defaults(fn=cmd_zdg)

    p = sub.add_parser("analyze", parents=[common],
                       help="basic block, SSC report, classes, peel order")
    p.add_argument("file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("iso", parents=[common],
                       help="decide lattice and zero-divisor-graph isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--witness", action="store_true",
                   help="construct and verify a lattice isomorphism")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("recognize", parents=[common],
                       help="reconstruct a lattice from a graph JSON file")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("verify", parents=[common], help="run an exhaustive theorem suite")
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--max-nodes", type=int, default=8, help="largest lattice size enumerated")
    p.add_argument("--root-min-children", type=int, default=0,
                   help="restrict enumeration to trees whose root has at least this many children")
    p.add_argument("--dump-dir", default=None,
                   help="write counterexample .adl files here (by default none are written)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    options = argv[: argv.index("--")] if "--" in argv else argv
    _Parser.json = any(len(a) > 2 and "--json".startswith(a) for a in options)  # argparse takes a prefix
    args = argparse.Namespace(json=_Parser.json)  # for a usage error
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except DslError as exc:
        _fail(args, exc, line=exc.line, col=exc.col)
        return EXIT_INPUT
    except NotInClass as exc:
        _fail(args, exc, which=exc.which)
        return EXIT_INPUT
    except (InternalInconsistency,) as exc:
        _fail(args, exc)
        return EXIT_INTERNAL
    except (DislatError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _fail(args, exc)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program itself, not of the input
        _fail(args, exc)
        return EXIT_INTERNAL


def _fail(args, exc: Exception, **extra) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc), **extra}}
    if args.json:
        _write_json(payload)
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
