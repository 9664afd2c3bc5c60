"""Command-line front end.

Subcommands: build, zdg, analyze, iso, recognize, verify.  Exit codes:
0 success / affirmative, 1 negative mathematical answer (not isomorphic, not
in class, suite found violations), 2 input error, 3 internal invariant
failure.  With --json a single JSON document is emitted; its shape is pinned
by schemas/cli_output.schema.json in the repository.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

from . import blocks, dsl, oracle, treeiso, zdg
from .errors import (
    BadOption,
    DislatError,
    DslError,
    HypothesisViolated,
    InternalInconsistency,
    NotInClass,
)
from .lattice import (
    Lattice,
    adjunct_representation,
    classify,
    induced_sublattice,
    is_lower_dismantlable,
    relabel,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_lattice(path: str) -> Lattice:
    expr = dsl.parse_file(path)
    return dsl.elaborate(expr)


def _emit(payload: dict, args, text: str | None = None) -> None:
    """JSON document in --json mode, otherwise the human/text rendering."""
    if args.json or text is None:
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------------


def cmd_build(args) -> int:
    lat = _load_lattice(args.file)
    cls = classify(lat)
    lower = lat.n >= 2 and is_lower_dismantlable(lat)
    payload = {
        "command": "build",
        "n": lat.n,
        "bottom": lat.bottom_label,
        "top": lat.top_label,
        "atoms": sorted(cls.atoms),
        "adjunct_elements": sorted(cls.adjunct_elements),
        "lower_dismantlable": lower,
        "top_join_reducible": len(lat.lower_covers(lat.top_label)) >= 2,
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
    payload: dict = {"command": "zdg", **graph.to_json_obj()}
    if graph.n == 0:
        payload["warning"] = "zero-divisor graph is empty (the lattice is a chain)"
    _emit(payload, args, graph.to_json())
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
    try:
        payload["ssc"] = blocks.ssc_equivalence_report(lat, block)
    except HypothesisViolated as exc:
        payload["ssc"] = None
        payload["ssc_hypothesis_violated"] = str(exc)
    graph = zdg.zero_divisor_graph(lat)
    payload["zdg_classes"] = blocks.annotate_classes(lat, graph).to_json_obj()["classes"]
    if payload["lower_dismantlable"]:
        tree = treeiso.tree_of_lattice(lat)
        payload["tree_classes"] = blocks.peel_order(tree).to_json_obj()
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
    g1, g2 = zdg.zero_divisor_graph(lat1), zdg.zero_divisor_graph(lat2)
    isomorphic = treeiso.iso_decide(g1, g2)
    payload: dict = {"command": "iso", "isomorphic": isomorphic}
    if isomorphic and args.witness:
        f = oracle.brute_graph_iso(g1, g2)
        if f is None:
            raise InternalInconsistency("codes matched but brute search found no graph isomorphism")
        phi = treeiso.align_adjuncts(lat1, lat2, f)
        psi = treeiso.lift_to_lattice_iso(lat1, lat2, phi)
        payload["witness"] = psi.to_json_obj()
        payload["witness_verified"] = True
    text = "isomorphic\n" if isomorphic else "not isomorphic\n"
    if "witness" in payload:
        pairs = "  ".join(f"{k}->{v}" for k, v in payload["witness"]["map"].items())
        text += f"witness: {pairs}\n"
    _emit(payload, args, text)
    return EXIT_OK if isomorphic else EXIT_NEGATIVE


def cmd_recognize(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    graph = zdg.LabeledGraph.from_json_obj(obj)
    tree = treeiso.recognize(graph)
    if tree is None:
        payload = {"command": "recognize", "in_class": False}
        _emit(payload, args, "not in class\n")
        return EXIT_NEGATIVE
    lat = treeiso.lattice_of_tree(tree)
    expr = adjunct_representation(lat, name="recognized")
    adl = dsl.serialize(expr)
    payload = {"command": "recognize", "in_class": True, "adl": adl}
    _emit(payload, args, adl)
    return EXIT_OK


# -- verification suites --------------------------------------------------------
#
# Every suite takes (max_nodes, seed, root_ge2, dump_dir) and returns a dict
# with at least "checked", "violations" and "first_counterexample".


def _suite_diam(max_nodes: int, _seed: int, root_ge2: bool, _dump_dir: str) -> dict:
    checked = violations = 0
    first = None
    for lat in oracle.enumerate_lower_dismantlable(max_nodes, join_reducible_top=root_ge2):
        graph = zdg.zero_divisor_graph(lat)
        if graph.n == 0:
            continue
        checked += 1
        report = zdg.connectivity_report(graph)
        if not report["connected"] or report["diameter"] > 3:
            violations += 1
            first = first or {"lattice": dsl.serialize(adjunct_representation(lat)), "report": report}
    return {"checked": checked, "violations": violations, "first_counterexample": first}


def _suite_lemma400(max_nodes: int, _seed: int, root_ge2: bool, _dump_dir: str) -> dict:
    checked = violations = 0
    first = None
    for lat in oracle.enumerate_lower_dismantlable(max_nodes, join_reducible_top=root_ge2):
        checked += 1
        bottom = lat.bottom_label
        bad = None
        for x in lat.labels:
            for y in lat.labels:
                if x >= y or x == bottom or y == bottom:
                    continue
                if (lat.meet(x, y) == bottom) != lat.incomparable(x, y):
                    bad = f"meet/incomparability mismatch at ({x}, {y})"
        if len(lat.lower_covers(lat.top_label)) >= 2:
            graph = zdg.zero_divisor_graph(lat)
            if graph.n != lat.n - 2:
                bad = f"|V| = {graph.n} but |L| - 2 = {lat.n - 2}"
        if bad:
            violations += 1
            first = first or {"lattice": dsl.serialize(adjunct_representation(lat)), "reason": bad}
    return {"checked": checked, "violations": violations, "first_counterexample": first}


def _suite_thm704(max_nodes: int, _seed: int, _root_ge2: bool, _dump_dir: str) -> dict:
    checked = violations = 0
    first = None
    sizes_pool = []
    for k in range(2, 5):
        sizes_pool.extend(itertools.combinations_with_replacement(range(1, 5), k))
    for sizes in sizes_pool:
        checked += 1
        want = sorted(sizes, reverse=True)
        lat = zdg.lattice_from_complete_multipartite(sizes)
        got = zdg.complete_multipartite_parts(zdg.zero_divisor_graph(lat))
        if got != want:
            violations += 1
            first = first or {"sizes": list(sizes), "got": got}
    # forward direction: top-only adjunct element implies complete multipartite
    for lat in oracle.enumerate_lower_dismantlable(max_nodes, join_reducible_top=True):
        adjuncts = classify(lat).adjunct_elements
        if adjuncts != {lat.top_label}:
            continue
        checked += 1
        if zdg.complete_multipartite_parts(zdg.zero_divisor_graph(lat)) is None:
            violations += 1
            first = first or {"lattice": dsl.serialize(adjunct_representation(lat))}
    return {"checked": checked, "violations": violations, "first_counterexample": first}


def _suite_ssc(max_nodes: int, _seed: int, _root_ge2: bool, _dump_dir: str) -> dict:
    checked = violations = 0
    first = None
    for lat in oracle.enumerate_lower_dismantlable(max_nodes, join_reducible_top=True):
        checked += 1
        report = blocks.ssc_equivalence_report(lat)
        if len(set(report.values())) != 1:
            violations += 1
            first = first or {"lattice": dsl.serialize(adjunct_representation(lat)), "report": report}
    return {"checked": checked, "violations": violations, "first_counterexample": first}


def _suite_t1(max_nodes: int, seed: int, _root_ge2: bool, _dump_dir: str) -> dict:
    rng = random.Random(seed)
    lats = list(oracle.enumerate_lower_dismantlable(max_nodes, join_reducible_top=True))
    relabeled = []
    for lat in lats:
        perm = list(lat.labels)
        rng.shuffle(perm)
        relabeled.append(relabel(lat, dict(zip(lat.labels, perm))))
    codes = [
        treeiso.canonical_code(treeiso.recognize(zdg.zero_divisor_graph(lat)))
        for lat in lats
    ]
    codes_relab = [
        treeiso.canonical_code(treeiso.recognize(zdg.zero_divisor_graph(lat)))
        for lat in relabeled
    ]
    checked = violations = 0
    first = None
    for i, j in itertools.combinations_with_replacement(range(len(lats)), 2):
        checked += 1
        fast = codes[i] == codes_relab[j]
        slow = oracle.brute_lattice_iso(lats[i], relabeled[j]) is not None
        if fast != slow:
            violations += 1
            first = first or {
                "first": dsl.serialize(adjunct_representation(lats[i])),
                "second": dsl.serialize(adjunct_representation(relabeled[j])),
                "iso_decide": fast,
                "brute": slow,
            }
    return {"checked": checked, "violations": violations, "first_counterexample": first}


def _suite_block_confluence(max_nodes: int, _seed: int, root_ge2: bool, dump_dir: str) -> dict:
    checked = label_confluent = iso_confluent = 0
    first = None
    dump_path = None
    for lat in oracle.enumerate_lower_dismantlable(max_nodes, join_reducible_top=root_ge2):
        checked += 1
        fixed_points = blocks.explore_deletion_orders(lat)
        if len(fixed_points) == 1:
            label_confluent += 1
            iso_confluent += 1
            continue
        codes = {
            treeiso.canonical_code(treeiso.tree_of_lattice(induced_sublattice(lat, fp)))
            for fp in fixed_points
        }
        if len(codes) == 1:
            iso_confluent += 1
        if first is None:
            adl = dsl.serialize(adjunct_representation(lat, name="counterexample"))
            first = {
                "lattice": adl,
                "fixed_points": sorted(sorted(fp) for fp in fixed_points),
                "isomorphic_fixed_points": len(codes) == 1,
            }
            dump_path = str(Path(dump_dir) / "block_confluence_counterexample.adl")
            Path(dump_path).write_text(adl, encoding="utf-8")
    return {
        "checked": checked,
        "violations": checked - label_confluent,
        "label_confluent": label_confluent,
        "iso_confluent": iso_confluent,
        "first_counterexample": first,
        "counterexample_file": dump_path,
    }


_SUITES = {
    "diam": _suite_diam,
    "lemma400": _suite_lemma400,
    "thm704": _suite_thm704,
    "ssc": _suite_ssc,
    "t1": _suite_t1,
    "block-confluence": _suite_block_confluence,
}


def cmd_verify(args) -> int:
    if args.max_nodes < 2:
        raise BadOption(f"--max-nodes must be at least 2, got {args.max_nodes}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    root_ge2 = (args.root_min_children or 0) >= 2
    results = {}
    worst = EXIT_OK
    for name in names:
        result = _SUITES[name](args.max_nodes, args.seed, root_ge2, args.dump_dir)
        results[name] = result
        if result["violations"]:
            worst = EXIT_NEGATIVE
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a single JSON document")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized relabeling in verify")

    parser = argparse.ArgumentParser(prog="dislat", description=__doc__)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="parse + elaborate an .adl file and classify the lattice")
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

    p = sub.add_parser("iso", parents=[common], help="decide zero-divisor-graph isomorphism")
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
    p.add_argument("--root-min-children", type=int, default=None,
                   help="restrict enumeration to trees whose root has at least this many children")
    p.add_argument("--dump-dir", default=".", help="where counterexample .adl files go")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
    except (DislatError, OSError, json.JSONDecodeError) as exc:
        _fail(args, exc)
        return EXIT_INPUT


def _fail(args, exc: Exception, **extra) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc), **extra}}
    if args.json:
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
