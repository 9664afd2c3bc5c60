"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

from dislat import (
    basic_block,
    canonical_code,
    classify,
    complete_multipartite_parts,
    connectivity_report,
    explore_deletion_orders,
    lattice_from_complete_multipartite,
    non_ancestor_graph,
    recognize,
    ssc_equivalence_report,
    tree_of_lattice,
    zero_divisor_graph,
)
from dislat.blocks import neighborhood_classes
from dislat.dsl import elaborate, parse, parse_file, serialize
from dislat.lattice import adjunct_representation, induced_sublattice
from dislat.oracle import (
    brute_graph_iso,
    brute_graph_iso_all,
    brute_lattice_iso,
    enumerate_lower_dismantlable,
    enumerate_rooted_trees,
)
from dislat.treeiso import IsoWitness, align_adjuncts, check_lattice_iso, lift_to_lattice_iso

DATA = Path(__file__).parent / "data"


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


def test_criterion_01_figure3_golden():
    start = time.perf_counter()
    lat = elaborate(parse_file(str(DATA / "ex2.adl")))
    adjuncts = classify(lat).adjunct_elements
    tree_classes = neighborhood_classes(non_ancestor_graph(tree_of_lattice(lat))).member_sets()
    zdg_vertices = set(zero_divisor_graph(lat).vertices)
    elapsed = time.perf_counter() - start
    ok = (
        adjuncts == {"a5", "a6", "a8"}
        and tree_classes
        == {
            frozenset({"a1", "a7"}),
            frozenset({"a2"}),
            frozenset({"a3"}),
            frozenset({"a4"}),
            frozenset({"a5"}),
            frozenset({"a6"}),
            frozenset({"a8"}),
        }
        and zdg_vertices == {f"a{i}" for i in range(1, 8)}
        and elapsed < 1.0
    )
    _report(1, "Figure-3 golden: adjunct elements, classes, zdg vertex set", ok, f"{elapsed:.3f}s")


def test_criterion_02_figure2_golden():
    lat = elaborate(parse_file(str(DATA / "fig2.adl")))
    block = basic_block(lat)
    ok = block.n == 9 and basic_block(block) == block
    _report(2, "Figure-2 golden: 18-element lattice reduces to a 9-element idempotent basic block", ok)


def _population_le9():
    return list(enumerate_lower_dismantlable(9, join_reducible_top=True))


def test_criterion_03_main_theorem_exhaustive():
    start = time.perf_counter()
    lats = _population_le9()
    codes = [canonical_code(recognize(zero_divisor_graph(lat))) for lat in lats]
    mismatches = 0
    pairs = 0
    for i, j in itertools.combinations_with_replacement(range(len(lats)), 2):
        pairs += 1
        if (codes[i] == codes[j]) != (brute_lattice_iso(lats[i], lats[j]) is not None):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 300.0
    _report(
        3,
        "main theorem: zdg isomorphism decides lattice isomorphism, |L| <= 9",
        ok,
        f"{len(lats)} lattices, {pairs} pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_04_corollary_trees():
    trees = list(enumerate_rooted_trees(7))
    graphs = [non_ancestor_graph(t) for t in trees]
    codes = [canonical_code(t) for t in trees]
    mismatches = 0
    for i, j in itertools.combinations_with_replacement(range(len(trees)), 2):
        same = codes[i] == codes[j]
        found = brute_graph_iso(graphs[i], graphs[j]) is not None
        if same != found:
            mismatches += 1
    ok = mismatches == 0
    _report(
        4,
        "corollary: non-ancestor graphs isomorphic iff canonical codes equal, trees <= 7 nodes",
        ok,
        f"{len(trees)} trees, {mismatches} mismatches",
    )


def test_criterion_05_connectivity_diameter():
    violations = checked = 0
    for lat in enumerate_lower_dismantlable(10):
        graph = zero_divisor_graph(lat)
        if graph.n == 0:
            continue
        checked += 1
        report = connectivity_report(graph)
        if not report["connected"] or report["diameter"] > 3:
            violations += 1
    ok = violations == 0
    _report(5, "every nonempty zero-divisor graph is connected with diameter <= 3, |L| <= 10", ok,
            f"{checked} graphs, {violations} violations")


def test_criterion_06_meet_and_count_lemma():
    violations = checked = 0
    for lat in enumerate_lower_dismantlable(10):
        checked += 1
        bottom = lat.bottom_label
        for x, y in itertools.combinations(lat.labels, 2):
            if bottom in (x, y):
                continue
            if (lat.meet(x, y) == bottom) != lat.incomparable(x, y):
                violations += 1
        if len(lat.lower_covers(lat.top_label)) >= 2:
            if zero_divisor_graph(lat).n != lat.n - 2:
                violations += 1
    ok = violations == 0
    _report(6, "meet-zero iff incomparable; |V| = |L|-2 when the top is adjunct, |L| <= 10", ok,
            f"{checked} lattices, {violations} violations")


def test_criterion_07_multipartite_round_trip():
    violations = checked = 0
    for k in range(2, 5):
        for sizes in itertools.combinations_with_replacement(range(1, 5), k):
            checked += 1
            lat = lattice_from_complete_multipartite(sizes)
            got = complete_multipartite_parts(zero_divisor_graph(lat))
            if got != sorted(sizes, reverse=True):
                violations += 1
    ok = violations == 0
    _report(7, "complete multipartite round trip, 2 <= k <= 4, part sizes <= 4", ok,
            f"{checked} part lists, {violations} violations")


def test_criterion_08_ssc_three_way():
    disagreements = checked = 0
    for lat in enumerate_lower_dismantlable(10, join_reducible_top=True):
        checked += 1
        report = ssc_equivalence_report(lat)
        if len(set(report.values())) != 1:
            disagreements += 1
    ok = disagreements == 0
    _report(8, "basic-block-is-self / SSC / singleton-classes agree, |L| <= 10", ok,
            f"{checked} lattices, {disagreements} disagreements")


def test_criterion_09_align_and_lift():
    start = time.perf_counter()
    failures = iso_count = 0
    for lat in _population_le9():
        graph = zero_divisor_graph(lat)
        adjunct_vertices = set(classify(lat).adjunct_elements) & set(graph.vertices)
        x_set = set(classify(lat).adjunct_elements) - {lat.top_label}
        for mapping in brute_graph_iso_all(graph, graph):
            iso_count += 1
            phi = align_adjuncts(lat, lat, IsoWitness("graph-iso", mapping))
            if {phi.mapping[x] for x in adjunct_vertices} != adjunct_vertices:
                failures += 1
                continue
            psi = lift_to_lattice_iso(lat, lat, phi)
            if not check_lattice_iso(lat, lat, psi.mapping):
                failures += 1
            elif any(psi.mapping[x] != phi.mapping[x] for x in x_set):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(9, "every graph isomorphism aligns to adjunct-preserving and lifts to a lattice isomorphism", ok,
            f"{iso_count} isomorphisms, {failures} failures, {elapsed:.1f}s")


def test_criterion_10_block_confluence_reported(tmp_path):
    """The deletion-order-independence conjecture, tested and REPORTED.

    Label-level confluence is refuted at |L| = 5 (measured: 76 of 200
    lattices confluent at |L| <= 9); isomorphism-level confluence holds
    everywhere at this scale.  The criterion asks for the report plus a
    counterexample dump, so the assertions pin the measured outcome and the
    integrity of the reporting machinery.
    """
    total = label_confluent = iso_confluent = 0
    first_dump = None
    first_fixed_points = None
    for lat in enumerate_lower_dismantlable(9):
        total += 1
        fixed_points = explore_deletion_orders(lat)
        subs = {fp: induced_sublattice(lat, fp) for fp in fixed_points}
        # every reported fixed point really is fixed
        assert all(basic_block(sub) == sub for sub in subs.values())
        if len(fixed_points) == 1:
            label_confluent += 1
            iso_confluent += 1
            continue
        codes = {canonical_code(tree_of_lattice(sub)) for sub in subs.values()}
        if len(codes) == 1:
            iso_confluent += 1
        if first_dump is None:
            first_dump = tmp_path / "block_confluence_counterexample.adl"
            first_dump.write_text(serialize(adjunct_representation(lat, name="counterexample")))
            first_fixed_points = fixed_points

    # the dump reproduces a genuinely non-confluent lattice
    dumped_ok = False
    if first_dump is not None:
        relattice = elaborate(parse(first_dump.read_text()))
        dumped_ok = explore_deletion_orders(relattice) == first_fixed_points

    ok = (
        total == 200
        and label_confluent == 76  # measured: the conjecture fails at the label level
        and iso_confluent == 200  # but holds up to isomorphism at this scale
        and dumped_ok
    )
    _report(
        10,
        "deletion-order confluence reported: label-level refuted, counterexample dumped, iso-level holds",
        ok,
        f"{total} lattices, {label_confluent} label-confluent, {iso_confluent} iso-confluent, dump={first_dump}",
    )
