from __future__ import annotations

import itertools

import pytest

from dislat import (
    ClassHasAdjunct,
    HypothesisViolated,
    NoSuchElement,
    basic_block,
    class_has_adjunct,
    classify,
    explore_deletion_orders,
    is_ssc,
    is_structurally_deletable,
    neighborhood_classes,
    non_ancestor_graph,
    peel_decomposition,
    peel_order,
    reassemble,
    ssc_equivalence_report,
    tree_of_lattice,
    zero_divisor_graph,
)
from dislat.blocks import annotate_classes, delete_element
from dislat.oracle import enumerate_lower_dismantlable
from dislat.treeiso import RootedTree


class TestStructurallyDeletable:
    def test_chain_interior_true(self, fig2):
        assert is_structurally_deletable(fig2, "a2")

    def test_survivor_not_deletable(self, fig2):
        reduced = fig2
        for x in ("a2", "a3", "a4"):
            reduced = delete_element(reduced, x)
        assert not is_structurally_deletable(reduced, "a1")  # two paths from 0 to x1

    def test_m2_atom_false(self, m2):
        assert not is_structurally_deletable(m2, "a")

    def test_join_irreducible_top_true(self, ex2):
        assert is_structurally_deletable(ex2, "one")  # unique lower cover a8

    def test_join_reducible_top_false(self, m2):
        assert not is_structurally_deletable(m2, "one")

    def test_bottom_never(self, fig2):
        assert not is_structurally_deletable(fig2, "0")

    def test_unknown_element(self, m2):
        with pytest.raises(NoSuchElement):
            is_structurally_deletable(m2, "zz")

    def test_edge_count_drops_by_one(self, fig2):
        for x in fig2.labels:
            if x in (fig2.bottom_label, fig2.top_label):
                continue
            if is_structurally_deletable(fig2, x):
                after = delete_element(fig2, x)
                assert len(after.covers) == len(fig2.covers) - 1


class TestBasicBlock:
    def test_fig2_reduces_to_nine(self, fig2):
        assert fig2.n == 18
        block = basic_block(fig2)
        assert block.n == 9

    def test_idempotent(self, fig2, ex2):
        for lat in (fig2, ex2):
            block = basic_block(lat)
            assert basic_block(block) == block

    def test_m2_fixed(self, m2):
        assert basic_block(m2) == m2

    def test_chain_reduces_to_two_elements(self, chain4):
        block = basic_block(chain4)
        assert block.n == 2

    def test_block_contains_bottom(self, fig2):
        assert "0" in basic_block(fig2).labels


class TestSsc:
    def test_m3_true(self, m3):
        assert is_ssc(m3)

    def test_pendant_chain_false(self, negssc):
        assert not is_ssc(negssc)

    def test_m2_true(self, m2):
        assert is_ssc(m2)

    def test_report_m3(self, m3):
        assert ssc_equivalence_report(m3) == {
            "basic_block_is_self": True,
            "ssc": True,
            "all_classes_singleton": True,
        }

    def test_report_negssc(self, negssc):
        assert ssc_equivalence_report(negssc) == {
            "basic_block_is_self": False,
            "ssc": False,
            "all_classes_singleton": False,
        }

    def test_hypothesis_violated(self, ex2):
        with pytest.raises(HypothesisViolated):
            ssc_equivalence_report(ex2)

    def test_three_way_equivalence(self):
        for lat in enumerate_lower_dismantlable(9, join_reducible_top=True):
            report = ssc_equivalence_report(lat)
            assert len(set(report.values())) == 1, report


class TestNeighborhoodClasses:
    def test_tree_side_classes_of_ex2(self, ex2):
        classes = neighborhood_classes(non_ancestor_graph(tree_of_lattice(ex2)))
        assert classes.member_sets() == {
            frozenset({"a1", "a7"}),
            frozenset({"a2"}),
            frozenset({"a3"}),
            frozenset({"a4"}),
            frozenset({"a5"}),
            frozenset({"a6"}),
            frozenset({"a8"}),
        }

    def test_graph_side_misses_a8(self, ex2):
        classes = neighborhood_classes(zero_divisor_graph(ex2))
        assert classes.member_sets() == {
            frozenset({"a1", "a7"}),
            frozenset({"a2"}),
            frozenset({"a3"}),
            frozenset({"a4"}),
            frozenset({"a5"}),
            frozenset({"a6"}),
        }

    def test_k22_two_classes_of_two(self, k22):
        classes = neighborhood_classes(zero_divisor_graph(k22))
        assert sorted(len(c.members) for c in classes.classes) == [2, 2]

    def test_flags_unset(self, ex2):
        for c in neighborhood_classes(zero_divisor_graph(ex2)).classes:
            assert c.has_adjunct is None and c.adjunct_member is None


class TestClassHasAdjunct:
    def test_a5_true(self, ex2):
        assert class_has_adjunct(zero_divisor_graph(ex2), "a5")

    def test_a1_false(self, ex2):
        assert not class_has_adjunct(zero_divisor_graph(ex2), "a1")

    def test_k2_false(self, m2):
        g = zero_divisor_graph(m2)
        assert not class_has_adjunct(g, "a")

    def test_agrees_with_lattice_side(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            adjuncts = set(classify(lat).adjunct_elements)
            for cls in neighborhood_classes(g).classes:
                lattice_side = bool(set(cls.members) & adjuncts)
                assert class_has_adjunct(g, cls.members[0]) == lattice_side


class TestPeelOrder:
    def test_ex2_rounds(self, ex2):
        part = peel_order(tree_of_lattice(ex2))
        by_round: dict[int, set[frozenset]] = {}
        for cls, rnd in zip(part.classes, part.peel_rounds):
            by_round.setdefault(rnd, set()).add(frozenset(cls.members))
        assert by_round == {
            1: {frozenset({"a1", "a7"}), frozenset({"a2"}), frozenset({"a3"}), frozenset({"a4"})},
            2: {frozenset({"a5"}), frozenset({"a6"})},
            3: {frozenset({"a8"})},
        }

    def test_ex2_flags(self, ex2):
        part = peel_order(tree_of_lattice(ex2))
        flagged = {c.members: (c.has_adjunct, c.adjunct_member) for c in part.classes}
        assert flagged[("a5",)] == (True, "a5")
        assert flagged[("a6",)] == (True, "a6")
        assert flagged[("a8",)] == (True, "a8")
        assert flagged[("a1", "a7")] == (False, None)

    def test_star_two_leaves_single_round(self):
        tree = RootedTree.from_parents({"r": None, "a": "r", "b": "r"})
        part = peel_order(tree)
        assert part.member_sets() == {frozenset({"a"}), frozenset({"b"})}
        assert part.peel_rounds == (1, 1)

    def test_path_tree_single_class(self):
        tree = RootedTree.from_parents({"r": None, "p1": "r", "p2": "p1", "p3": "p2"})
        part = peel_order(tree)
        assert part.member_sets() == {frozenset({"p1", "p2", "p3"})}

    def test_classes_match_neighborhood_partition(self):
        from dislat.oracle import enumerate_rooted_trees

        for tree in enumerate_rooted_trees(7):
            peeled = peel_order(tree)
            direct = neighborhood_classes(non_ancestor_graph(tree))
            assert peeled.member_sets() == direct.member_sets()

    def test_json_export_shape(self, ex2):
        obj = peel_order(tree_of_lattice(ex2)).to_json_obj()
        assert set(obj) == {"classes", "peel_order"}
        assert obj["peel_order"] == list(range(len(obj["classes"])))


class TestClassChainLemmas:
    def test_classes_are_chains_with_minimal_adjunct(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            part = annotate_classes(lat, g)
            adjuncts = set(classify(lat).adjunct_elements)
            for cls in part.classes:
                for x, y in itertools.combinations(cls.members, 2):
                    assert lat.comparable(x, y)  # each class is a chain
                inside = set(cls.members) & adjuncts
                assert len(inside) <= 1
                if inside:
                    a = next(iter(inside))
                    assert cls.adjunct_member == a
                    assert all(lat.leq(a, x) for x in cls.members)

    def test_class_has_adjunct_iff_no_atom(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            atoms = set(classify(lat).atoms)
            tree = tree_of_lattice(lat)
            pendants = set(tree.leaves())
            for cls in annotate_classes(lat, g).classes:
                members = set(cls.members)
                assert cls.has_adjunct == (not members & atoms)
                assert cls.has_adjunct == (not members & pendants)


class TestPeelDecomposition:
    def test_m2(self, m2):
        step = peel_decomposition(m2, "b")
        assert step.hinge == "one"
        assert step.chain == ("b",)
        assert sorted(step.sublattice.labels) == ["0", "a", "one"]
        assert reassemble(step) == m2

    def test_ex2_a4(self, ex2):
        step = peel_decomposition(ex2, "a4")
        assert step.hinge == "a5"
        assert step.chain == ("a4",)
        assert step.sublattice.n == 9
        assert reassemble(step) == ex2

    def test_ex2_a5_has_adjunct(self, ex2):
        with pytest.raises(ClassHasAdjunct):
            peel_decomposition(ex2, "a5")

    def test_non_vertex_rejected(self, ex2):
        with pytest.raises(NoSuchElement):
            peel_decomposition(ex2, "a8")

    def test_reassembly_on_everything_peelable(self):
        for lat in enumerate_lower_dismantlable(8):
            g = zero_divisor_graph(lat)
            for cls in neighborhood_classes(g).classes:
                x = cls.members[0]
                if class_has_adjunct(g, x):
                    continue
                step = peel_decomposition(lat, x)
                assert set(step.chain) == set(cls.members)
                assert reassemble(step) == lat


class TestConfluence:
    def test_smallest_label_counterexample(self, negssc):
        fixed_points = explore_deletion_orders(negssc)
        assert {frozenset(fp) for fp in fixed_points} == {
            frozenset({"0", "one", "p", "r"}),
            frozenset({"0", "one", "q", "r"}),
        }

    def test_fixed_points_are_fixed(self, negssc, fig2):
        from dislat.lattice import induced_sublattice

        for lat in (negssc, fig2):
            for fp in explore_deletion_orders(lat):
                sub = induced_sublattice(lat, fp)
                assert basic_block(sub) == sub

    def test_m3_confluent(self, m3):
        assert len(explore_deletion_orders(m3)) == 1
