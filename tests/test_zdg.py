from __future__ import annotations

import itertools
import math

import pytest

from dislat import (
    BadGraph,
    BadPartition,
    EmptyGraph,
    LabeledGraph,
    chain_lattice,
    classify,
    complete_multipartite_parts,
    connectivity_report,
    lattice_from_complete_multipartite,
    zero_divisor_graph,
)
from dislat.oracle import enumerate_lower_dismantlable
from dislat.zdg import complement_clique_parts


def k(n: int) -> LabeledGraph:
    verts = [f"v{i}" for i in range(n)]
    return LabeledGraph(verts, itertools.combinations(verts, 2))


class TestZeroDivisorGraph:
    def test_m2_is_k2(self, m2):
        g = zero_divisor_graph(m2)
        assert g.vertices == ("a", "b")
        assert g.edges == (("a", "b"),)

    def test_ex2_matches_figure(self, ex2):
        g = zero_divisor_graph(ex2)
        assert g.vertices == tuple(f"a{i}" for i in range(1, 8))  # a8 comparable to all
        # 21 pairs minus the 6 comparable ones, counted from the cover relation
        comparable = sum(
            1
            for x, y in itertools.combinations(g.vertices, 2)
            if ex2.comparable(x, y)
        )
        assert comparable == 6
        assert len(g.edges) == 21 - 6

    def test_chain_is_empty(self):
        g = zero_divisor_graph(chain_lattice(["0", "a", "b", "1"]))
        assert g.vertices == ()
        assert g.edges == ()

    def test_incomparability_shortcut_agrees(self):
        """On lower dismantlable lattices the meet-based graph equals the
        incomparability graph on the zero-divisor support."""
        for lat in enumerate_lower_dismantlable(8):
            g = zero_divisor_graph(lat)
            for x, y in itertools.combinations(g.vertices, 2):
                assert ((x, y) in g.edges or (y, x) in g.edges) == lat.incomparable(x, y)


class TestConnectivity:
    def test_k2(self):
        assert connectivity_report(k(2)) == {"connected": True, "diameter": 1}

    def test_ex2_diameter_two(self, ex2):
        assert connectivity_report(zero_divisor_graph(ex2)) == {"connected": True, "diameter": 2}

    def test_disjoint_edges(self):
        g = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        report = connectivity_report(g)
        assert report["connected"] is False
        assert math.isinf(report["diameter"])

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraph):
            connectivity_report(LabeledGraph([], []))

    def test_single_vertex(self):
        assert connectivity_report(LabeledGraph(["x"], [])) == {"connected": True, "diameter": 0}


class TestCompleteMultipartite:
    def test_k2(self):
        assert complete_multipartite_parts(k(2)) == [1, 1]

    def test_two_two(self):
        lat = lattice_from_complete_multipartite([2, 2])
        assert complete_multipartite_parts(zero_divisor_graph(lat)) == [2, 2]

    def test_ex2_is_not(self, ex2):
        assert complete_multipartite_parts(zero_divisor_graph(ex2)) is None

    def test_parts_are_complement_components(self):
        g = zero_divisor_graph(lattice_from_complete_multipartite([3, 1]))
        parts = complement_clique_parts(g)
        assert [len(p) for p in parts] == [3, 1]

    def test_path_is_not_complete_multipartite(self):
        p4 = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        assert complete_multipartite_parts(p4) is None


class TestLatticeFromParts:
    def test_1_1_gives_diamond(self, m2):
        lat = lattice_from_complete_multipartite([1, 1])
        assert lat.n == 4
        g = zero_divisor_graph(lat)
        assert len(g.vertices) == 2 and len(g.edges) == 1

    def test_sizes_and_vertex_count(self):
        lat = lattice_from_complete_multipartite([3, 2, 1])
        assert lat.n == (3 + 2 + 1) + 2
        g = zero_divisor_graph(lat)
        assert len(g.vertices) == lat.n - 2  # (0,1) is an adjunct pair
        assert complete_multipartite_parts(g) == [3, 2, 1]

    def test_top_is_only_adjunct_element(self):
        lat = lattice_from_complete_multipartite([4, 2])
        assert classify(lat).adjunct_elements == {lat.top_label}

    def test_bad_partition(self):
        with pytest.raises(BadPartition):
            lattice_from_complete_multipartite([3])
        with pytest.raises(BadPartition):
            lattice_from_complete_multipartite([2, 0])

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (3, 1), (4, 4, 4, 4), (3, 2, 1)])
    def test_round_trip(self, sizes):
        lat = lattice_from_complete_multipartite(sizes)
        assert complete_multipartite_parts(zero_divisor_graph(lat)) == sorted(sizes, reverse=True)


class TestTheoremSuites:
    def test_connected_diameter_at_most_three(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            if g.n == 0:
                continue
            report = connectivity_report(g)
            assert report["connected"] and report["diameter"] <= 3

    def test_vertex_count_when_top_adjunct(self):
        for lat in enumerate_lower_dismantlable(9, join_reducible_top=True):
            assert zero_divisor_graph(lat).n == lat.n - 2

    def test_forward_multipartite_when_top_only_adjunct(self):
        seen = 0
        for lat in enumerate_lower_dismantlable(9, join_reducible_top=True):
            if classify(lat).adjunct_elements != {lat.top_label}:
                continue
            seen += 1
            assert complete_multipartite_parts(zero_divisor_graph(lat)) is not None
        assert seen > 5


class TestExports:
    def test_dot_is_byte_stable(self, m2):
        g = zero_divisor_graph(m2)
        assert g.to_dot() == 'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'
        assert g.to_dot() == g.to_dot()

    def test_json_sorted(self, ex2):
        obj = zero_divisor_graph(ex2).to_json_obj()
        assert obj["vertices"] == sorted(obj["vertices"])
        assert obj["edges"] == sorted(obj["edges"])
        assert all(e[0] < e[1] for e in obj["edges"])

    def test_json_round_trip(self, ex2):
        g = zero_divisor_graph(ex2)
        assert LabeledGraph.from_json_obj(g.to_json_obj()) == g

    def test_loops_rejected(self):
        with pytest.raises(BadGraph):
            LabeledGraph(["a"], [("a", "a")])
