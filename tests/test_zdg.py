from __future__ import annotations

import itertools
import math
import random

import pytest

from dislat import (
    BadGraph,
    BadPartition,
    EmptyGraph,
    LabeledGraph,
    adjunct_elements,
    complete_multipartite_parts,
    connectivity_report,
    lattice_from_complete_multipartite,
    zero_divisor_graph,
)
from dislat.errors import DislatError
from dislat.zdg import complement_clique_parts, neighborhood_partition
from tests.conftest import leq_meet
from tests.reference import (
    SetGraph,
    adjunct,
    chain_lattice,
    comparable,
    enumerate_lower_dismantlable,
    neighborhood_classes,
)


def k(n: int) -> LabeledGraph:
    verts = [f"v{i}" for i in range(n)]
    return LabeledGraph(verts, itertools.combinations(verts, 2))


def random_graph(rng: random.Random) -> LabeledGraph:
    """Up to 8 vertices: complete multipartite, then possibly missing one
    edge, or with independent random edges."""
    verts = [f"v{i}" for i in range(rng.randrange(9))]
    pairs = list(itertools.combinations(verts, 2))
    if rng.random() < 0.5:
        part = {v: rng.randrange(1 + rng.randrange(4)) for v in verts}
        edges = [(u, v) for u, v in pairs if part[u] != part[v]]
        if edges and rng.random() < 0.3:
            edges.remove(rng.choice(edges))
    else:
        p = rng.random()
        edges = [e for e in pairs if rng.random() < p]
    return LabeledGraph(verts, edges)


def complement_components_if_cliques(g: LabeledGraph) -> list[tuple[str, ...]] | None:
    """Components of the complement graph, sorted by (descending size,
    smallest member), or None when one of them is not a clique."""
    by_label = SetGraph(g.vertices, g.edges)
    comp = {v: {w for w in g.vertices if w != v and not by_label.adjacent(v, w)} for v in g.vertices}
    seen: set[str] = set()
    parts = []
    for v in g.vertices:
        if v in seen:
            continue
        block, stack = {v}, [v]
        while stack:
            for w in comp[stack.pop()] - block:
                block.add(w)
                stack.append(w)
        if any(comp[x] != block - {x} for x in block):
            return None
        seen |= block
        parts.append(tuple(sorted(block)))
    return sorted(parts, key=lambda p: (-len(p), p))


class TestZeroDivisorGraph:
    def test_m2_is_k2(self, m2):
        g = zero_divisor_graph(m2)
        assert g.vertices == ("a", "b")
        assert g.edges == (("a", "b"),)

    def test_ex2_matches_figure(self, ex2):
        g = zero_divisor_graph(ex2)
        assert g.vertices == tuple(f"a{i}" for i in range(1, 8))  # a8 comparable to all
        # 21 pairs minus the 6 comparable ones, counted from the cover relation
        comparable_pairs = sum(
            1
            for x, y in itertools.combinations(g.vertices, 2)
            if comparable(ex2, x, y)
        )
        assert comparable_pairs == 6
        assert len(g.edges) == 21 - 6

    def test_chain_is_empty(self):
        g = zero_divisor_graph(chain_lattice(["0", "a", "b", "1"]))
        assert g.vertices == ()
        assert g.edges == ()

    def test_matches_meets_from_order(self, sample_lattices):
        """The down-set test against meets found from `leq` alone."""
        for lat in sample_lattices:
            bottom = lat.bottom_label
            nonzero = [x for x in lat.labels if x != bottom]
            edges = [(x, y) for x, y in itertools.combinations(nonzero, 2) if leq_meet(lat, x, y) == bottom]
            assert zero_divisor_graph(lat) == LabeledGraph({v for e in edges for v in e}, edges)

    def test_incomparability_shortcut_agrees(self):
        """On lower dismantlable lattices the meet-based graph equals the
        incomparability graph on the zero-divisor support."""
        for lat in enumerate_lower_dismantlable(8):
            g = zero_divisor_graph(lat)
            for x, y in itertools.combinations(g.vertices, 2):
                assert ((x, y) in g.edges or (y, x) in g.edges) != comparable(lat, x, y)


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
        rng = random.Random(3)
        for _ in range(500):
            g = random_graph(rng)
            assert complement_clique_parts(g) == complement_components_if_cliques(g)

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
        assert adjunct_elements(lat) == {lat.top_label}

    def test_bad_partition(self):
        with pytest.raises(BadPartition):
            lattice_from_complete_multipartite([3])
        with pytest.raises(BadPartition):
            lattice_from_complete_multipartite([2, 0])

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (3, 1), (4, 4, 4, 4), (3, 2, 1)])
    def test_round_trip(self, sizes):
        lat = lattice_from_complete_multipartite(sizes)
        assert complete_multipartite_parts(zero_divisor_graph(lat)) == sorted(sizes, reverse=True)

    def test_same_lattice_as_one_adjunct_per_part(self):
        for k in range(2, 5):
            for sizes in itertools.combinations_with_replacement(range(1, 5), k):
                sizes = sorted(sizes, reverse=True)
                ref = chain_lattice(["0", *(f"p1_{j}" for j in range(1, sizes[0] + 1)), "one"])
                for i, size in enumerate(sizes[1:], start=2):
                    ref = adjunct(ref, chain_lattice([f"p{i}_{j}" for j in range(1, size + 1)]), "0", "one")
                lat = lattice_from_complete_multipartite(sizes)
                assert lat.labels == ref.labels and lat == ref


class TestTheoremSuites:
    def test_connected_diameter_at_most_three(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            if g.n == 0:
                continue
            report = connectivity_report(g)
            assert report["connected"] and report["diameter"] <= 3

    def test_vertex_count_when_top_adjunct(self):
        for lat in enumerate_lower_dismantlable(9, root_min_children=2):
            assert zero_divisor_graph(lat).n == lat.n - 2

    def test_forward_multipartite_when_top_only_adjunct(self):
        seen = 0
        for lat in enumerate_lower_dismantlable(9, root_min_children=2):
            if adjunct_elements(lat) != {lat.top_label}:
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

    def test_edges_normalized(self):
        """Each edge once, as (smaller, larger), sorted, whatever the input
        order, orientation or repetition."""
        rng = random.Random(8)
        for _ in range(300):
            g = random_graph(rng)
            given = [e if rng.random() < 0.5 else e[::-1] for e in g.edges for _ in range(rng.randrange(1, 3))]
            rng.shuffle(given)
            h = LabeledGraph(reversed(g.vertices), given)
            assert h.edges == tuple(sorted({(min(u, v), max(u, v)) for u, v in given}))
            assert h == g

    def test_loops_rejected(self):
        with pytest.raises(BadGraph):
            LabeledGraph(["a"], [("a", "a")])


def random_edge_list(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Up to 12 labels, some repeated, and edges among them in either
    orientation, repeated at times; now and then a loop, or an endpoint that
    is not a vertex."""
    labels = [f"v{i}" for i in range(rng.randrange(13))] + ["é", "a b", ""][: rng.randrange(4)]
    vertices = [rng.choice(labels) for _ in labels] if labels and rng.random() < 0.2 else list(labels)
    p = rng.random()
    pairs = [(u, v) for u, v in itertools.combinations(vertices, 2) if u != v and rng.random() < p]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in pairs]
    edges += rng.sample(edges, min(len(edges), rng.randrange(3)))
    if vertices and rng.random() < 0.1:
        edges.insert(rng.randrange(len(edges) + 1), (rng.choice(vertices),) * 2)
    if rng.random() < 0.1:
        stranger = rng.choice([*vertices, "zz"]) if vertices else "zz"
        edges.insert(rng.randrange(len(edges) + 1), (stranger, "zz") if rng.random() < 0.5 else ("zz", stranger))
    return vertices, edges


class TestMasksAgainstSets:
    """The neighbour-mask graph against the set-based reference."""

    def test_random_edge_lists(self):
        rng = random.Random(41)
        failures = graphs = 0
        for _ in range(500):
            vertices, edges = random_edge_list(rng)
            try:
                want = SetGraph(vertices, edges)
            except DislatError as exc:
                failures += 1
                with pytest.raises(type(exc)) as info:
                    LabeledGraph(vertices, edges)
                assert str(info.value) == str(exc)
                continue
            graphs += 1
            got = LabeledGraph(vertices, edges)
            assert got.vertices == want.vertices and got.n == want.n
            assert got.edges == want.edges and got.m == len(want.edges)
            assert got.to_json_obj() == want.to_json_obj()
            for v, mask in zip(got.vertices, got.masks):
                assert {w for j, w in enumerate(got.vertices) if mask >> j & 1} == want.neighbors(v)
            blocks = neighborhood_partition(got)
            assert set(map(frozenset, blocks)) == neighborhood_classes(want)
            assert blocks == sorted(tuple(sorted(b)) for b in blocks)
            same = LabeledGraph(reversed(vertices), [e[::-1] for e in edges])
            assert same == got and hash(same) == hash(got)
        assert failures > 50 and graphs > 300


class TestConnectivityAgainstNetworkx:
    """The bitset breadth-first search against networkx's connectivity and
    diameter."""

    @staticmethod
    def expected(g: LabeledGraph) -> dict:
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        if not nx.is_connected(h):
            return {"connected": False, "diameter": float("inf")}
        return {"connected": True, "diameter": nx.diameter(h)}

    def test_every_zdg_up_to_ten_elements(self):
        checked = 0
        for lat in enumerate_lower_dismantlable(10):
            g = zero_divisor_graph(lat)
            if g.n:
                checked += 1
                assert connectivity_report(g) == self.expected(g)
        assert checked > 400

    def test_random_graphs(self):
        rng = random.Random(43)
        disconnected = 0
        for _ in range(300):
            verts = [f"v{i}" for i in range(1, rng.randrange(2, 30))]
            p = rng.random() ** 2
            g = LabeledGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
            want = self.expected(g)
            disconnected += not want["connected"]
            assert connectivity_report(g) == want
        assert 30 < disconnected < 270

