from __future__ import annotations

import itertools

import pytest

from dislat import (
    BudgetExceeded,
    LabeledGraph,
    RootedTree,
    brute_graph_iso,
    brute_lattice_iso,
    canonical_code,
    chain_lattice,
    enumerate_rooted_trees,
    non_ancestor_graph,
    zero_divisor_graph,
)
from dislat.oracle import rooted_tree_codes

# number of rooted-tree isomorphism classes by node count, OEIS A000081
TREE_COUNTS = [None, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def parent_array_codes(n: int) -> set[str]:
    """Reference generator: exhaust the (n-1)! parent arrays (parent[i] < i)
    and deduplicate by canonical code."""
    codes: set[str] = set()
    for parents in itertools.product(*(range(i) for i in range(1, n))):
        parent_map: dict[str, str | None] = {"n0": None}
        for i, p in enumerate(parents, start=1):
            parent_map[f"n{i}"] = f"n{p}"
        codes.add(canonical_code(RootedTree.from_parents(parent_map)))
    return codes


def trees_of_size(n: int, root_degree_ge2: bool = False) -> list:
    return [t for t in enumerate_rooted_trees(n, root_degree_ge2) if t.n == n]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", list(enumerate(TREE_COUNTS))[1:])
    def test_counts(self, n, count):
        assert len(trees_of_size(n)) == count

    def test_generators_agree_up_to_eight(self):
        for n in range(1, 9):
            assert rooted_tree_codes(n) == tuple(sorted(parent_array_codes(n)))

    def test_root_filter(self):
        assert len(trees_of_size(4, root_degree_ge2=True)) == 4 - 2

    def test_one_representative_per_class(self):
        for n in range(1, 8):
            codes = [canonical_code(t) for t in trees_of_size(n)]
            assert len(codes) == len(set(codes))
            assert codes == sorted(codes)  # deterministic canonical order

    def test_stream_is_size_ascending(self):
        sizes = [t.n for t in enumerate_rooted_trees(5)]
        assert sizes == sorted(sizes)


class TestBruteGraphIso:
    def test_k2_vs_k2(self):
        g = LabeledGraph(["a", "b"], [("a", "b")])
        h = LabeledGraph(["x", "y"], [("x", "y")])
        w = brute_graph_iso(g, h)
        assert w is not None and w.kind == "graph-iso"

    def test_relabeled_ex2_zdg(self, ex2):
        g = zero_divisor_graph(ex2)
        mapping = dict(zip(g.vertices, ["p3", "p1", "p7", "p2", "p6", "p5", "p4"]))
        h = LabeledGraph(
            [mapping[v] for v in g.vertices], [(mapping[u], mapping[v]) for u, v in g.edges]
        )
        w = brute_graph_iso(g, h)
        assert w is not None
        for u, v in g.edges:
            assert (
                min(w.mapping[u], w.mapping[v]),
                max(w.mapping[u], w.mapping[v]),
            ) in set(h.edges)

    def test_k22_vs_p4(self):
        k22 = LabeledGraph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        p4 = LabeledGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert brute_graph_iso(k22, p4) is None

    def test_budget(self):
        verts = [f"v{i}" for i in range(8)]
        g = LabeledGraph(verts, itertools.combinations(verts, 2))
        with pytest.raises(BudgetExceeded):
            brute_graph_iso(g, g, budget=5)

    def test_oracle_consistency_with_codes(self):
        trees = list(enumerate_rooted_trees(6))
        for t1, t2 in itertools.combinations_with_replacement(trees, 2):
            same_code = canonical_code(t1) == canonical_code(t2)
            found = brute_graph_iso(non_ancestor_graph(t1), non_ancestor_graph(t2))
            if t1.n != t2.n:
                assert not same_code
                continue
            assert same_code == (found is not None)


class TestBruteLatticeIso:
    def test_m2_first_witness_in_label_order(self, m2):
        w = brute_lattice_iso(m2, m2)
        assert w is not None and w.kind == "lattice-iso"
        assert w.mapping == {"0": "0", "a": "a", "b": "b", "one": "one"}

    def test_m2_vs_chain(self, m2):
        assert brute_lattice_iso(m2, chain_lattice(["0", "a", "b", "1"])) is None

    def test_branch_swap_found(self, ex2):
        from dislat.lattice import relabel

        swapped = relabel(ex2, {**{lab: lab for lab in ex2.labels}, "a3": "a4", "a4": "a3"})
        w = brute_lattice_iso(ex2, swapped)
        assert w is not None

    def test_agrees_with_cover_graph_iso(self):
        from dislat.oracle import enumerate_lower_dismantlable

        lats = list(enumerate_lower_dismantlable(6))
        for l1, l2 in itertools.combinations_with_replacement(lats, 2):
            order_iso = brute_lattice_iso(l1, l2) is not None
            cover1 = LabeledGraph(l1.labels, l1.cover_pairs())
            cover2 = LabeledGraph(l2.labels, l2.cover_pairs())
            cover_iso = False
            from dislat.oracle import brute_graph_iso_all

            for mapping in brute_graph_iso_all(cover1, cover2):
                if (
                    mapping[l1.bottom_label] == l2.bottom_label
                    and mapping[l1.top_label] == l2.top_label
                ):
                    cover_iso = True
                    break
            assert order_iso == cover_iso
