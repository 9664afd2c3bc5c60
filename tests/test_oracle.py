from __future__ import annotations

import itertools
import random

import pytest

from dislat import (
    BudgetExceeded,
    LabeledGraph,
    RootedTree,
    brute_lattice_iso,
    canonical_code,
    enumerate_rooted_trees,
    zero_divisor_graph,
)
from dislat.lattice import relabel
from dislat.oracle import brute_lattice_iso_all, rooted_tree_codes
from dislat.treeiso import tree_from_code
from tests.conftest import shuffled_copy
from tests.reference import brute_lattice_iso_all as reference_brute_lattice_iso_all
from tests.reference import (
    brute_graph_iso,
    brute_graph_iso_all,
    chain_lattice,
    enumerate_lower_dismantlable,
    non_ancestor_graph,
)

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


def trees_of_size(n: int, root_min_children: int = 0) -> list:
    return [t for t in enumerate_rooted_trees(n, root_min_children) if t.n == n]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", list(enumerate(TREE_COUNTS))[1:])
    def test_counts(self, n, count):
        assert len(trees_of_size(n)) == count

    def test_generators_agree_up_to_eight(self):
        for n in range(1, 9):
            assert rooted_tree_codes(n) == tuple(sorted(parent_array_codes(n)))

    def test_root_filter(self):
        assert len(trees_of_size(4, root_min_children=2)) == 4 - 2
        assert len(trees_of_size(4, root_min_children=3)) == 1  # the star

    def test_one_representative_per_class(self):
        for n in range(1, 8):
            codes = [canonical_code(t) for t in trees_of_size(n)]
            assert len(codes) == len(set(codes))
            assert codes == sorted(codes)  # deterministic canonical order

    def test_stream_is_size_ascending(self):
        sizes = [t.n for t in enumerate_rooted_trees(5)]
        assert sizes == sorted(sizes)

    def test_tree_is_read_back_from_its_code(self):
        """`verify`'s t1 keeps a tree's canonical code and rebuilds the tree
        from it: the same tree, labels included."""
        for tree in enumerate_rooted_trees(9):
            assert tree_from_code(canonical_code(tree)) == tree


class TestBruteGraphIso:
    def test_k2_vs_k2(self):
        g = LabeledGraph(["a", "b"], [("a", "b")])
        h = LabeledGraph(["x", "y"], [("x", "y")])
        w = brute_graph_iso(g, h)
        assert w is not None

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
                min(w[u], w[v]),
                max(w[u], w[v]),
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
        assert brute_lattice_iso(m2, m2) == {"0": "0", "a": "a", "b": "b", "one": "one"}

    def test_m2_vs_chain(self, m2):
        assert brute_lattice_iso(m2, chain_lattice(["0", "a", "b", "1"])) is None

    def test_branch_swap_found(self, ex2):
        from dislat.lattice import relabel

        swapped = relabel(ex2, {**{lab: lab for lab in ex2.labels}, "a3": "a4", "a4": "a3"})
        w = brute_lattice_iso(ex2, swapped)
        assert w is not None

    def test_first_map_of_the_full_search(self):
        """`brute_lattice_iso` is the first map that `brute_lattice_iso_all`
        yields, or None: every lattice of at most 8 elements against a
        shuffled copy and against every other lattice of its size."""
        rng = random.Random(8)
        lats = list(enumerate_lower_dismantlable(8))
        found = 0
        for l1 in lats:
            for l2 in (shuffled_copy(l1, rng), *(l2 for l2 in lats if l2.n == l1.n and l2 is not l1)):
                first = brute_lattice_iso(l1, l2)
                assert first == next(brute_lattice_iso_all(l1, l2), None)
                found += first is not None
        assert found == len(lats) == 85  # one class per enumerated lattice

    def test_agrees_with_cover_graph_iso(self):

        lats = list(enumerate_lower_dismantlable(6))
        for l1, l2 in itertools.combinations_with_replacement(lats, 2):
            order_iso = brute_lattice_iso(l1, l2) is not None
            cover1 = LabeledGraph(l1.labels, l1.cover_pairs())
            cover2 = LabeledGraph(l2.labels, l2.cover_pairs())
            cover_iso = False
            for mapping in brute_graph_iso_all(cover1, cover2):
                if (
                    mapping[l1.bottom_label] == l2.bottom_label
                    and mapping[l1.top_label] == l2.top_label
                ):
                    cover_iso = True
                    break
            assert order_iso == cover_iso


def search_outcome(search, l1, l2, budget):
    """Every map a search yields, each as its (key, value) list, and whether
    it then ran out of budget."""
    maps = []
    try:
        for mapping in search(l1, l2, budget):
            maps.append(list(mapping.items()))
    except BudgetExceeded:
        return maps, True
    return maps, False


class TestIndexSearchAgainstLabels:
    """The index search against the label-level search of `tests/reference.py`."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = random.Random(11)
        lats = list(enumerate_lower_dismantlable(8, root_min_children=2))
        shuffled = []
        for lat in lats:
            perm = list(lat.labels)
            rng.shuffle(perm)
            shuffled.append(relabel(lat, dict(zip(lat.labels, perm))))
        return [(l1, l2) for l1 in lats for other in (lats, shuffled) for l2 in other]

    def test_same_maps_in_same_order(self, pairs):
        found = 0
        for l1, l2 in pairs:
            got = search_outcome(brute_lattice_iso_all, l1, l2, 10**9)
            assert got == search_outcome(reference_brute_lattice_iso_all, l1, l2, 10**9)
            found += bool(got[0])
        assert 0 < found < len(pairs)

    def test_same_budget_failures(self, pairs):
        raised = 0
        for l1, l2 in pairs:
            got = search_outcome(brute_lattice_iso_all, l1, l2, 4)
            assert got == search_outcome(reference_brute_lattice_iso_all, l1, l2, 4)
            raised += got[1]
        assert 0 < raised < len(pairs)
