from __future__ import annotations

import itertools

import pytest

from dislat import (
    HypothesisViolated,
    IsoWitness,
    LabeledGraph,
    NotInClass,
    NotLowerDismantlable,
    RootedTree,
    align_adjuncts,
    canonical_code,
    chain_lattice,
    classify,
    iso_decide,
    lattice_from_complete_multipartite,
    lattice_of_tree,
    lift_to_lattice_iso,
    non_ancestor_graph,
    recognize,
    tree_of_lattice,
    zero_divisor_graph,
)
from dislat.lattice import relabel
from dislat.oracle import (
    brute_graph_iso,
    brute_graph_iso_all,
    brute_lattice_iso,
    enumerate_lower_dismantlable,
    enumerate_rooted_trees,
)
from dislat.treeiso import check_lattice_iso


def relabel_graph(g: LabeledGraph, mapping) -> LabeledGraph:
    return LabeledGraph(
        [mapping[v] for v in g.vertices],
        [(mapping[u], mapping[v]) for u, v in g.edges],
    )


def cycle(n: int) -> LabeledGraph:
    verts = [f"c{i}" for i in range(n)]
    return LabeledGraph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


class TestTreeOfLattice:
    def test_ex2_shape(self, ex2):
        tree = tree_of_lattice(ex2)
        assert tree.parent_map() == {
            "one": None,
            "a8": "one",
            "a5": "a8",
            "a6": "a8",
            "a2": "a6",
            "a7": "a6",
            "a1": "a7",
            "a3": "a5",
            "a4": "a5",
        }

    def test_m2_star(self, m2):
        tree = tree_of_lattice(m2)
        assert tree.root_label == "one"
        assert set(tree.children("one")) == {"a", "b"}
        assert tree.has_root_degree_ge2

    def test_chain_path(self):
        tree = tree_of_lattice(chain_lattice(["0", "c", "1"]))
        assert tree.parent_map() == {"1": None, "c": "1"}
        assert not tree.has_root_degree_ge2

    def test_non_lower_dismantlable_rejected(self):
        from tests.test_lattice import boolean_cube

        with pytest.raises(NotLowerDismantlable):
            tree_of_lattice(boolean_cube())


class TestLatticeOfTree:
    def test_inverse_of_tree_of_lattice(self, ex2):
        assert lattice_of_tree(tree_of_lattice(ex2)) == ex2

    def test_single_node_gives_two_chain(self):
        lat = lattice_of_tree(RootedTree.from_parents({"r": None}))
        assert lat.n == 2

    def test_star_gives_k_atoms(self):
        tree = RootedTree.from_parents({"r": None, "x": "r", "y": "r", "z": "r"})
        lat = lattice_of_tree(tree)
        cls = classify(lat)
        assert cls.atoms == {"x", "y", "z"}
        assert cls.adjunct_elements == {"r"}
        assert cls.lower_cover_count["r"] - 1 == 2  # (0,1) multiplicity

    def test_round_trips_both_ways(self):
        for tree in enumerate_rooted_trees(6):
            lat = lattice_of_tree(tree)
            back = tree_of_lattice(lat)
            assert back.parent_map() == tree.parent_map()


class TestNonAncestorGraph:
    def test_ex2_matches_zdg_plus_isolated_top_chain(self, ex2):
        tree = tree_of_lattice(ex2)
        nag = non_ancestor_graph(tree)
        zg = zero_divisor_graph(ex2)
        assert set(nag.vertices) == set(zg.vertices) | {"a8"}
        assert nag.neighbors("a8") == frozenset()
        assert nag.induced(zg.vertices) == zg

    def test_path_tree_edgeless(self):
        tree = RootedTree.from_parents({"r": None, "a": "r", "b": "a"})
        nag = non_ancestor_graph(tree)
        assert nag.vertices == ("a", "b") and nag.edges == ()

    def test_star_two_leaves_is_k2(self):
        tree = RootedTree.from_parents({"r": None, "a": "r", "b": "r"})
        nag = non_ancestor_graph(tree)
        assert nag.edges == (("a", "b"),)

    def test_zdg_equals_nag_for_join_reducible_top(self):
        for lat in enumerate_lower_dismantlable(9, join_reducible_top=True):
            assert non_ancestor_graph(tree_of_lattice(lat)) == zero_divisor_graph(lat)

    def test_zdg_differs_by_isolated_comparable_vertices_otherwise(self):
        for lat in enumerate_lower_dismantlable(8):
            if len(lat.lower_covers(lat.top_label)) >= 2:
                continue
            nag = non_ancestor_graph(tree_of_lattice(lat))
            zg = zero_divisor_graph(lat)
            extra = set(nag.vertices) - set(zg.vertices)
            assert nag.induced(zg.vertices) == zg
            for v in extra:
                assert nag.neighbors(v) == frozenset()
                assert all(lat.comparable(v, w) for w in lat.labels)

    def test_neighborhood_monotone_under_ancestry(self):
        for tree in enumerate_rooted_trees(7):
            nag = non_ancestor_graph(tree)
            for u in nag.vertices:
                for v in nag.vertices:
                    if u != v and tree.is_ancestor(u, v):
                        assert nag.neighbors(u) <= nag.neighbors(v)


class TestCanonicalCode:
    def test_single_node(self):
        assert canonical_code(RootedTree.from_parents({"r": None})) == "()"

    def test_two_leaves(self):
        assert canonical_code(RootedTree.from_parents({"r": None, "a": "r", "b": "r"})) == "(()())"

    def test_relabel_invariant(self, ex2):
        tree = tree_of_lattice(ex2)
        mapping = {lab: f"q_{lab}" for lab in tree.node_labels()}
        assert canonical_code(tree.relabeled(mapping)) == canonical_code(tree)

    def test_codes_decide_isomorphism_against_brute_force(self):
        trees = list(enumerate_rooted_trees(6))
        for t1, t2 in itertools.combinations(trees, 2):
            # enumeration holds one tree per class, so codes must all differ
            assert canonical_code(t1) != canonical_code(t2)


class TestRecognize:
    def test_c4_is_recognized(self):
        tree = recognize(cycle(4))
        assert tree is not None
        assert non_ancestor_graph(tree) == cycle(4)

    def test_c5_is_not(self):
        assert recognize(cycle(5)) is None

    def test_ex2_zdg_round_trip(self, ex2):
        g = zero_divisor_graph(ex2)
        tree = recognize(g)
        assert tree is not None
        assert non_ancestor_graph(tree) == g

    def test_all_non_ancestor_graphs_recognized(self):
        for tree in enumerate_rooted_trees(7):
            g = non_ancestor_graph(tree)
            back = recognize(g)
            assert back is not None
            assert non_ancestor_graph(back) == g
            assert canonical_code(back) != ""  # well-formed

    def test_recognized_tree_isomorphic_to_source(self):
        for tree in enumerate_rooted_trees(7):
            g = non_ancestor_graph(tree)
            back = recognize(g)
            assert canonical_code(back) == canonical_code(tree)

    def test_fresh_root_collision_avoided(self):
        g = LabeledGraph(["⊤", "x"], [("⊤", "x")])
        tree = recognize(g)
        assert tree is not None
        assert tree.root_label not in {"⊤", "x"}


class TestIsoDecide:
    def test_relabeled_copy_true(self, ex2):
        g = zero_divisor_graph(ex2)
        mapping = {v: f"w{v}" for v in g.vertices}
        assert iso_decide(g, relabel_graph(g, mapping))

    def test_different_part_sizes_false(self):
        g22 = zero_divisor_graph(lattice_from_complete_multipartite([2, 2]))
        g31 = zero_divisor_graph(lattice_from_complete_multipartite([3, 1]))
        assert not iso_decide(g22, g31)

    def test_not_in_class_raises_with_which(self):
        with pytest.raises(NotInClass) as err:
            iso_decide(cycle(5), cycle(4))
        assert err.value.which == "first"
        with pytest.raises(NotInClass) as err:
            iso_decide(cycle(4), cycle(5))
        assert err.value.which == "second"

    def test_agrees_with_brute_force_on_trees(self):
        trees = list(enumerate_rooted_trees(5))
        graphs = [non_ancestor_graph(t) for t in trees]
        for (t1, g1), (t2, g2) in itertools.combinations_with_replacement(list(zip(trees, graphs)), 2):
            want = brute_graph_iso(g1, g2) is not None
            if g1.n == 0 or g2.n == 0:
                continue  # empty graphs carry no information for iso_decide
            assert iso_decide(g1, g2) == want


class TestAlignAdjuncts:
    def test_already_aligned_is_identity(self, k22):
        g = zero_divisor_graph(k22)
        f = IsoWitness("graph-iso", {v: v for v in g.vertices})
        assert align_adjuncts(k22, k22, f).mapping == f.mapping

    def test_single_swap_restores_alignment(self):
        from dislat.dsl import elaborate, parse

        lat = elaborate(parse("lattice t { chain 0 p a z one; adjoin (0, a): q; adjoin (0, one): r; }"))
        f = IsoWitness("graph-iso", {"a": "z", "z": "a", "p": "p", "q": "q", "r": "r"})
        phi = align_adjuncts(lat, lat, f)
        adjunct_vertices = {"a"}
        assert {phi.mapping[x] for x in adjunct_vertices} == adjunct_vertices
        # class behavior is f's: classes map setwise identically
        assert phi.mapping["p"] == "p" and phi.mapping["r"] == "r"

    def test_hypothesis_checked(self, ex2):
        f = IsoWitness("graph-iso", {})
        with pytest.raises(HypothesisViolated):
            align_adjuncts(ex2, ex2, f)  # join-irreducible top

    def test_invalid_witness_rejected(self, k22):
        from dislat import InternalInconsistency

        g = zero_divisor_graph(k22)
        not_an_iso = IsoWitness("graph-iso", {"v": "v", "w": "x", "x": "w", "y": "y"})
        with pytest.raises(InternalInconsistency):
            align_adjuncts(k22, k22, not_an_iso)

    def test_postcondition_on_all_automorphisms(self):
        for lat in enumerate_lower_dismantlable(7, join_reducible_top=True):
            g = zero_divisor_graph(lat)
            adjunct_vertices = set(classify(lat).adjunct_elements) & set(g.vertices)
            for mapping in brute_graph_iso_all(g, g):
                phi = align_adjuncts(lat, lat, IsoWitness("graph-iso", mapping))
                assert {phi.mapping[x] for x in adjunct_vertices} == adjunct_vertices
                # class behavior preserved: phi([x]) == f([x]) setwise
                for v in g.vertices:
                    cls = {w for w in g.vertices if g.neighbors(w) == g.neighbors(v)}
                    assert {phi.mapping[w] for w in cls} == {mapping[w] for w in cls}


class TestLiftToLatticeIso:
    def test_m3_atom_permutations(self, m3):
        g = zero_divisor_graph(m3)
        for perm in itertools.permutations(["a", "b", "c"]):
            f = IsoWitness("graph-iso", dict(zip(["a", "b", "c"], perm)))
            psi = lift_to_lattice_iso(m3, m3, align_adjuncts(m3, m3, f))
            assert psi.kind == "lattice-iso"
            assert psi.mapping["0"] == "0" and psi.mapping["one"] == "one"
            assert all(psi.mapping[x] == f.mapping[x] for x in "abc")
            assert check_lattice_iso(m3, m3, psi.mapping)

    def test_k22_relabeled(self, k22):
        other = relabel(k22, {"0": "0", "v": "m", "w": "n", "x": "s", "y": "t", "one": "one"})
        f = brute_graph_iso(zero_divisor_graph(k22), zero_divisor_graph(other))
        psi = lift_to_lattice_iso(k22, other, align_adjuncts(k22, other, f))
        assert check_lattice_iso(k22, other, psi.mapping)
        # brute-force oracle confirms psi is one of the valid isomorphisms
        from dislat.oracle import brute_lattice_iso_all

        assert psi.mapping in list(brute_lattice_iso_all(k22, other))

    def test_non_adjunct_preserving_phi_rejected(self):
        from dislat.dsl import elaborate, parse

        lat = elaborate(parse("lattice t { chain 0 p a z one; adjoin (0, a): q; adjoin (0, one): r; }"))
        bad = IsoWitness("graph-iso", {"a": "z", "z": "a", "p": "p", "q": "q", "r": "r"})
        with pytest.raises(HypothesisViolated):
            lift_to_lattice_iso(lat, lat, bad)

    def test_exhaustive_align_then_lift(self):
        for lat in enumerate_lower_dismantlable(8, join_reducible_top=True):
            g = zero_divisor_graph(lat)
            x_set = set(classify(lat).adjunct_elements) - {lat.top_label}
            for mapping in brute_graph_iso_all(g, g):
                phi = align_adjuncts(lat, lat, IsoWitness("graph-iso", mapping))
                psi = lift_to_lattice_iso(lat, lat, phi)
                assert check_lattice_iso(lat, lat, psi.mapping)
                assert all(psi.mapping[x] == phi.mapping[x] for x in x_set)
                for v in g.vertices:
                    cls = {w for w in g.vertices if g.neighbors(w) == g.neighbors(v)}
                    assert {psi.mapping[w] for w in cls} == {phi.mapping[w] for w in cls}

    def test_lift_across_relabeled_copies(self):
        """Non-diagonal pairs: every graph isomorphism onto a shuffled copy
        aligns and lifts."""
        import random

        rng = random.Random(42)
        for lat in enumerate_lower_dismantlable(8, join_reducible_top=True):
            perm = list(lat.labels)
            rng.shuffle(perm)
            other = relabel(lat, dict(zip(lat.labels, perm)))
            g1, g2 = zero_divisor_graph(lat), zero_divisor_graph(other)
            x_set = set(classify(lat).adjunct_elements) - {lat.top_label}
            for mapping in brute_graph_iso_all(g1, g2):
                phi = align_adjuncts(lat, other, IsoWitness("graph-iso", mapping))
                psi = lift_to_lattice_iso(lat, other, phi)
                assert check_lattice_iso(lat, other, psi.mapping)
                assert all(psi.mapping[x] == phi.mapping[x] for x in x_set)


class TestMainTheorem:
    def test_zdg_iso_iff_lattice_iso(self):
        lats = list(enumerate_lower_dismantlable(8, join_reducible_top=True))
        codes = [canonical_code(recognize(zero_divisor_graph(lat))) for lat in lats]
        for i, j in itertools.combinations_with_replacement(range(len(lats)), 2):
            fast = codes[i] == codes[j]
            slow = brute_lattice_iso(lats[i], lats[j]) is not None
            assert fast == slow

    def test_witness_json_shape(self, m3):
        g = zero_divisor_graph(m3)
        f = IsoWitness("graph-iso", {v: v for v in g.vertices})
        psi = lift_to_lattice_iso(m3, m3, align_adjuncts(m3, m3, f))
        obj = psi.to_json_obj()
        assert obj["kind"] == "lattice-iso"
        assert obj["map"]["0"] == "0"
