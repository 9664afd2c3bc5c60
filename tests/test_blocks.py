from __future__ import annotations

import itertools
import json
import random

import pytest

from dislat import (
    HypothesisViolated,
    NoSuchElement,
    NotLowerDismantlable,
    adjunct_elements,
    basic_block,
    build_from_covers,
    canonical_code,
    fixed_point_form,
    is_ssc,
    peel_order,
    ssc_equivalence_report,
    tree_of_lattice,
    zero_divisor_graph,
)
from dislat.blocks import _deletable, annotate_classes
from dislat.lattice import _cover_masks, is_lower_dismantlable
from dislat.oracle import enumerate_rooted_trees
from dislat.treeiso import RootedTree, _peel
from dislat.zdg import neighborhood_partition
from dislat.treeiso import lattice_of_tree
from tests.conftest import DATA, leq_meet, load
from tests.reference import (
    ClassHasAdjunct,
    children,
    class_has_adjunct,
    comparable,
    definition_is_ssc,
    enumerate_lower_dismantlable,
    explore_deletion_orders,
    induced_sublattice,
    is_structurally_deletable,
    leaves,
    lower_covers,
    lt,
    member_sets,
    neighborhood_classes,
    non_ancestor_graph,
    parent_map,
    peel_decomposition,
    reassemble,
    reference_peel,
    relabeled_tree,
    rescan_basic_block,
    upper_covers,
)
from tests.test_treeiso import random_parents, tree_of_parents


# -- references: one rebuilt lattice per deletion ---------------------------------


def rebuild_without(lat, x):
    """The sublattice on everything but x, its covers found by searching every
    triple of the induced order."""
    kept = [lab for lab in lat.labels if lab != x]
    covers = [
        (u, v)
        for u in kept
        for v in kept
        if lt(lat, u, v) and not any(lt(lat, u, z) and lt(lat, z, v) for z in kept)
    ]
    return build_from_covers(kept, covers)


def reference_deletable(lat, x):
    """Structural deletability on a built lattice, from its definition."""
    if lat.n < 3 or x == lat.bottom_label:
        return False
    lowers = lower_covers(lat, x)
    if x == lat.top_label:
        return len(lowers) == 1
    uppers = upper_covers(lat, x)
    if len(lowers) != 1 or len(uppers) != 1:
        return False
    return [z for z in lat.labels if lt(lat, lowers[0], z) and lt(lat, z, uppers[0])] == [x]


def reference_interior(lat):
    return sorted(x for x in lat.labels if x != lat.top_label and reference_deletable(lat, x))


def reference_basic_block(lat):
    current = lat
    while deletable := reference_interior(current):
        current = rebuild_without(current, deletable[0])
    return current


def reference_deletion_orders(lat):
    memo = {}

    def reach(sub):
        state = frozenset(sub.labels)
        if state not in memo:
            fixed = set()
            for x in reference_interior(sub):
                fixed |= reach(rebuild_without(sub, x))
            memo[state] = fixed or {state}
        return memo[state]

    return reach(lat)


class TestStructurallyDeletable:
    def test_chain_interior_true(self, fig2):
        assert is_structurally_deletable(fig2, "a2")

    def test_survivor_not_deletable(self, fig2):
        reduced = induced_sublattice(fig2, set(fig2.labels) - {"a2", "a3", "a4"})
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
                after = induced_sublattice(fig2, set(fig2.labels) - {x})
                assert len(after.cover_pairs()) == len(fig2.cover_pairs()) - 1


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

    def test_one_element_is_its_own_block(self):
        one = build_from_covers(["0"], [])
        assert basic_block(one) is one and rescan_basic_block(one) is one

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
        assert ssc_equivalence_report(m3, basic_block(m3), zero_divisor_graph(m3)) == {
            "basic_block_is_self": True,
            "ssc": True,
            "all_classes_singleton": True,
        }

    def test_report_negssc(self, negssc):
        assert ssc_equivalence_report(negssc, basic_block(negssc), zero_divisor_graph(negssc)) == {
            "basic_block_is_self": False,
            "ssc": False,
            "all_classes_singleton": False,
        }

    def test_hypothesis_violated(self, ex2):
        with pytest.raises(HypothesisViolated):
            ssc_equivalence_report(ex2, basic_block(ex2), zero_divisor_graph(ex2))

    def test_matches_triple_loop(self, sample_lattices):
        def reference_is_ssc(lat):
            """For every a not below b, a nonzero c <= a with b meet c = bottom."""
            bottom = lat.bottom_label
            return all(
                lat.leq(a, b)
                or any(c != bottom and lat.leq(c, a) and leq_meet(lat, b, c) == bottom for c in lat.labels)
                for a in lat.labels
                for b in lat.labels
            )

        verdicts = [definition_is_ssc(lat) for lat in sample_lattices]
        assert verdicts == [reference_is_ssc(lat) for lat in sample_lattices]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_three_way_equivalence(self):
        for lat in enumerate_lower_dismantlable(9, root_min_children=2):
            report = ssc_equivalence_report(lat, basic_block(lat), zero_divisor_graph(lat))
            assert len(set(report.values())) == 1, report


def unary_nodes(tree):
    """The nodes with exactly one child, read by label."""
    return {v for v in tree.labels if len(children(tree, v)) == 1}


def complete_binary_tree(nodes):
    """e1..e<nodes>, with e(2i) and e(2i+1) the children of ei."""
    return RootedTree.from_parents({f"e{k}": f"e{k // 2}" if k > 1 else None for k in range(1, nodes + 1)})


class TestSscReadOffCovers:
    """`is_ssc` reads the lemma off the lower covers (no node has exactly one
    child); `definition_is_ssc` checks the definition on down-set masks."""

    def test_every_lattice_of_at_most_12_elements(self):
        lattices = list(enumerate_lower_dismantlable(12))
        assert len(lattices) == 3047
        verdicts = [is_ssc(lat) for lat in lattices]
        assert verdicts == [definition_is_ssc(lat) for lat in lattices]
        assert verdicts == [not unary_nodes(tree_of_lattice(lat)) for lat in lattices]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("nodes", [255, 1023])
    def test_complete_binary_tree_with_and_without_a_leaf(self, nodes):
        """The last leaf's removal leaves its parent with one child."""
        full = complete_binary_tree(nodes)
        pruned = RootedTree.from_parents({v: p for v, p in parent_map(full).items() if v != f"e{nodes}"})
        for tree, want in ((full, True), (pruned, False)):
            lat = lattice_of_tree(tree)
            assert is_ssc(lat) is want and definition_is_ssc(lat) is want

    def test_outside_the_class_raises(self):
        general = load("general.adl")
        assert not is_lower_dismantlable(general)
        with pytest.raises(NotLowerDismantlable):
            is_ssc(general)


class TestDeletableReadOffTree:
    """x is structurally deletable iff x is not the top and has exactly one
    child, or is a leaf whose parent has exactly one child; with a
    join-reducible top, the block is the lattice itself iff no node is
    unary (README, "Basic blocks and peeling")."""

    def test_tree_rule_on_every_tree_of_at_most_11_nodes(self):
        checked = 0
        for tree in enumerate_rooted_trees(11):
            lat = lattice_of_tree(tree)
            parent, unary = parent_map(tree), unary_nodes(tree)
            want = {
                v for v, p in parent.items()
                if p is not None and (v in unary or not children(tree, v) and p in unary)
            }
            got = {lat.labels[x] for x in _deletable(lat, *_cover_masks(lat), (1 << lat.n) - 1)}
            assert got == want
            if len(children(tree, tree.root_label)) >= 2:
                assert (basic_block(lat) is lat) == (not unary) == is_ssc(lat)
            checked += 1
        assert checked == 3047


class TestNeighborhoodClasses:
    def test_tree_side_classes_of_ex2(self, ex2):
        classes = neighborhood_classes(non_ancestor_graph(tree_of_lattice(ex2)))
        assert classes == {
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
        assert classes == {
            frozenset({"a1", "a7"}),
            frozenset({"a2"}),
            frozenset({"a3"}),
            frozenset({"a4"}),
            frozenset({"a5"}),
            frozenset({"a6"}),
        }

    def test_k22_two_classes_of_two(self, k22):
        classes = neighborhood_classes(zero_divisor_graph(k22))
        assert sorted(map(len, classes)) == [2, 2]

    def test_partition_matches_pairwise_comparison(self, sample_lattices):
        for lat in sample_lattices:
            g = zero_divisor_graph(lat)
            assert {frozenset(b) for b in neighborhood_partition(g)} == neighborhood_classes(g)

    def test_flags_are_set(self):
        """Both class readers, on every lattice of at most 10 elements: each
        class has sorted members and a flag that agrees with its adjunct; with
        a join-reducible top, the two readers give the same classes and the
        same adjuncts."""
        documents = agreeing = 0
        for lat in enumerate_lower_dismantlable(10):
            zdg_classes = annotate_classes(lat, zero_divisor_graph(lat))
            tree_classes = peel_order(tree_of_lattice(lat))
            for c in (*zdg_classes, *tree_classes):
                assert c["members"] and c["members"] == sorted(c["members"])
                assert c["has_adjunct"] is (c["adjunct_member"] is not None)
                documents += 1
            if len(lat._lowers[lat.top]) >= 2:
                zdg_map, tree_map = ({frozenset(c["members"]): c["adjunct_member"] for c in classes}
                                     for classes in (zdg_classes, tree_classes))
                assert zdg_map == tree_map
                agreeing += 1
        assert agreeing == 285 and documents == 4816


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
            adjuncts = adjunct_elements(lat)
            for cls in neighborhood_classes(g):
                assert class_has_adjunct(g, min(cls)) == bool(cls & adjuncts)


class TestPeelOrder:
    def test_ex2_rounds(self, ex2):
        by_round: dict[int, set[frozenset]] = {}
        for rnd, path in _peel(tree_of_lattice(ex2)):
            by_round.setdefault(rnd, set()).add(frozenset(path))
        assert by_round == {
            1: {frozenset({"a1", "a7"}), frozenset({"a2"}), frozenset({"a3"}), frozenset({"a4"})},
            2: {frozenset({"a5"}), frozenset({"a6"})},
            3: {frozenset({"a8"})},
        }

    def test_ex2_flags(self, ex2):
        flagged = {tuple(c["members"]): (c["has_adjunct"], c["adjunct_member"]) for c in peel_order(tree_of_lattice(ex2))}
        assert flagged[("a5",)] == (True, "a5")
        assert flagged[("a6",)] == (True, "a6")
        assert flagged[("a8",)] == (True, "a8")
        assert flagged[("a1", "a7")] == (False, None)

    def test_star_two_leaves_single_round(self):
        tree = RootedTree.from_parents({"r": None, "a": "r", "b": "r"})
        assert member_sets(peel_order(tree)) == {frozenset({"a"}), frozenset({"b"})}
        assert [rnd for rnd, _ in _peel(tree)] == [1, 1]

    def test_path_tree_single_class(self):
        tree = RootedTree.from_parents({"r": None, "p1": "r", "p2": "p1", "p3": "p2"})
        assert member_sets(peel_order(tree)) == {frozenset({"p1", "p2", "p3"})}

    def test_classes_match_neighborhood_partition(self):
        for tree in enumerate_rooted_trees(7):
            peeled = peel_order(tree)
            assert member_sets(peeled) == neighborhood_classes(non_ancestor_graph(tree))

    def test_json_export_shape(self, ex2):
        """`analyze` writes the classes' JSON objects in peel order, with
        `peel_order` the identity on them."""
        golden = json.loads((DATA / "golden" / "ex2.analyze.json").read_text(encoding="utf-8"))
        classes = peel_order(tree_of_lattice(ex2))
        assert len(classes) == 7
        assert golden["tree_classes"] == {"classes": classes, "peel_order": list(range(len(classes)))}


def shuffled_labels(tree, rng):
    """The tree with its labels permuted over the nodes, built directly, so
    that index order is unrelated to label order."""
    labels = list(tree.labels)
    rng.shuffle(labels)
    return RootedTree(labels=tuple(labels), parent=tree.parent, root=tree.root)


class TestPeelAgainstLabelDict:
    """`_peel` reads the tree's index arrays; `reference_peel` rebuilds the
    child lists and a breadth-first order from the label -> label parent
    dict.  `peel_order` flags a class whose lowest member has children."""

    @staticmethod
    def trees():
        rng = random.Random(18)
        for tree in enumerate_rooted_trees(10):
            yield tree
            yield shuffled_labels(tree, rng)
        for _ in range(300):
            n = rng.randrange(2, 301)
            yield shuffled_labels(tree_of_parents(random_parents(rng, n), "v"), rng)

    def test_same_classes_rounds_and_flags(self):
        checked = 0
        for tree in self.trees():
            parent = parent_map(tree)
            want = reference_peel(parent)
            assert _peel(tree) == want
            has_children = set(parent.values())
            assert [c["adjunct_member"] for c in peel_order(tree)] == [
                path[-1] if path[-1] in has_children else None for _, path in want
            ]
            checked += 1
        assert checked == 2 * 1205 + 300


class TestClassChainLemmas:
    def test_classes_are_chains_with_minimal_adjunct(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            adjuncts = adjunct_elements(lat)
            for cls in annotate_classes(lat, g):
                for x, y in itertools.combinations(cls["members"], 2):
                    assert comparable(lat, x, y)  # each class is a chain
                inside = set(cls["members"]) & adjuncts
                assert len(inside) <= 1
                if inside:
                    a = next(iter(inside))
                    assert cls["adjunct_member"] == a
                    assert all(lat.leq(a, x) for x in cls["members"])

    def test_class_has_adjunct_iff_no_atom(self):
        for lat in enumerate_lower_dismantlable(9):
            g = zero_divisor_graph(lat)
            atoms = set(upper_covers(lat, lat.bottom_label))
            tree = tree_of_lattice(lat)
            pendants = set(leaves(tree))
            for cls in annotate_classes(lat, g):
                members = set(cls["members"])
                assert cls["has_adjunct"] == (not members & atoms)
                assert cls["has_adjunct"] == (not members & pendants)


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
            for cls in neighborhood_classes(g):
                x = min(cls)
                if class_has_adjunct(g, x):
                    continue
                step = peel_decomposition(lat, x)
                assert set(step.chain) == cls
                assert reassemble(step) == lat


class TestConfluence:
    def test_smallest_label_counterexample(self, negssc):
        fixed_points = explore_deletion_orders(negssc)
        assert {frozenset(fp) for fp in fixed_points} == {
            frozenset({"0", "one", "p", "r"}),
            frozenset({"0", "one", "q", "r"}),
        }

    def test_fixed_points_are_fixed(self, negssc, fig2):
        for lat in (negssc, fig2):
            for fp in explore_deletion_orders(lat):
                sub = induced_sublattice(lat, fp)
                assert basic_block(sub) == sub

    def test_m3_confluent(self, m3):
        assert len(explore_deletion_orders(m3)) == 1


class TestAgainstRebuild:
    """The survivor-set routines against one rebuilt lattice per deletion."""

    def test_deletable_elements(self, sample_lattices):
        for lat in sample_lattices:
            got = [x for x in lat.labels if is_structurally_deletable(lat, x)]
            assert got == [x for x in lat.labels if reference_deletable(lat, x)]

    def test_basic_block(self, sample_lattices):
        for lat in sample_lattices:
            block, ref = basic_block(lat), reference_basic_block(lat)
            assert block == ref and block.labels == ref.labels
            assert (block is lat) == (ref is lat)

    def test_deletion_orders(self, sample_lattices):
        for lat in sample_lattices:
            assert explore_deletion_orders(lat) == reference_deletion_orders(lat)


# -- closed form: basic blocks read off the maximal unary paths ----------------------


def closed_form(lat):
    """The fixed points that `fixed_point_form` describes, as label sets: the
    extremes, the kept branching nodes and one member of each leaf-ending
    class, in every combination."""
    kept, leaf_classes = fixed_point_form(tree_of_lattice(lat))
    base = {lat.bottom_label, lat.top_label, *kept}
    return {frozenset(base.union(pick)) for pick in itertools.product(*leaf_classes)}


def random_tree_lattices(count, max_nodes, seed):
    """Lattices of random recursive trees of 1..max_nodes nodes, their labels
    shuffled so that label order is not tree order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_nodes + 1)
        tree = tree_of_parents(random_parents(rng, n), "v")
        image = list(tree.labels)
        rng.shuffle(image)
        yield lattice_of_tree(relabeled_tree(tree, dict(zip(tree.labels, image))))


class TestClosedFormBlocks:
    """Fixed points read off the branch peel, with no deletion stepped,
    against the exhaustive search over deletion orders."""

    @pytest.fixture(scope="class")
    def lattices(self):
        return [*enumerate_lower_dismantlable(10), *random_tree_lattices(50, 20, seed=9)]

    @pytest.fixture(scope="class")
    def searched(self):
        """Every lattice of at most 12 elements, with the fixed points that
        the search over deletion orders finds."""
        return [(lat, explore_deletion_orders(lat)) for lat in enumerate_lower_dismantlable(12)]

    def test_counts(self, lattices, searched):
        assert len(lattices) == 486 + 50
        assert len(searched) == 3047
        assert sum(len(closed_form(lat)) > 1 for lat in lattices) > 100

    def test_deletion_orders(self, lattices, searched):
        for lat, fixed_points in searched:
            assert fixed_points == closed_form(lat)
        for lat in lattices[486:]:
            assert explore_deletion_orders(lat) == closed_form(lat)

    def test_fixed_points_isomorphic(self, searched):
        """Every fixed point the search finds has one tree, so verify's
        block-confluence counts every lattice as iso-confluent."""
        for lat, fixed_points in searched:
            codes = {canonical_code(tree_of_lattice(induced_sublattice(lat, fp))) for fp in fixed_points}
            assert len(codes) == 1

    def test_basic_block_keeps_largest_label_of_each_leaf_path(self, lattices):
        for lat in lattices:
            kept, leaf_classes = fixed_point_form(tree_of_lattice(lat))
            block = set(basic_block(lat).labels)
            assert block == {lat.bottom_label, lat.top_label, *kept} | {max(c) for c in leaf_classes}


class TestBlockAgainstRescan:
    """`basic_block` tests again only the elements a deletion can affect; the
    reference tests every survivor after each deletion."""

    def test_small_and_random_tree_lattices(self):
        lattices = [*enumerate_lower_dismantlable(10), *random_tree_lattices(50, 300, seed=11)]
        assert len(lattices) == 486 + 50
        for lat in lattices:
            got, want = basic_block(lat), rescan_basic_block(lat)
            assert got.labels == want.labels and got == want

    def test_general_dismantlable(self, sample_lattices):
        for lat in sample_lattices:
            got, want = basic_block(lat), rescan_basic_block(lat)
            assert got.labels == want.labels and got == want

