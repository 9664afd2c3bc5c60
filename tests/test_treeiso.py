from __future__ import annotations

import itertools
import math
import random

import pytest

from dislat import (
    CycleDetected,
    DislatError,
    HypothesisViolated,
    LabelClash,
    LabeledGraph,
    NotInClass,
    NoSuchElement,
    NotLowerDismantlable,
    RootedTree,
    adjunct_elements,
    canonical_code,
    graph_iso,
    lattice_from_complete_multipartite,
    lattice_of_tree,
    lift_to_lattice_iso,
    recognize,
    tree_of_lattice,
    zero_divisor_graph,
)
from dislat.lattice import relabel
from dislat.oracle import brute_lattice_iso, enumerate_rooted_trees
from dislat.treeiso import FRESH_ROOT, _canonical, check_lattice_iso, tree_from_code, tree_match_iso
from tests.conftest import DATA, random_dismantlable, shuffled_copy
from tests.reference import (
    SetGraph,
    adjunct_pair_multiset,
    align_adjuncts,
    brute_graph_iso,
    brute_graph_iso_all,
    chain_lattice,
    check_graph_iso,
    children,
    comparable,
    edge_walking_recognize,
    enumerate_lower_dismantlable,
    is_ancestor,
    lattice_arrays,
    leaves,
    lower_covers,
    non_ancestor_graph,
    parent_map,
    preorder_intervals,
    reference_lattice_of_tree,
    reference_lift,
    relabeled_tree,
    upper_covers,
)


def relabel_graph(g: LabeledGraph, mapping) -> LabeledGraph:
    return LabeledGraph(
        [mapping[v] for v in g.vertices],
        [(mapping[u], mapping[v]) for u, v in g.edges],
    )


def lift_ignoring_alignment(l1, l2, g1, g2, f: dict[str, str]) -> dict[str, str]:
    """Lift the graph isomorphism f, and check that the result is the lift
    of f after the paper's alignment, and that it agrees with the aligned
    map on the adjunct elements below the top."""
    psi = lift_to_lattice_iso(l1, l2, g1, g2, f)
    phi = align_adjuncts(l1, l2, g1, g2, f)
    assert psi == lift_to_lattice_iso(l1, l2, g1, g2, phi)
    x_set = adjunct_elements(l1) - {l1.top_label}
    assert all(psi[x] == phi[x] for x in x_set)
    return psi


def cycle(n: int) -> LabeledGraph:
    verts = [f"c{i}" for i in range(n)]
    return LabeledGraph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


class TestTreeOfLattice:
    def test_ex2_shape(self, ex2):
        tree = tree_of_lattice(ex2)
        assert parent_map(tree) == {
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
        assert set(children(tree, "one")) == {"a", "b"}

    def test_chain_path(self):
        tree = tree_of_lattice(chain_lattice(["0", "c", "1"]))
        assert parent_map(tree) == {"1": None, "c": "1"}

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
        assert set(upper_covers(lat, lat.bottom_label)) == {"x", "y", "z"}
        assert adjunct_elements(lat) == {"r"}
        assert adjunct_pair_multiset(lat) == {("0", "r"): 2}  # (0,1) multiplicity

    def test_round_trips_both_ways(self):
        for tree in enumerate_rooted_trees(6):
            lat = lattice_of_tree(tree)
            back = tree_of_lattice(lat)
            assert parent_map(back) == parent_map(tree)

    def test_matches_validated_build(self):
        """Every array equals that of the build through `build_from_covers`,
        on every tree of at most 9 nodes and on random trees whose nodes are
        renumbered, so that neither the root nor the breadth-first order
        follows the index order."""
        rng = random.Random(19)
        trees = list(enumerate_rooted_trees(9))
        for n in (*range(1, 60), 150, 400):
            parents, where = random_parents(rng, n), list(range(n))
            rng.shuffle(where)  # node i of the random tree is node where[i]
            parent = [0] * n
            for i, p in enumerate(parents):
                parent[where[i]] = where[p]
            trees.append(RootedTree(labels=tuple(f"v{k}" for k in range(n)), parent=tuple(parent), root=where[0]))
        for tree in trees:
            assert lattice_arrays(lattice_of_tree(tree)) == lattice_arrays(reference_lattice_of_tree(tree))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RootedTree.from_parents({"r": None, "0": "r"}),
            lambda: RootedTree(labels=("a", "b", "a"), parent=(0, 0, 1), root=0),
        ],
        ids=["zero-label", "repeated-label"],
    )
    def test_label_clash_as_validated_build(self, make):
        """A repeated label is refused when the tree is built, with the
        message the validated build gives."""
        with pytest.raises(LabelClash) as got:
            lattice_of_tree(make())
        with pytest.raises(LabelClash) as want:
            reference_lattice_of_tree(make())
        assert str(got.value) == str(want.value)

    def test_repeated_label_refused_by_the_tree(self):
        with pytest.raises(LabelClash, match="duplicate label 'a'"):
            RootedTree(labels=("r", "a", "a"), parent=(0, 0, 0), root=0)


class TestNonAncestorGraph:
    def test_ex2_matches_zdg_plus_isolated_top_chain(self, ex2):
        tree = tree_of_lattice(ex2)
        nag = non_ancestor_graph(tree)
        zg = zero_divisor_graph(ex2)
        assert set(nag.vertices) == set(zg.vertices) | {"a8"}
        by_label = SetGraph(nag.vertices, nag.edges)
        assert by_label.neighbors("a8") == frozenset()
        assert by_label.induced(zg.vertices).to_json_obj() == zg.to_json_obj()

    def test_path_tree_edgeless(self):
        tree = RootedTree.from_parents({"r": None, "a": "r", "b": "a"})
        nag = non_ancestor_graph(tree)
        assert nag.vertices == ("a", "b") and nag.edges == ()

    def test_star_two_leaves_is_k2(self):
        tree = RootedTree.from_parents({"r": None, "a": "r", "b": "r"})
        nag = non_ancestor_graph(tree)
        assert nag.edges == (("a", "b"),)

    def test_zdg_equals_nag_for_join_reducible_top(self):
        for lat in enumerate_lower_dismantlable(9, root_min_children=2):
            assert non_ancestor_graph(tree_of_lattice(lat)) == zero_divisor_graph(lat)

    def test_zdg_differs_by_isolated_comparable_vertices_otherwise(self):
        for lat in enumerate_lower_dismantlable(8):
            if len(lower_covers(lat, lat.top_label)) >= 2:
                continue
            nag = non_ancestor_graph(tree_of_lattice(lat))
            zg = zero_divisor_graph(lat)
            extra = set(nag.vertices) - set(zg.vertices)
            by_label = SetGraph(nag.vertices, nag.edges)
            assert by_label.induced(zg.vertices).to_json_obj() == zg.to_json_obj()
            for v in extra:
                assert by_label.neighbors(v) == frozenset()
                assert all(comparable(lat, v, w) for w in lat.labels)

    def test_neighborhood_monotone_under_ancestry(self):
        for tree in enumerate_rooted_trees(7):
            nag = non_ancestor_graph(tree)
            by_label = SetGraph(nag.vertices, nag.edges)
            for u in nag.vertices:
                for v in nag.vertices:
                    if u != v and is_ancestor(tree, u, v):
                        assert by_label.neighbors(u) <= by_label.neighbors(v)


class TestCanonicalCode:
    def test_single_node(self):
        assert canonical_code(RootedTree.from_parents({"r": None})) == "()"

    def test_two_leaves(self):
        assert canonical_code(RootedTree.from_parents({"r": None, "a": "r", "b": "r"})) == "(()())"

    def test_relabel_invariant(self, ex2):
        tree = tree_of_lattice(ex2)
        mapping = {lab: f"q_{lab}" for lab in tree.labels}
        assert canonical_code(relabeled_tree(tree, mapping)) == canonical_code(tree)

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
        assert graph_iso(g, relabel_graph(g, mapping)) is not None

    def test_different_part_sizes_false(self):
        g22 = zero_divisor_graph(lattice_from_complete_multipartite([2, 2]))
        g31 = zero_divisor_graph(lattice_from_complete_multipartite([3, 1]))
        assert graph_iso(g22, g31) is None

    def test_not_in_class_raises_with_which(self):
        with pytest.raises(NotInClass) as err:
            graph_iso(cycle(5), cycle(4))
        assert err.value.which == "first"
        with pytest.raises(NotInClass) as err:
            graph_iso(cycle(4), cycle(5))
        assert err.value.which == "second"

    def test_agrees_with_brute_force_on_trees(self):
        trees = list(enumerate_rooted_trees(5))
        graphs = [non_ancestor_graph(t) for t in trees]
        for (t1, g1), (t2, g2) in itertools.combinations_with_replacement(list(zip(trees, graphs)), 2):
            want = brute_graph_iso(g1, g2) is not None
            if g1.n == 0 or g2.n == 0:
                continue  # empty graphs carry no information for graph_iso
            f = graph_iso(g1, g2)
            assert (f is not None) == want
            if f is not None:
                assert check_graph_iso(g1, g2, f)


def random_parents(rng, n: int) -> list[int]:
    """A random recursive tree on nodes 0..n-1, rooted at 0: parents[i] < i."""
    return [0] + [rng.randrange(i) for i in range(1, n)]


def tree_of_parents(parents: list[int], prefix: str) -> RootedTree:
    return RootedTree.from_parents(
        {f"{prefix}{i}": None if i == 0 else f"{prefix}{p}" for i, p in enumerate(parents)}
    )


def walk_ancestors(tree: RootedTree, v: str) -> set[str]:
    """The proper ancestors of v, by following the parent links."""
    parent, out = parent_map(tree), set()
    while parent[v] is not None:
        v = parent[v]
        out.add(v)
    return out


def reference_non_ancestor_graph(tree: RootedTree) -> LabeledGraph:
    verts = [v for v in tree.labels if v != tree.root_label]
    above = {v: walk_ancestors(tree, v) for v in verts}
    pairs = itertools.combinations(verts, 2)
    return LabeledGraph(verts, [(u, v) for u, v in pairs if u not in above[v] and v not in above[u]])


def reference_recognize(graph: LabeledGraph) -> RootedTree | None:
    """Parents from pairwise neighborhood comparisons (the ancestor has the
    smaller neighborhood, ties by label; the parent is the deepest
    ancestor), checked by rebuilding the whole non-ancestor graph."""
    root = FRESH_ROOT
    while root in graph.vertices:
        root += "'"
    by_label = SetGraph(graph.vertices, graph.edges)
    nbrs = {v: by_label.neighbors(v) for v in graph.vertices}

    def is_proper_ancestor(u: str, v: str) -> bool:
        if u == v or u in nbrs[v]:
            return False
        return u < v if nbrs[u] == nbrs[v] else nbrs[u] < nbrs[v]

    parents: dict[str, str | None] = {root: None}
    for v in graph.vertices:
        ancestors = [u for u in graph.vertices if is_proper_ancestor(u, v)]
        parents[v] = max(ancestors, key=lambda u: (len(nbrs[u]), u)) if ancestors else root
    try:
        tree = RootedTree.from_parents(parents)
    except DislatError:
        return None
    return tree if reference_non_ancestor_graph(tree) == graph else None


def mutations(rng, g: LabeledGraph):
    """The graph itself, then with one edge added, one edge removed, an
    isolated vertex added, and two labels swapped."""
    yield g
    verts, edges = list(g.vertices), set(g.edges)
    missing = [p for p in itertools.combinations(verts, 2) if p not in edges]
    if missing:
        yield LabeledGraph(verts, edges | {rng.choice(missing)})
    if edges:
        yield LabeledGraph(verts, edges - {rng.choice(sorted(edges))})
    yield LabeledGraph([*verts, "zz"], edges)
    if len(verts) >= 2:
        a, b = rng.sample(verts, 2)
        swap = {a: b, b: a}
        yield LabeledGraph(verts, [(swap.get(u, u), swap.get(v, v)) for u, v in edges])


class TestTreeIndex:
    """The dict index, child lists and the tests' preorder intervals against
    walks along the parent links."""

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 500])
    @pytest.mark.parametrize("shape", ["random", "path"])
    def test_is_ancestor_matches_parent_walk(self, n, shape):
        import random

        rng = random.Random(n)
        parents = random_parents(rng, n) if shape == "random" else [0, *range(n - 1)]
        tree = tree_of_parents(parents, "v")
        tin, tout = preorder_intervals(tree)
        for v in range(tree.n):
            got = {tree.labels[u] for u in range(tree.n) if tin[u] < tin[v] < tout[u]}
            assert got == walk_ancestors(tree, tree.labels[v])
        if n <= 60:  # is_ancestor finds the intervals anew on every call
            for v in tree.labels:
                assert {u for u in tree.labels if is_ancestor(tree, u, v)} == walk_ancestors(tree, v)

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_children_leaves_and_graph_match_scans(self, n):
        import random

        tree = tree_of_parents(random_parents(random.Random(n), n), "v")
        parent = tree.parent
        for v in range(tree.n):  # a leaf's child list is empty
            assert tree._children[v] == tuple(c for c in range(tree.n) if c != tree.root and parent[c] == v)
        assert non_ancestor_graph(tree) == reference_non_ancestor_graph(tree)

    def test_unknown_node(self):
        tree = RootedTree.from_parents({"r": None, "a": "r"})
        with pytest.raises(NoSuchElement):
            is_ancestor(tree, "r", "zz")

    def test_cycle_avoiding_root_rejected(self):
        with pytest.raises(CycleDetected):
            RootedTree.from_parents({"r": None, "a": "r", "b": "c", "c": "b"})
        with pytest.raises(CycleDetected):
            RootedTree.from_parents({"r": None, "a": "a"})

    @pytest.mark.parametrize(
        "parents", [{"r": None, "s": None, "a": "r"}, {"a": "b", "b": "a"}], ids=["two-roots", "no-root"]
    )
    def test_root_count_rejected(self, parents):
        with pytest.raises(HypothesisViolated):
            RootedTree.from_parents(parents)

    def test_unknown_parent_rejected(self):
        with pytest.raises(NoSuchElement):
            RootedTree.from_parents({"r": None, "a": "q"})


class TestTreeFromCode:
    @pytest.mark.parametrize("code", ["", "(", ")", "(()", "()()", "()x", "(x)", "())"])
    def test_malformed_rejected(self, code):
        with pytest.raises(HypothesisViolated):
            tree_from_code(code)

    def test_round_trip(self):
        for tree in enumerate_rooted_trees(7):
            code = canonical_code(tree)
            assert canonical_code(tree_from_code(code)) == code

    def test_deep_path(self):
        code = "(" * 3000 + ")" * 3000
        tree = tree_from_code(code)
        assert tree.n == 3000 and leaves(tree) == ("n2999",)


def mutated_graphs():
    """Non-ancestor graphs of random trees and their one-step mutations."""
    rng = random.Random(17)
    for n in [*range(1, 9), *(rng.randrange(9, 30) for _ in range(40))]:
        tree = tree_of_parents(random_parents(rng, n), "t")
        yield from mutations(rng, non_ancestor_graph(tree))


def random_graphs():
    """500 random graphs on up to 8 vertices."""
    rng = random.Random(23)
    for _ in range(500):
        verts = [f"v{i}" for i in range(rng.randrange(1, 9))]
        p = rng.random()
        yield LabeledGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])


def small_tree_graphs():
    """The non-ancestor graph and the zero-divisor graph of every tree of at
    most 10 nodes, each followed by four of its one-pair edge flips."""
    rng = random.Random(29)
    for tree in enumerate_rooted_trees(10):
        for g in (non_ancestor_graph(tree), zero_divisor_graph(lattice_of_tree(tree))):
            yield g
            pairs = list(itertools.combinations(g.vertices, 2))
            for pair in rng.sample(pairs, min(4, len(pairs))):
                yield LabeledGraph(g.vertices, set(g.edges) ^ {pair})


def shape_parents(rng, shape: str, n: int) -> list[int]:
    """An n-node tree of the given shape, rooted at 0: parents[i] < i."""
    if shape == "path":
        return [0, *range(n - 1)]
    if shape == "spider":  # two legs of n // 2 and (n - 1) // 2 nodes
        return [0, *(0 if i in (1, n // 2 + 1) else i - 1 for i in range(1, n))]
    if shape == "binary":
        return [0, *((i - 1) // 2 for i in range(1, n))]
    if shape == "caterpillar":  # a spine of a third of the nodes, leaves on random spine nodes
        spine = max(1, n // 3)
        return [0, *range(spine - 1), *(rng.randrange(spine) for _ in range(n - spine))]
    return random_parents(rng, n)


def shuffled_shape(rng, shape: str, n: int) -> RootedTree:
    """The tree of `shape_parents` with its labels t0..t(n-1) shuffled, so
    that neither label order nor index order says anything of the tree."""
    names = [f"t{k}" for k in rng.sample(range(n), n)]
    return RootedTree(labels=tuple(names), parent=tuple(shape_parents(rng, shape, n)), root=0)


SHAPES = ("path", "spider", "binary", "caterpillar", "random")


class TestRecognizeAgainstRebuild:
    def test_mutated_non_ancestor_graphs(self):
        """Accept exactly when the rebuild-and-compare check accepts, with
        the same tree, on non-ancestor graphs and one-step mutations."""
        verdicts = []
        for g in mutated_graphs():
            got, want = recognize(g), reference_recognize(g)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == want
            verdicts.append(got is not None)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_random_graphs(self):
        for g in random_graphs():
            got, want = recognize(g), reference_recognize(g)
            assert (got is None) == (want is None)
            assert got == want


class TestRecognizeAgainstEdgeWalking:
    """Recognition on the neighbour masks against the edge-walking one on a
    set-based copy of each graph: the same verdict and the same tree."""

    @pytest.mark.parametrize(
        "graphs", [mutated_graphs, random_graphs, small_tree_graphs], ids=["mutated", "random", "small-trees"]
    )
    def test_same_trees(self, graphs):
        verdicts = []
        for g in graphs():
            got, want = recognize(g), edge_walking_recognize(SetGraph(g.vertices, g.edges))
            assert (got is None) == (want is None)
            assert got == want
            verdicts.append(got is not None)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_larger_trees(self):
        """Random recursive trees of 60 to 400 nodes, then a shuffled tree
        of 200 nodes in each shape; each graph is also built again from
        walks along the parent links."""
        rng = random.Random(47)
        trees = [tree_of_parents(random_parents(rng, n), "t") for n in (60, 200, 400)]
        trees += [shuffled_shape(rng, shape, 200) for shape in SHAPES]
        for tree in trees:
            nag = non_ancestor_graph(tree)
            assert nag == reference_non_ancestor_graph(tree)
            for g in mutations(rng, nag):
                got, want = recognize(g), edge_walking_recognize(SetGraph(g.vertices, g.edges))
                assert (got is None) == (want is None)
                assert got == want


class TestIsoChecks:
    """The edge-set and cover-set checks against the pairwise definitions."""

    @staticmethod
    def pairwise_graph_iso(g1, g2, mapping) -> bool:
        if set(mapping) != set(g1.vertices) or set(mapping.values()) != set(g2.vertices):
            return False
        g1, g2 = SetGraph(g1.vertices, g1.edges), SetGraph(g2.vertices, g2.edges)
        return all(
            g1.adjacent(u, v) == g2.adjacent(mapping[u], mapping[v])
            for u, v in itertools.combinations(g1.vertices, 2)
        )

    @staticmethod
    def pairwise_lattice_iso(l1, l2, mapping) -> bool:
        if set(mapping) != set(l1.labels) or set(mapping.values()) != set(l2.labels):
            return False
        return all(l1.leq(x, y) == l2.leq(mapping[x], mapping[y]) for x in l1.labels for y in l1.labels)

    @staticmethod
    def candidate_maps(rng, labels, image):
        """The map onto a relabeled copy, the same with two images swapped,
        and the same with one element left out."""
        mapping = dict(zip(labels, image))
        yield mapping
        if len(labels) >= 2:
            a, b = rng.sample(labels, 2)
            yield {**mapping, a: mapping[b], b: mapping[a]}
        yield {k: v for k, v in mapping.items() if k != labels[0]}

    def test_agree_with_definitions(self):
        import random

        rng = random.Random(29)
        lats = [*enumerate_lower_dismantlable(7), *(random_dismantlable(rng) for _ in range(200))]
        verdicts = []
        for lat in lats:
            perm = list(lat.labels)
            rng.shuffle(perm)
            image = {x: f"w{y}" for x, y in zip(lat.labels, perm)}
            other = relabel(lat, image)
            for mapping in self.candidate_maps(rng, list(lat.labels), [image[x] for x in lat.labels]):
                want = self.pairwise_lattice_iso(lat, other, mapping)
                assert check_lattice_iso(lat, other, mapping) == want
                verdicts.append(want)
            g1, g2 = zero_divisor_graph(lat), zero_divisor_graph(other)
            targets = [g2]  # and the same vertices with one edge more or less
            missing = [e for e in itertools.combinations(g2.vertices, 2) if e not in g2.edges]
            if missing:
                targets.append(LabeledGraph(g2.vertices, [*g2.edges, rng.choice(missing)]))
            if g2.edges:
                targets.append(LabeledGraph(g2.vertices, g2.edges[1:]))
            for mapping in self.candidate_maps(rng, list(g1.vertices), [image[v] for v in g1.vertices]):
                for target in targets:
                    want = self.pairwise_graph_iso(g1, target, mapping)
                    assert check_graph_iso(g1, target, mapping) == want
                    verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)


class TestTreeMatcherAgainstNetworkx:
    """The zipped canonical preorders against networkx's rooted tree
    isomorphism, on relabeled copies and on near misses (one leaf moved)."""

    @staticmethod
    def match(t1: RootedTree, t2: RootedTree) -> dict[str, str] | None:
        (code1, order1), (code2, order2) = _canonical(t1), _canonical(t2)
        return dict(zip(order1, order2)) if code1 == code2 else None

    @staticmethod
    def nx_isomorphic(nx, t1: RootedTree, t2: RootedTree) -> bool:
        from networkx.algorithms.isomorphism import rooted_tree_isomorphism

        graphs = []
        for t in (t1, t2):
            g = nx.Graph()
            g.add_nodes_from(t.labels)
            g.add_edges_from((c, p) for c, p in parent_map(t).items() if p is not None)
            graphs.append(g)
        return bool(rooted_tree_isomorphism(graphs[0], t1.root_label, graphs[1], t2.root_label))

    @pytest.mark.parametrize("n", [3, 5, 17, 64, 200, 500])
    def test_agrees_with_networkx(self, n):
        import random

        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        parents = random_parents(rng, n)
        t1 = tree_of_parents(parents, "a")
        perm = list(range(1, n))
        rng.shuffle(perm)
        rank = {0: 0, **{old: new for new, old in enumerate(perm, start=1)}}
        # the same tree with its non-root nodes renamed in a shuffled order
        copy = tree_of_parents([0] + [rank[parents[old]] for old in perm], "b")
        leaves = [v for v in range(1, n) if v not in parents]
        moved = list(parents)
        leaf = rng.choice(leaves)
        moved[leaf] = rng.choice([v for v in range(n) if v != leaf and v != parents[leaf]])
        miss = tree_of_parents(moved, "c")
        for other in (copy, miss):
            f = self.match(t1, other)
            assert (f is not None) == self.nx_isomorphic(nx, t1, other)
            if f is not None:  # a bijection that maps parents to parents
                assert sorted(f.values()) == sorted(other.labels)
                image_parents = parent_map(other)
                assert all(
                    image_parents[f[c]] == (None if p is None else f[p]) for c, p in parent_map(t1).items()
                )
        assert self.match(t1, copy) is not None


class TestAlignAdjuncts:
    """The paper's alignment lemma, kept in tests.reference: the lift does
    not need it, and the lift tests below compare against it."""

    def test_already_aligned_is_identity(self, k22):
        g = zero_divisor_graph(k22)
        f = {v: v for v in g.vertices}
        assert align_adjuncts(k22, k22, g, g, f) == f

    def test_single_swap_restores_alignment(self):
        from dislat.dsl import elaborate, parse

        lat = elaborate(parse("lattice t { chain 0 p a z one; adjoin (0, a): q; adjoin (0, one): r; }"))
        f = {"a": "z", "z": "a", "p": "p", "q": "q", "r": "r"}
        g = zero_divisor_graph(lat)
        phi = align_adjuncts(lat, lat, g, g, f)
        adjunct_vertices = {"a"}
        assert {phi[x] for x in adjunct_vertices} == adjunct_vertices
        # class behavior is f's: classes map setwise identically
        assert phi["p"] == "p" and phi["r"] == "r"

    def test_hypothesis_checked(self, ex2):
        f = {}
        g = zero_divisor_graph(ex2)
        with pytest.raises(HypothesisViolated):
            align_adjuncts(ex2, ex2, g, g, f)  # join-irreducible top

    def test_invalid_witness_rejected(self, k22):
        from dislat import InternalInconsistency

        g = zero_divisor_graph(k22)
        not_an_iso = {"v": "v", "w": "x", "x": "w", "y": "y"}
        with pytest.raises(InternalInconsistency):
            align_adjuncts(k22, k22, g, g, not_an_iso)

    def test_postcondition_on_all_automorphisms(self):
        for lat in enumerate_lower_dismantlable(7, root_min_children=2):
            g = zero_divisor_graph(lat)
            by_label = SetGraph(g.vertices, g.edges)
            adjunct_vertices = adjunct_elements(lat) & set(g.vertices)
            for mapping in brute_graph_iso_all(g, g):
                phi = align_adjuncts(lat, lat, g, g, mapping)
                assert {phi[x] for x in adjunct_vertices} == adjunct_vertices
                # class behavior preserved: phi([x]) == f([x]) setwise
                for v in g.vertices:
                    cls = {w for w in g.vertices if by_label.neighbors(w) == by_label.neighbors(v)}
                    assert {phi[w] for w in cls} == {mapping[w] for w in cls}


class TestLiftToLatticeIso:
    def test_m3_atom_permutations(self, m3):
        g = zero_divisor_graph(m3)
        for perm in itertools.permutations(["a", "b", "c"]):
            f = dict(zip(["a", "b", "c"], perm))
            psi = lift_to_lattice_iso(m3, m3, g, g, f)
            assert psi["0"] == "0" and psi["one"] == "one"
            assert all(psi[x] == f[x] for x in "abc")
            assert check_lattice_iso(m3, m3, psi)

    def test_k22_relabeled(self, k22):
        other = relabel(k22, {"0": "0", "v": "m", "w": "n", "x": "s", "y": "t", "one": "one"})
        g1, g2 = zero_divisor_graph(k22), zero_divisor_graph(other)
        f = brute_graph_iso(g1, g2)
        psi = lift_ignoring_alignment(k22, other, g1, g2, f)
        assert check_lattice_iso(k22, other, psi)
        # brute-force oracle confirms psi is one of the valid isomorphisms
        from dislat.oracle import brute_lattice_iso_all

        assert psi in list(brute_lattice_iso_all(k22, other))

    def test_misaligned_phi_lifts(self):
        """An automorphism that swaps the adjunct element a with its
        class-mate z lifts as it is: the class {a, z} goes onto itself,
        bottom to bottom, so the lift is the identity."""
        from dislat.dsl import elaborate, parse

        lat = elaborate(parse("lattice t { chain 0 p a z one; adjoin (0, a): q; adjoin (0, one): r; }"))
        f = {"a": "z", "z": "a", "p": "p", "q": "q", "r": "r"}
        g = zero_divisor_graph(lat)
        psi = lift_ignoring_alignment(lat, lat, g, g, f)
        assert psi == {x: x for x in lat.labels}
        assert check_lattice_iso(lat, lat, psi)

    def test_exhaustive_align_then_lift(self):
        """Every automorphism of every zero-divisor graph of at most 8
        elements lifts to the map that its alignment lifts to, and each
        class goes onto its image."""
        for lat in enumerate_lower_dismantlable(8, root_min_children=2):
            g = zero_divisor_graph(lat)
            by_label = SetGraph(g.vertices, g.edges)
            for mapping in brute_graph_iso_all(g, g):
                psi = lift_ignoring_alignment(lat, lat, g, g, mapping)
                assert check_lattice_iso(lat, lat, psi)
                for v in g.vertices:
                    cls = {w for w in g.vertices if by_label.neighbors(w) == by_label.neighbors(v)}
                    assert {psi[w] for w in cls} == {mapping[w] for w in cls}

    def test_lift_across_relabeled_copies(self):
        """Non-diagonal pairs: every graph isomorphism onto a shuffled copy
        lifts, with or without alignment."""
        import random

        rng = random.Random(42)
        for lat in enumerate_lower_dismantlable(8, root_min_children=2):
            perm = list(lat.labels)
            rng.shuffle(perm)
            other = relabel(lat, dict(zip(lat.labels, perm)))
            g1, g2 = zero_divisor_graph(lat), zero_divisor_graph(other)
            for mapping in brute_graph_iso_all(g1, g2):
                psi = lift_ignoring_alignment(lat, other, g1, g2, mapping)
                assert check_lattice_iso(lat, other, psi)

    def test_one_pass_lift_is_the_recursive_peel(self):
        """The one-pass lift of `graph_iso`'s map returns the map that
        peeling one class at a time from both lattices builds from its
        alignment, on every lattice of at most 10 elements with a
        join-reducible top against a relabeled copy."""
        rng = random.Random(10)
        for lat in enumerate_lower_dismantlable(10, root_min_children=2):
            other = shuffled_copy(lat, rng)
            g1, g2 = zero_divisor_graph(lat), zero_divisor_graph(other)
            f = graph_iso(g1, g2)
            psi = lift_ignoring_alignment(lat, other, g1, g2, f)
            assert psi == reference_lift(lat, other, align_adjuncts(lat, other, g1, g2, f))


class TestLiftLemma:
    """The lift checks only its result.  With join-reducible tops and phi a
    bijection of the vertices, the lifted map is an order isomorphism
    exactly when phi is a graph isomorphism, so the lift raises
    `InternalInconsistency` exactly when `check_graph_iso` rejects phi."""

    @staticmethod
    def sweep(l1, l2):
        """Lift every bijection from the vertices of l1's graph onto those of
        l2's; the number of graph isomorphisms among them."""
        from dislat import InternalInconsistency

        g1, g2 = zero_divisor_graph(l1), zero_divisor_graph(l2)
        isomorphisms = 0
        for image in itertools.permutations(g2.vertices):
            mapping = dict(zip(g1.vertices, image))
            want = check_graph_iso(g1, g2, mapping)
            try:
                psi = lift_to_lattice_iso(l1, l2, g1, g2, mapping)
            except InternalInconsistency as exc:
                assert not want and str(exc) == "lifted map is not an order isomorphism"
            else:
                assert want and check_lattice_iso(l1, l2, psi)
            isomorphisms += want
        return isomorphisms

    def test_every_bijection_onto_itself(self):
        """The 21,614 vertex bijections of the 47 lattices of at most 8
        elements with a join-reducible top."""
        lats = list(enumerate_lower_dismantlable(8, root_min_children=2))
        assert len(lats) == 47
        counts = [self.sweep(lat, lat) for lat in lats]
        assert all(counts)  # the identity, at least

    def test_every_bijection_between_relabeled_lattices_of_one_size(self):
        """The 15,146 bijections from each lattice of at most 7 elements with
        a join-reducible top onto a relabeled copy of each of the same size,
        itself included."""
        rng = random.Random(20)
        lats = list(enumerate_lower_dismantlable(7, root_min_children=2))
        pairs = [(a, shuffled_copy(b, rng)) for a in lats for b in lats if a.n == b.n]
        counts = [self.sweep(a, b) for a, b in pairs]
        assert sum(1 for c in counts if c) == len(lats)  # isomorphic exactly on the diagonal
        assert sum(math.factorial(a.n - 2) for a, _ in pairs) == 15146

    @pytest.mark.parametrize("change", ["missing", "foreign value", "foreign key"])
    def test_a_map_off_the_vertex_sets_raises(self, k22, change):
        from dislat import InternalInconsistency

        other = relabel(k22, {"0": "0", "v": "m", "w": "n", "x": "s", "y": "t", "one": "one"})
        g1, g2 = zero_divisor_graph(k22), zero_divisor_graph(other)
        mapping = dict(graph_iso(g1, g2))
        if change == "missing":
            del mapping["v"]
        elif change == "foreign value":
            mapping["v"] = "v"  # a vertex of the first graph
        else:
            mapping["m"] = mapping.pop("v")  # a vertex of the second graph
        with pytest.raises(InternalInconsistency) as info:
            lift_to_lattice_iso(k22, other, g1, g2, mapping)
        assert str(info.value) == "phi does not map the vertices of the first graph onto those of the second"

    def test_a_lattice_map_is_refused_by_the_vertex_sets(self, k22):
        """A lattice isomorphism maps the bottom and the top too, and with
        join-reducible tops neither is a vertex: the lift refuses it as a
        map off the vertex sets."""
        from dislat import InternalInconsistency

        other = relabel(k22, {"0": "0", "v": "m", "w": "n", "x": "s", "y": "t", "one": "one"})
        g1, g2 = zero_divisor_graph(k22), zero_divisor_graph(other)
        psi = brute_lattice_iso(k22, other)
        assert {k22.bottom_label, k22.top_label} <= set(psi)
        with pytest.raises(InternalInconsistency) as info:
            lift_to_lattice_iso(k22, other, g1, g2, psi)
        assert str(info.value) == "phi does not map the vertices of the first graph onto those of the second"

class TestTreeMatchIso:
    def test_every_lattice_against_a_relabeled_copy(self):
        """Every lattice of at most 10 elements, whatever its top; the
        witness is checked here as well as inside `tree_match_iso`."""
        rng = random.Random(11)
        for lat in enumerate_lower_dismantlable(10):
            other = shuffled_copy(lat, rng)
            (code1, order1), (code2, order2) = (_canonical(tree_of_lattice(x)) for x in (lat, other))
            assert code1 == code2
            psi = tree_match_iso(lat, other, order1, order2)
            assert check_lattice_iso(lat, other, psi)

    def test_unequal_codes_rejected(self, m2, chain4):
        from dislat import InternalInconsistency

        order1, order2 = (_canonical(tree_of_lattice(x))[1] for x in (m2, chain4))
        with pytest.raises(InternalInconsistency):
            tree_match_iso(m2, chain4, order1, order2)


class TestMainTheorem:
    def test_zdg_iso_iff_lattice_iso(self):
        lats = list(enumerate_lower_dismantlable(8, root_min_children=2))
        codes = [canonical_code(recognize(zero_divisor_graph(lat))) for lat in lats]
        for i, j in itertools.combinations_with_replacement(range(len(lats)), 2):
            fast = codes[i] == codes[j]
            slow = brute_lattice_iso(lats[i], lats[j]) is not None
            assert fast == slow

    def test_witness_json_shape(self, capsys):
        """`iso --witness` prints the lifted label map under "map", keys
        sorted, with the kind of a lattice isomorphism."""
        import json

        from dislat.cli import main

        m3 = str(DATA / "m3.adl")
        assert main(["--json", "iso", m3, m3, "--witness"]) == 0
        obj = json.loads(capsys.readouterr().out)["witness"]
        assert obj["kind"] == "lattice-iso"
        assert list(obj["map"]) == sorted(obj["map"])
        assert obj["map"] == {x: x for x in ("0", "a", "b", "c", "one")}
