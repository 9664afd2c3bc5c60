"""Randomized structure properties; the exhaustive suites live next to their
modules, these shake out the generic paths with hypothesis."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from dislat import (
    adjunct_elements,
    adjunct_representation,
    canonical_code,
    connectivity_report,
    elaborate,
    is_ssc,
    lattice_of_tree,
    parse,
    peel_order,
    recognize,
    serialize,
    tree_of_lattice,
    zero_divisor_graph,
)
from dislat.treeiso import RootedTree
from tests.reference import (
    comparable,
    definition_is_ssc,
    non_ancestor_graph,
    parent_map,
    relabeled_tree,
    upper_covers,
)


@st.composite
def rooted_trees(draw, max_nodes: int = 9) -> RootedTree:
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents: dict[str, str | None] = {"t0": None}
    for i in range(1, n):
        parents[f"t{i}"] = f"t{draw(st.integers(min_value=0, max_value=i - 1))}"
    return RootedTree.from_parents(parents)


@st.composite
def adjunct_exprs(draw):
    """Random lower dismantlable adjunct expressions."""
    base_len = draw(st.integers(min_value=2, max_value=5))
    names = iter(f"e{i}" for i in range(40))
    base = ("0", *(next(names) for _ in range(base_len)))
    expr_src = ["chain " + " ".join(base) + ";"]
    # candidate hinges: anything at distance >= 2 above the bottom
    hingeable = list(base[2:])
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        hinge = draw(st.sampled_from(hingeable))
        chain = [next(names) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        expr_src.append(f"adjoin (0, {hinge}): " + " ".join(chain) + ";")
        hingeable.extend(chain[1:])  # chain tops stay atoms' covers; interiors gain height
    return parse("lattice t { " + " ".join(expr_src) + " }")


@given(rooted_trees())
@settings(max_examples=120, deadline=None)
def test_tree_lattice_round_trip(tree):
    lat = lattice_of_tree(tree)
    assert parent_map(tree_of_lattice(lat)) == parent_map(tree)


@given(rooted_trees(), st.randoms())
@settings(max_examples=80, deadline=None)
def test_canonical_code_relabel_invariant(tree, rng):
    labels = list(tree.labels)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    relabeled = relabeled_tree(tree, dict(zip(labels, shuffled)))
    assert canonical_code(relabeled) == canonical_code(tree)


@given(rooted_trees(max_nodes=40))
@settings(max_examples=150, deadline=None)
def test_ssc_read_off_the_covers_is_the_definition(tree):
    lat = lattice_of_tree(tree)
    assert is_ssc(lat) == definition_is_ssc(lat)


@given(rooted_trees())
@settings(max_examples=80, deadline=None)
def test_recognize_round_trips_non_ancestor_graphs(tree):
    graph = non_ancestor_graph(tree)
    back = recognize(graph)
    assert back is not None
    assert non_ancestor_graph(back) == graph


@given(adjunct_exprs())
@settings(max_examples=100, deadline=None)
def test_parse_serialize_identity(expr):
    assert parse(serialize(expr)) == expr


@given(adjunct_exprs())
@settings(max_examples=60, deadline=None)
def test_representation_round_trip(expr):
    lat = elaborate(expr)
    assert elaborate(adjunct_representation(tree_of_lattice(lat))) == lat


@st.composite
def trees_in_two_index_orders(draw, max_nodes: int = 16) -> tuple[RootedTree, RootedTree]:
    """One labelled tree on nodes n0, n1, ... (node k's parent is drawn
    among n0..n(k-1)), built twice: in label order, where n10 comes before
    n2, and in a drawn index order."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents: dict[str, str | None] = {"n0": None}
    for k in range(1, n):
        parents[f"n{k}"] = f"n{draw(st.integers(min_value=0, max_value=k - 1))}"
    order = draw(st.permutations(list(parents)))
    index = {lab: i for i, lab in enumerate(order)}
    shuffled = RootedTree(
        labels=tuple(order),
        parent=tuple(index[parents[lab] or lab] for lab in order),
        root=index["n0"],
    )
    return RootedTree.from_parents(parents), shuffled


@given(trees_in_two_index_orders())
@settings(max_examples=150, deadline=None)
def test_peel_readers_ignore_index_order(trees):
    """The adjunct representation and the peeled classes are functions of
    the labelled tree, whatever its index order, and the representation
    elaborates to the covers of the tree's lattice."""
    tree, shuffled = trees
    expr = adjunct_representation(shuffled)
    assert expr == adjunct_representation(tree)
    assert peel_order(shuffled) == peel_order(tree)
    covers = lattice_of_tree(shuffled).cover_pairs()
    assert elaborate(expr).cover_pairs() == covers == lattice_of_tree(tree).cover_pairs()


@given(adjunct_exprs())
@settings(max_examples=60, deadline=None)
def test_zdg_connected_with_small_diameter(expr):
    lat = elaborate(expr)
    graph = zero_divisor_graph(lat)
    if graph.n:
        report = connectivity_report(graph)
        assert report["connected"] and report["diameter"] <= 3


@given(adjunct_exprs())
@settings(max_examples=60, deadline=None)
def test_meet_zero_iff_incomparable(expr):
    lat = elaborate(expr)
    bottom = lat.bottom_label
    for x, y in itertools.combinations(lat.labels, 2):
        if bottom in (x, y):
            continue
        assert (lat.meet(x, y) == bottom) != comparable(lat, x, y)


@given(adjunct_exprs())
@settings(max_examples=60, deadline=None)
def test_adjunct_elements_sit_above_two_atoms(expr):
    lat = elaborate(expr)
    atoms = upper_covers(lat, lat.bottom_label)
    for b in adjunct_elements(lat):
        assert sum(1 for p in atoms if lat.leq(p, b)) >= 2
