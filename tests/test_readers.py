"""The index readers of a lattice against their label-level references.

`is_lower_dismantlable`, `adjunct_elements`, `tree_of_lattice` and the
chain order of `lift_to_lattice_iso` read the cover lists and down-set
masks of `Lattice` by index, and so does
`adjunct_vertices` of the alignment lemma in `tests.reference`, which also
keeps the readers that go through `lower_covers`, `upper_covers`,
`down_set` and `RootedTree.from_parents`.
Both must give the same results on every lattice of at most 10 elements, on
seeded random trees of up to 500 nodes, and on general dismantlable
lattices outside the class, and raise the same errors where the input is
outside it.
"""

from __future__ import annotations

import random

import pytest

from dislat import (
    HypothesisViolated,
    NotLowerDismantlable,
    adjunct_elements,
    adjunct_representation,
    build_from_covers,
    elaborate,
    graph_iso,
    is_lower_dismantlable,
    lattice_of_tree,
    lift_to_lattice_iso,
    tree_of_lattice,
    zero_divisor_graph,
)
from tests.conftest import load, random_dismantlable, shuffled_copy
from tests.reference import (
    adjunct_vertices,
    align_adjuncts,
    down_set_lift,
    enumerate_lower_dismantlable,
    label_classify,
    label_is_lower_dismantlable,
    label_tree_of_lattice,
    lower_covers,
)
from tests.test_treeiso import lift_ignoring_alignment, random_parents, tree_of_parents

ENUMERATED = list(enumerate_lower_dismantlable(10))


def with_shuffled_copies(lats, seed):
    """The lattices and a shuffled copy of each.  A lattice made from a
    tree lists its labels in sorted order; a copy's labels are out of
    order, so a reader that takes index order for label order fails there."""
    rng = random.Random(seed)
    return [*lats, *(shuffled_copy(lat, rng) for lat in lats)]


def random_trees():
    """Lattices of random recursive trees of 2 to 500 nodes, a path and a
    two-leg spider."""
    rng = random.Random(500)
    for n in (*range(2, 60, 7), 100, 250, 500):
        yield lattice_of_tree(tree_of_parents(random_parents(rng, n), "t"))
    yield lattice_of_tree(tree_of_parents([0, *range(199)], "p"))
    yield lattice_of_tree(tree_of_parents([0, 0, *range(1, 197), 0, *range(198, 397)], "s"))


SMALL = with_shuffled_copies(ENUMERATED, 10)
RANDOM = with_shuffled_copies(list(random_trees()), 500)


def outside_class():
    """General dismantlable lattices with an adjunction at a pair (a, b),
    a above the bottom, and the Boolean cube."""
    rng = random.Random(13)
    lats = [lat for lat in (random_dismantlable(rng) for _ in range(120)) if not is_lower_dismantlable(lat)]
    cube = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("a", "ac"), ("b", "ab"), ("b", "bc"),
            ("c", "ac"), ("c", "bc"), ("ab", "1"), ("ac", "1"), ("bc", "1")]
    return [*lats, build_from_covers(["0", "a", "b", "c", "ab", "ac", "bc", "1"], cube)]


OUTSIDE = outside_class()
ONE_ELEMENT = build_from_covers(["0"], [])


def error_of(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type and message are compared, whatever they are
        return type(exc), str(exc)
    return None


def test_the_samples_cover_what_they_claim():
    assert len(ENUMERATED) == 486
    assert max(lat.n for lat in RANDOM) == 501
    assert len(OUTSIDE) > 20
    assert not any(is_lower_dismantlable(lat) for lat in OUTSIDE)


def test_is_lower_dismantlable():
    """The cover count against one test per element, in and outside the
    class; the one-element lattice is outside it for both."""
    for lat in [*SMALL, *RANDOM, *OUTSIDE]:
        assert is_lower_dismantlable(lat) == label_is_lower_dismantlable(lat)
    assert is_lower_dismantlable(ONE_ELEMENT) is label_is_lower_dismantlable(ONE_ELEMENT) is False


@pytest.mark.parametrize("sample", ["small", "random", "outside"])
def test_classify(sample):
    lats = {"small": SMALL, "random": RANDOM, "outside": [*OUTSIDE, ONE_ELEMENT]}[sample]
    for lat in lats:
        assert adjunct_elements(lat) == label_classify(lat)


@pytest.mark.parametrize("sample", ["small", "random"])
def test_tree_of_lattice(sample):
    for lat in {"small": SMALL, "random": RANDOM}[sample]:
        got, want = tree_of_lattice(lat), label_tree_of_lattice(lat)
        assert (got.labels, got.parent, got.root) == (want.labels, want.parent, want.root)
        assert got._preorder == want._preorder


def test_tree_of_lattice_outside_the_class_raises_the_same():
    for lat in [*OUTSIDE, ONE_ELEMENT]:
        got = error_of(tree_of_lattice, lat)
        assert got is not None
        assert got == error_of(label_tree_of_lattice, lat)
    assert error_of(tree_of_lattice, OUTSIDE[0])[0] is NotLowerDismantlable
    assert error_of(tree_of_lattice, ONE_ELEMENT)[0] is NotLowerDismantlable


def test_adjunct_vertices():
    for lat in [*SMALL, *RANDOM, *OUTSIDE]:
        graph = zero_divisor_graph(lat)
        want = label_classify(lat) & set(graph.vertices)
        assert adjunct_vertices(lat, graph) == want


@pytest.mark.parametrize("sample", ["small", "random"])
def test_lift_orders_chains_as_down_set_lengths(sample):
    """On every pair with join-reducible tops, a lattice against a shuffled
    copy, the lift of `graph_iso`'s map returns the map that orders each
    class by the length of its members' down-sets, which is also the lift
    of its alignment."""
    rng = random.Random(21)
    lats = [lat for lat in {"small": SMALL, "random": RANDOM}[sample] if len(lower_covers(lat, lat.top_label)) >= 2]
    assert len(lats) > 5
    for lat in lats:
        other = shuffled_copy(lat, rng)
        g1, g2 = zero_divisor_graph(lat), zero_divisor_graph(other)
        f = graph_iso(g1, g2)
        psi = lift_ignoring_alignment(lat, other, g1, g2, f)
        assert psi == down_set_lift(lat, other, g1, f)


def test_lift_outside_the_class_raises_the_same(ex2):
    """The hypotheses are tested before any chain is read: a lattice outside
    the class, or one whose top is join-irreducible (ex2)."""
    k22 = load("k22.adl")
    for lat, message in ((OUTSIDE[0], "first lattice is not lower dismantlable"),
                         (ex2, "first lattice's top is not an adjunct element")):
        g1, g2 = zero_divisor_graph(lat), zero_divisor_graph(k22)
        phi = graph_iso(g2, g2)
        for fn in (align_adjuncts, lift_to_lattice_iso):
            with pytest.raises(HypothesisViolated) as info:
                fn(lat, k22, g1, g2, phi)
            assert str(info.value) == message


def test_adjunct_representation():
    """The representation read off `tree_of_lattice`'s tree elaborates back
    to the lattice and is that of the label-level tree.  A lattice outside
    the class has no tree (`test_tree_of_lattice_outside_the_class_raises_the_same`),
    so it never reaches the representation."""
    for lat in [*SMALL, *RANDOM]:
        expr = adjunct_representation(tree_of_lattice(lat))
        assert elaborate(expr) == lat
        assert expr == adjunct_representation(label_tree_of_lattice(lat))
