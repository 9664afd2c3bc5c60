from __future__ import annotations

import itertools
import random

import pytest

from dislat import (
    CycleDetected,
    LabelClash,
    NoSuchElement,
    NotALattice,
    NotLowerDismantlable,
    NotReduced,
    PairNotAdjunctable,
    adjunct_elements,
    adjunct_representation,
    build_from_covers,
    elaborate,
    is_lower_dismantlable,
    parse,
    tree_of_lattice,
)
from dislat.lattice import relabel
from tests.conftest import random_dismantlable
from tests.reference import (
    adjunct,
    adjunct_pair_multiset,
    chain_lattice,
    comparable,
    enumerate_lower_dismantlable,
    induced_sublattice,
    lattice_arrays,
    lower_covers,
    lt,
    reference_relabel,
    up_masks,
    upper_covers,
)

M2_COVERS = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]


def boolean_cube():
    """The 8-element Boolean lattice on three atoms."""
    labels = ["0", "a", "b", "c", "ab", "ac", "bc", "1"]
    covers = [
        ("0", "a"), ("0", "b"), ("0", "c"),
        ("a", "ab"), ("a", "ac"), ("b", "ab"), ("b", "bc"), ("c", "ac"), ("c", "bc"),
        ("ab", "1"), ("ac", "1"), ("bc", "1"),
    ]
    return build_from_covers(labels, covers)


class TestBuildFromCovers:
    def test_m2_diamond(self):
        lat = build_from_covers(["0", "a", "b", "1"], M2_COVERS)
        assert lat.meet("a", "b") == "0"
        assert lat.join("a", "b") == "1"
        assert lat.bottom_label == "0" and lat.top_label == "1"

    def test_chain(self):
        lat = build_from_covers(["0", "c", "1"], [("0", "c"), ("c", "1")])
        assert lat.bottom_label == "0" and lat.top_label == "1"

    def test_two_maximal_elements(self):
        with pytest.raises(NotALattice):
            build_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])

    def test_transitive_edge_rejected(self):
        with pytest.raises(NotReduced):
            build_from_covers(["0", "c", "1"], [("0", "c"), ("c", "1"), ("0", "1")])

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_missing_join_rejected(self):
        # two incomparable upper bounds for {a, b} and no least one
        labels = ["0", "a", "b", "x", "y", "1"]
        covers = [("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"), ("x", "1"), ("y", "1")]
        with pytest.raises(NotALattice):
            build_from_covers(labels, covers)

    def test_duplicate_label_rejected(self):
        with pytest.raises(LabelClash):
            build_from_covers(["a", "a"], [])

    def test_unknown_cover_label_rejected(self):
        with pytest.raises(NoSuchElement):
            build_from_covers(["a"], [("a", "z")])

    def test_singleton_allowed_but_flagged(self):
        lat = build_from_covers(["x"], [])
        assert lat.n == 1 and lat.bottom_label == lat.top_label == "x"

    def test_first_missing_bound_named(self):
        """On 2,000 seeded bounded posets and 500 trees with a bottom under
        their leaves, build_from_covers either succeeds or names the first
        pair in label order without a meet, or failing that a join, as a scan
        of every pair on the closure of the covers finds it.  Tree-shaped
        input skips the pair scan, so there every meet and join is checked
        against the closure."""
        rng, tree_rng = random.Random(11), random.Random(12)
        inputs = [random_bounded_poset(rng) for _ in range(2000)]
        inputs += [random_tree_poset(tree_rng) for _ in range(500)]
        failures = trees = 0
        for labels, covers in inputs:
            want = reference_first_missing_bound(labels, covers)
            try:
                lat = build_from_covers(labels, covers)
                got = None
            except NotALattice as exc:
                got = str(exc)
            assert got == want
            failures += got is not None
            if all(sum(a == x for a, _ in covers) == 1 for x in labels if x not in ("bot", "top")):
                trees += 1
                below, above = order_closure(labels, covers)
                for x, y in itertools.combinations(labels, 2):
                    lower, upper = below[x] & below[y], above[x] & above[y]
                    assert lower <= below[lat.meet(x, y)] and lat.meet(x, y) in lower
                    assert upper <= above[lat.join(x, y)] and lat.join(x, y) in upper
        assert 0 < failures < 2000
        assert trees >= 500  # the tree inputs, and any bounded poset that is a tree


def random_bounded_poset(rng):
    """The cover relation of a random order on a few elements, with a bottom
    and a top added, labels and covers shuffled."""
    n = rng.randrange(2, 8)
    above = [{i} for i in range(n)]
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(n, 3 * n))}
    for i in reversed(range(n)):
        for a, b in edges:
            if a == i:
                above[i] |= above[b]
    reduced = [(a, b) for a, b in edges if not any(c != b and b in above[c] for x, c in edges if x == a)]
    labels = [f"m{i}" for i in range(n)]
    covers = [(labels[a], labels[b]) for a, b in reduced]
    covers += [("bot", labels[i]) for i in range(n) if all(b != i for _, b in reduced)]
    covers += [(labels[i], "top") for i in range(n) if all(a != i for a, _ in reduced)]
    labels += ["bot", "top"]
    rng.shuffle(labels)
    rng.shuffle(covers)
    return labels, covers


def random_tree_poset(rng):
    """The cover relation of a random rooted tree (node i > 0 hangs under a
    node before it, node 0 is the top) with a bottom under its leaves,
    labels and covers shuffled."""
    n = rng.randrange(1, 9)
    parent = [rng.randrange(i) for i in range(1, n)]
    labels = ["top", *(f"t{i}" for i in range(1, n))]
    covers = [(labels[i], labels[p]) for i, p in enumerate(parent, 1)]
    covers += [("bot", labels[i]) for i in range(n) if i not in parent]
    labels.append("bot")
    rng.shuffle(labels)
    rng.shuffle(covers)
    return labels, covers


def order_closure(labels, covers):
    """below[x] and above[x]: the labels <= x and >= x."""
    below = {x: {x} for x in labels}
    for _ in labels:  # the closure settles within len(labels) rounds
        for a, b in covers:
            below[b] |= below[a]
    above = {x: {y for y in labels if x in below[y]} for x in labels}
    return below, above


def reference_first_missing_bound(labels, covers):
    """The message for the first pair (x, y), in label order, whose common
    lower bounds have no greatest element (checked first) or whose common
    upper bounds have no least one; None for a lattice."""
    below, above = order_closure(labels, covers)
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            lower = below[x] & below[y]
            if not any(lower <= below[z] for z in lower):
                return f"no meet for ({x}, {y})"
            upper = above[x] & above[y]
            if not any(upper <= above[z] for z in upper):
                return f"no join for ({x}, {y})"
    return None


class TestMeetJoin:
    def test_chain_meet_is_min(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        for x, y in itertools.combinations(lat.labels, 2):
            lo, hi = (x, y) if lat.leq(x, y) else (y, x)
            assert lat.meet(x, y) == lo
            assert lat.join(x, y) == hi

    def test_ex2_meet_join(self, ex2):
        assert ex2.meet("a4", "a3") == "0"
        assert ex2.join("a4", "a3") == "a5"

    def test_match_bit_scan(self, sample_lattices):
        """The indexed meet against a scan of the common down-set for the
        element it lies under, and the join against the same scan of the
        common up-set (`up_masks`) for the element it lies over."""

        def scan(masks, common):
            return next(i for i, mask in enumerate(masks) if common >> i & 1 and common & ~mask == 0)

        for lat in sample_lattices:
            up, labels = up_masks(lat), lat.labels
            for x, y in itertools.product(range(lat.n), repeat=2):
                assert lat._meet_idx(x, y) == scan(lat._down, lat._down[x] & lat._down[y])
                assert lat.join(labels[x], labels[y]) == labels[scan(up, up[x] & up[y])]

    def test_agree_with_order_closure(self, sample_lattices):
        """leq, meet and join against the closure of the cover relation, on
        the sample lattices and on 200 trees with a bottom under their
        leaves: the meet is the common lower bound above every other one,
        the join the common upper bound below every other one."""
        rng = random.Random(13)
        trees = [build_from_covers(*random_tree_poset(rng)) for _ in range(200)]
        for lat in [*sample_lattices, *trees]:
            below, above = order_closure(lat.labels, lat.cover_pairs())
            for x, y in itertools.product(lat.labels, repeat=2):
                assert lat.leq(x, y) == (x in below[y])
                lower, upper = below[x] & below[y], above[x] & above[y]
                assert lower <= below[lat.meet(x, y)] and lat.meet(x, y) in lower
                assert upper <= above[lat.join(x, y)] and lat.join(x, y) in upper

    def test_totality_on_cube(self):
        cube = boolean_cube()
        for x, y in itertools.combinations(cube.labels, 2):
            cube.meet(x, y)
            cube.join(x, y)


class TestClassify:
    """The element classes the commands report: the atoms, which are the
    upper covers of the bottom, and the adjunct elements."""

    def test_m2(self, m2):
        assert adjunct_elements(m2) == {"one"}
        assert set(upper_covers(m2, m2.bottom_label)) == {"a", "b"}

    def test_ex2_adjunct_elements(self, ex2):
        assert adjunct_elements(ex2) == {"a5", "a6", "a8"}

    def test_chain_interior_doubly_irreducible(self):
        """A chain has no adjunct element, and each element between its
        extremes has one lower and one upper cover."""
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        assert adjunct_elements(lat) == frozenset()
        assert [(lower_covers(lat, x), upper_covers(lat, x)) for x in "abc"] == [
            (("0",), ("b",)), (("a",), ("c",)), (("b",), ("1",))
        ]

    def test_pair_multiset(self, ex2):
        ms = adjunct_pair_multiset(ex2)
        assert ms == {("0", "a5"): 1, ("0", "a6"): 1, ("0", "a8"): 1}


class TestAdjunct:
    def test_smallest_adjunct_gives_m2(self, m2):
        built = adjunct(chain_lattice(["0", "a", "one"]), chain_lattice(["b"]), "0", "one")
        assert built == m2

    def test_size_is_additive(self):
        l1 = chain_lattice([f"c{i}" for i in range(7)])
        l1 = adjunct(l1, chain_lattice(["d0", "d1"]), "c1", "c4")
        assert l1.n == 9
        l2 = build_from_covers(
            ["e0", "e1", "e2", "e3", "f", "g"],
            [("e0", "e1"), ("e1", "e2"), ("e2", "e3"), ("e0", "f"), ("f", "e2"), ("e1", "g"), ("g", "e3")],
        )
        assert l2.n == 6
        merged = adjunct(l1, l2, "c0", "c5")
        assert merged.n == 15

    def test_covered_pair_rejected(self):
        with pytest.raises(PairNotAdjunctable):
            adjunct(chain_lattice(["0", "1"]), chain_lattice(["z"]), "0", "1")

    def test_incomparable_pair_rejected(self, m2):
        with pytest.raises(PairNotAdjunctable):
            adjunct(m2, chain_lattice(["z"]), "a", "b")

    def test_label_clash_rejected(self, m2):
        with pytest.raises(LabelClash):
            adjunct(m2, chain_lattice(["a"]), "0", "one")

    def test_definition_clauses_hold(self, m2):
        host = chain_lattice(["0", "p", "q", "one"])
        glued = adjunct(host, chain_lattice(["u", "v"]), "0", "q")
        # within each part the old order survives
        assert lt(glued, "p", "q") and lt(glued, "u", "v")
        # cross comparabilities are exactly through the pair
        assert lt(glued, "0", "u") and lt(glued, "v", "q")
        assert not comparable(glued, "p", "u") and not comparable(glued, "p", "v")
        assert glued.leq("u", "one")


class TestLowerDismantlable:
    def test_ex2_true(self, ex2):
        assert is_lower_dismantlable(ex2)

    def test_chain_true(self):
        assert is_lower_dismantlable(chain_lattice(["0", "a", "1"]))
        assert is_lower_dismantlable(chain_lattice(["0", "1"]))

    def test_boolean_cube_false(self):
        cube = boolean_cube()
        assert not is_lower_dismantlable(cube)
        # the witness: a nonzero meet-reducible element exists
        assert any(x != "0" and len(upper_covers(cube, x)) >= 2 for x in cube.labels)


class TestAdjunctRepresentation:
    def test_chain_has_base_only(self):
        expr = adjunct_representation(tree_of_lattice(chain_lattice(["0", "a", "b", "1"])))
        assert expr.base == ("0", "a", "b", "1")
        assert expr.adjunctions == ()

    def test_m2(self, m2):
        expr = adjunct_representation(tree_of_lattice(m2))
        assert len(expr.base) == 3
        assert [adj.pair for adj in expr.adjunctions] == [("0", "one")]
        assert elaborate(expr) == m2

    def test_ex2_pair_multiset_and_round_trip(self, ex2):
        expr = adjunct_representation(tree_of_lattice(ex2))
        pairs = sorted(adj.pair for adj in expr.adjunctions)
        assert pairs == [("0", "a5"), ("0", "a6"), ("0", "a8")]
        assert elaborate(expr) == ex2

    def test_rejects_non_lower_dismantlable(self):
        """A lattice reaches the representation only through its tree."""
        with pytest.raises(NotLowerDismantlable):
            adjunct_representation(tree_of_lattice(boolean_cube()))

    def test_bottom_must_not_name_a_node(self):
        tree = tree_of_lattice(chain_lattice(["0", "a", "b", "1"]))
        with pytest.raises(LabelClash, match="bottom label 'a' already names a tree node"):
            adjunct_representation(tree, bottom="a")
        expr = adjunct_representation(tree, bottom="z", name="Z")
        assert (expr.base, expr.name) == (("z", "a", "b", "1"), "Z")


class TestInvariants:
    def test_round_trip_all_small_lattices(self):
        for lat in enumerate_lower_dismantlable(10):
            expr = adjunct_representation(tree_of_lattice(lat))
            assert elaborate(expr) == lat

    def test_pair_multiset_matches_lower_cover_counts(self):
        for lat in enumerate_lower_dismantlable(10):
            expr = adjunct_representation(tree_of_lattice(lat))
            from collections import Counter

            got = Counter(adj.pair for adj in expr.adjunctions)
            want = {
                (lat.bottom_label, b): mult
                for (_, b), mult in adjunct_pair_multiset(lat).items()
                if mult > 0
            }
            assert dict(got) == want

    def test_pair_multiset_invariant_across_strip_orders(self):
        """Exhaustively strip branches in every order; the multiset of pairs
        never changes (small sizes only)."""
        from collections import Counter

        def all_pair_multisets(children: dict[str, list[str]]) -> set[frozenset]:
            candidates = []
            for v, kids in children.items():
                if len(kids) >= 2:
                    for c in kids:
                        path = [c]
                        while len(children[path[-1]]) == 1:
                            path.append(children[path[-1]][0])
                        if not children[path[-1]]:
                            candidates.append((v, c, tuple(path)))
            if not candidates:
                return {frozenset()}
            out = set()
            for v, c, path in candidates:
                nxt = {k: list(ks) for k, ks in children.items()}
                nxt[v].remove(c)
                for node in path:
                    del nxt[node]
                for rest in all_pair_multisets(nxt):
                    counter = Counter(dict(rest))
                    counter[("0", v)] += 1
                    out.add(frozenset(counter.items()))
            return out

        for lat in enumerate_lower_dismantlable(7):
            children = {
                x: [u for u in lower_covers(lat, x) if u != lat.bottom_label]
                for x in lat.labels
                if x != lat.bottom_label
            }
            assert len(all_pair_multisets(children)) == 1

    def test_no_nonzero_meet_reducible(self):
        for lat in enumerate_lower_dismantlable(9):
            assert all(len(upper_covers(lat, x)) <= 1 for x in lat.labels if x != lat.bottom_label)

    def test_meet_zero_iff_incomparable(self):
        for lat in enumerate_lower_dismantlable(8):
            for x, y in itertools.combinations(lat.labels, 2):
                if lat.bottom_label in (x, y):
                    continue
                assert (lat.meet(x, y) == lat.bottom_label) != comparable(lat, x, y)

    def test_adjunct_elements_have_two_atoms_below(self):
        for lat in enumerate_lower_dismantlable(9):
            atoms = upper_covers(lat, lat.bottom_label)
            for b in adjunct_elements(lat):  # none in a chain
                atoms_below = [p for p in atoms if lat.leq(p, b)]
                assert len(atoms_below) >= 2

    def test_lattice_axioms_after_random_adjuncts(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        lat = adjunct(lat, chain_lattice(["d"]), "0", "b")
        lat = adjunct(lat, chain_lattice(["e", "f"]), "a", "1")
        lat = adjunct(lat, chain_lattice(["g"]), "0", "f")
        for x, y in itertools.combinations(lat.labels, 2):
            lat.meet(x, y)
            lat.join(x, y)


class TestHelpers:
    def test_relabel(self, m2):
        swapped = relabel(m2, {"0": "0", "a": "b", "b": "a", "one": "one"})
        assert swapped == m2  # symmetric diamond

    def test_induced_sublattice_orders(self, ex2):
        sub = induced_sublattice(ex2, [x for x in ex2.labels if x != "a4"])
        assert sub.n == ex2.n - 1
        assert sub.leq("a3", "a5")


class TestRelabel:
    """`relabel` renames over the same index arrays; the reference renames
    the covers and validates them again with `build_from_covers`."""

    def test_matches_validated_build(self):
        rng = random.Random(19)
        lats = [*enumerate_lower_dismantlable(9), *(random_dismantlable(rng) for _ in range(150))]
        for lat in lats:
            image = [f"x{k}" for k in range(lat.n)]
            rng.shuffle(image)
            mapping = dict(zip(lat.labels, image))
            renamed = relabel(lat, mapping)
            assert lattice_arrays(renamed) == lattice_arrays(reference_relabel(lat, mapping))
            x, y = rng.choice(lat.labels), rng.choice(lat.labels)
            assert renamed.meet(mapping[x], mapping[y]) == mapping[lat.meet(x, y)]

    def test_mapping_not_injective(self, m2):
        mapping = {"0": "0", "a": "b", "b": "b", "one": "one"}
        with pytest.raises(LabelClash) as got:
            relabel(m2, mapping)
        with pytest.raises(LabelClash) as want:
            reference_relabel(m2, mapping)
        assert str(got.value) == str(want.value) == "duplicate label 'b'"

    def test_missing_label(self, m2):
        mapping = {"0": "0", "a": "b", "b": "a"}
        with pytest.raises(KeyError) as got:
            relabel(m2, mapping)
        with pytest.raises(KeyError) as want:
            reference_relabel(m2, mapping)
        assert got.value.args == want.value.args == ("one",)


class TestMaskIndexes:
    def test_built_on_first_meet_only(self):
        lat = elaborate(parse("lattice m3 { chain 0 a one; adjoin (0, one): b; adjoin (0, one): c; }"))
        assert lat._down_index is None
        assert lat.join("a", "b") == "one" and lat.leq("a", "one")
        assert lat._down_index is None
        assert lat.meet("a", "b") == "0"
        assert lat._down_index == {mask: i for i, mask in enumerate(lat._down)}
