from __future__ import annotations

import itertools

import pytest

from dislat import (
    CycleDetected,
    LabelClash,
    NoSuchElement,
    NotALattice,
    NotLowerDismantlable,
    NotReduced,
    PairNotAdjunctable,
    adjunct,
    adjunct_representation,
    build_from_covers,
    chain_lattice,
    classify,
    elaborate,
    is_lower_dismantlable,
)
from dislat.lattice import induced_sublattice, relabel
from dislat.oracle import enumerate_lower_dismantlable

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
        assert lat.is_trivial and lat.bottom_label == lat.top_label == "x"


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

    def test_totality_on_cube(self):
        cube = boolean_cube()
        for x, y in itertools.combinations(cube.labels, 2):
            cube.meet(x, y)
            cube.join(x, y)


class TestClassify:
    def test_m2(self, m2):
        cls = classify(m2)
        assert cls.adjunct_elements == {"one"}
        assert cls.atoms == {"a", "b"}
        assert cls.doubly_irreducible == {"a", "b"}

    def test_ex2_adjunct_elements(self, ex2):
        assert classify(ex2).adjunct_elements == {"a5", "a6", "a8"}

    def test_chain_interior_doubly_irreducible(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        cls = classify(lat)
        assert cls.adjunct_elements == frozenset()
        assert cls.doubly_irreducible == {"a", "b", "c"}
        assert "0" in cls.join_irreducible
        assert "1" in cls.meet_irreducible

    def test_pair_multiset(self, ex2):
        ms = classify(ex2).adjunct_pair_multiset("0")
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
        assert glued.lt("p", "q") and glued.lt("u", "v")
        # cross comparabilities are exactly through the pair
        assert glued.lt("0", "u") and glued.lt("v", "q")
        assert glued.incomparable("p", "u") and glued.incomparable("p", "v")
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
        cls = classify(cube)
        assert any(x != "0" and cls.upper_cover_count[x] >= 2 for x in cube.labels)


class TestAdjunctRepresentation:
    def test_chain_has_base_only(self):
        expr = adjunct_representation(chain_lattice(["0", "a", "b", "1"]))
        assert expr.base == ("0", "a", "b", "1")
        assert expr.adjunctions == ()

    def test_m2(self, m2):
        expr = adjunct_representation(m2)
        assert len(expr.base) == 3
        assert [adj.pair for adj in expr.adjunctions] == [("0", "one")]
        assert elaborate(expr) == m2

    def test_ex2_pair_multiset_and_round_trip(self, ex2):
        expr = adjunct_representation(ex2)
        pairs = sorted(adj.pair for adj in expr.adjunctions)
        assert pairs == [("0", "a5"), ("0", "a6"), ("0", "a8")]
        assert elaborate(expr) == ex2

    def test_rejects_non_lower_dismantlable(self):
        with pytest.raises(NotLowerDismantlable):
            adjunct_representation(boolean_cube())


class TestInvariants:
    def test_round_trip_all_small_lattices(self):
        for lat in enumerate_lower_dismantlable(10):
            expr = adjunct_representation(lat)
            assert elaborate(expr) == lat

    def test_pair_multiset_matches_lower_cover_counts(self):
        for lat in enumerate_lower_dismantlable(10):
            expr = adjunct_representation(lat)
            from collections import Counter

            got = Counter(adj.pair for adj in expr.adjunctions)
            want = {
                (lat.bottom_label, b): mult
                for (_, b), mult in classify(lat).adjunct_pair_multiset(lat.bottom_label).items()
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
                x: [u for u in lat.lower_covers(x) if u != lat.bottom_label]
                for x in lat.labels
                if x != lat.bottom_label
            }
            assert len(all_pair_multisets(children)) == 1

    def test_no_nonzero_meet_reducible(self):
        for lat in enumerate_lower_dismantlable(9):
            cls = classify(lat)
            assert all(
                cls.upper_cover_count[x] <= 1 for x in lat.labels if x != lat.bottom_label
            )

    def test_meet_zero_iff_incomparable(self):
        for lat in enumerate_lower_dismantlable(8):
            for x, y in itertools.combinations(lat.labels, 2):
                if lat.bottom_label in (x, y):
                    continue
                assert (lat.meet(x, y) == lat.bottom_label) == lat.incomparable(x, y)

    def test_adjunct_elements_have_two_atoms_below(self):
        for lat in enumerate_lower_dismantlable(9):
            cls = classify(lat)
            if not cls.adjunct_elements:
                continue  # chains
            for b in cls.adjunct_elements:
                atoms_below = [p for p in cls.atoms if lat.leq(p, b)]
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
