"""Enumeration of rooted trees (one representative per isomorphism class)
and brute-force ground truth: backtracking graph / lattice isomorphism
search.  Every property suite checks the fast paths against these."""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceeded
from .lattice import Lattice
from .treeiso import IsoWitness, RootedTree, lattice_of_tree, tree_from_code
from .zdg import LabeledGraph

DEFAULT_BUDGET = 2_000_000


_CODES: dict[int, tuple[str, ...]] = {1: ("()",)}


def rooted_tree_codes(n: int) -> tuple[str, ...]:
    """Canonical codes of all rooted-tree isomorphism classes on n nodes,
    lexicographically sorted: a root over each multiset of smaller trees
    whose sizes sum to n - 1.  Cached per size."""
    if n not in _CODES:
        subtrees = [(k, code) for k in range(1, n) for code in rooted_tree_codes(k)]

        def forests(total: int, lo: int) -> Iterator[tuple[str, ...]]:
            """Multisets of subtrees from subtrees[lo:] whose sizes sum to
            `total`, each emitted once in nondecreasing subtree order."""
            if total == 0:
                yield ()
                return
            for i in range(lo, len(subtrees)):
                size, code = subtrees[i]
                if size > total:
                    break
                for rest in forests(total - size, i):
                    yield (code, *rest)

        _CODES[n] = tuple(sorted("(" + "".join(sorted(f)) + ")" for f in forests(n - 1, 0)))
    return _CODES[n]


def enumerate_rooted_trees(max_nodes: int, root_degree_ge2: bool = False) -> Iterator[RootedTree]:
    """One representative per isomorphism class, sizes ascending and codes
    lexicographic within a size.  Root degree >= 2 selects the trees whose
    lattices have a join-reducible top."""
    for n in range(1, max_nodes + 1):
        for code in rooted_tree_codes(n):
            tree = tree_from_code(code)
            if not root_degree_ge2 or tree.has_root_degree_ge2:
                yield tree


def enumerate_lower_dismantlable(max_size: int, join_reducible_top: bool = False) -> Iterator[Lattice]:
    """Lattices of every tree with at most max_size - 1 nodes (|L| = n + 1)."""
    for tree in enumerate_rooted_trees(max_size - 1, join_reducible_top):
        yield lattice_of_tree(tree)


# -- brute-force graph isomorphism ---------------------------------------------


def brute_graph_iso_all(
    g1: LabeledGraph, g2: LabeledGraph, budget: int = DEFAULT_BUDGET
) -> Iterator[dict[str, str]]:
    """Yield every isomorphism g1 -> g2, lexicographic in g1's label order.

    Backtracking with degree and neighbor-degree pruning; raises
    BudgetExceeded rather than silently giving up.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return
    deg_profile1 = {v: (g1.degree(v), sorted(g1.degree(w) for w in g1.neighbors(v))) for v in g1.vertices}
    deg_profile2 = {v: (g2.degree(v), sorted(g2.degree(w) for w in g2.neighbors(v))) for v in g2.vertices}
    if sorted(deg_profile1.values()) != sorted(deg_profile2.values()):
        return

    order = list(g1.vertices)
    nodes_visited = 0

    def extend(i: int, mapping: dict[str, str], used: set[str]) -> Iterator[dict[str, str]]:
        nonlocal nodes_visited
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        for w in g2.vertices:
            if w in used or deg_profile2[w] != deg_profile1[v]:
                continue
            if any(g1.adjacent(v, u) != g2.adjacent(w, mapping[u]) for u in mapping):
                continue
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetExceeded(f"graph isomorphism search exceeded {budget} nodes")
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1, mapping, used)
            del mapping[v]
            used.remove(w)

    yield from extend(0, {}, set())


def brute_graph_iso(g1: LabeledGraph, g2: LabeledGraph, budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    for mapping in brute_graph_iso_all(g1, g2, budget):
        return IsoWitness(kind="graph-iso", mapping=mapping)
    return None


# -- brute-force lattice isomorphism ----------------------------------------------


def brute_lattice_iso_all(
    l1: Lattice, l2: Lattice, budget: int = DEFAULT_BUDGET
) -> Iterator[dict[str, str]]:
    """Yield every order isomorphism l1 -> l2 (bottom to bottom, top to top),
    lexicographic in l1's label order."""
    if l1.n != l2.n or len(l1.covers) != len(l2.covers):
        return

    def profile(lat: Lattice, x: str) -> tuple[int, int]:
        return (len(lat.lower_covers(x)), len(lat.upper_covers(x)))

    prof1 = {x: profile(l1, x) for x in l1.labels}
    prof2 = {x: profile(l2, x) for x in l2.labels}
    if sorted(prof1.values()) != sorted(prof2.values()):
        return

    order = [x for x in sorted(l1.labels) if x not in (l1.bottom_label, l1.top_label)]
    base = {l1.bottom_label: l2.bottom_label, l1.top_label: l2.top_label}
    if prof1[l1.bottom_label] != prof2[l2.bottom_label] or prof1[l1.top_label] != prof2[l2.top_label]:
        return
    nodes_visited = 0

    def extend(i: int, mapping: dict[str, str], used: set[str]) -> Iterator[dict[str, str]]:
        nonlocal nodes_visited
        if i == len(order):
            full = dict(mapping)
            if all(
                l1.leq(x, y) == l2.leq(full[x], full[y])
                for x in l1.labels
                for y in l1.labels
            ):
                yield full
            return
        v = order[i]
        for w in sorted(l2.labels):
            if w in used or prof2[w] != prof1[v]:
                continue
            ok = True
            for u, fu in mapping.items():
                if l1.covered_by(u, v) != l2.covered_by(fu, w) or l1.covered_by(v, u) != l2.covered_by(w, fu):
                    ok = False
                    break
            if not ok:
                continue
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetExceeded(f"lattice isomorphism search exceeded {budget} nodes")
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1, mapping, used)
            del mapping[v]
            used.remove(w)

    yield from extend(0, dict(base), set(base.values()))


def brute_lattice_iso(l1: Lattice, l2: Lattice, budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    for mapping in brute_lattice_iso_all(l1, l2, budget):
        return IsoWitness(kind="lattice-iso", mapping=mapping)
    return None
