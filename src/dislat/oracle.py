"""Enumeration of rooted trees (one representative per isomorphism class)
and brute-force ground truth: backtracking lattice isomorphism search, which
`verify`'s t1 suite runs against the canonical codes.  The backtracking
graph isomorphism search is a test oracle only (tests/reference.py)."""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceeded
from .lattice import Lattice, _bits, _cover_masks
from .treeiso import RootedTree, tree_from_code

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


def enumerate_rooted_trees(max_nodes: int, root_min_children: int = 0) -> Iterator[RootedTree]:
    """One representative per isomorphism class whose root has at least
    `root_min_children` children, sizes ascending and codes lexicographic
    within a size.  At least 2 selects the trees whose lattices have a
    join-reducible top."""
    for n in range(1, max_nodes + 1):
        for code in rooted_tree_codes(n):
            tree = tree_from_code(code)
            if len(tree._children[tree.root]) >= root_min_children:
                yield tree


# -- brute-force lattice isomorphism ----------------------------------------------


def _cover_profile(lat: Lattice) -> list[tuple[int, int, int, int]]:
    """Per element, its numbers of lower and of upper covers and the sizes
    of its down-set and of its up-set, the up-sets counted off the
    down-sets.  An isomorphism keeps all four."""
    above = [0] * lat.n
    for down in lat._down:
        for x in _bits(down):
            above[x] += 1
    return [
        (len(lo), len(up), down.bit_count(), a) for lo, up, down, a in zip(lat._lowers, lat._uppers, lat._down, above)
    ]


def lattice_iso_key(lat: Lattice) -> tuple:
    """What `brute_lattice_iso_all` compares before it searches: the size,
    the sorted profile of `_cover_profile` (which sums to the cover count),
    and the profiles of the bottom and of the top.  Lattices with different
    keys are not isomorphic."""
    return _iso_key(lat, _cover_profile(lat))


def _iso_key(lat: Lattice, prof: list[tuple[int, int, int, int]]) -> tuple:
    return (lat.n, tuple(sorted(prof)), prof[lat.bottom], prof[lat.top])


def brute_lattice_iso_all(
    l1: Lattice, l2: Lattice, budget: int = DEFAULT_BUDGET
) -> Iterator[dict[str, str]]:
    """Yield every order isomorphism l1 -> l2 (bottom to bottom, top to top),
    lexicographic in l1's label order.

    Elements are mapped in l1's label order, each to the still unused
    elements of l2 with its `_cover_profile` (cover counts, down-set and
    up-set sizes), in l2's label order, that agree with every mapped
    element on the cover relation both ways;
    each full map is then checked on every ordered pair.  The search runs on
    indices and cover masks: a candidate agrees with the mapped elements when
    the mapped elements it covers, and those that cover it, are the images
    of those of the element it is tried for."""
    prof1, prof2 = _cover_profile(l1), _cover_profile(l2)
    if _iso_key(l1, prof1) != _iso_key(l2, prof2):
        return
    (uppers1, lowers1), (uppers2, lowers2) = _cover_masks(l1), _cover_masks(l2)
    down1, down2 = l1._down, l2._down
    labels1, labels2 = l1.labels, l2.labels
    order = [i for i in sorted(range(l1.n), key=labels1.__getitem__) if i not in (l1.bottom, l1.top)]
    candidates = sorted(range(l2.n), key=labels2.__getitem__)
    nodes_visited = 0

    def extend(i: int, mapping: dict[int, int], mapped: int, used: int) -> Iterator[dict[str, str]]:
        nonlocal nodes_visited
        if i == len(order):
            if all(
                (down1[x] >> y & 1) == (down2[fx] >> mapping[y] & 1)
                for x, fx in mapping.items()
                for y in mapping
            ):
                yield {labels1[x]: labels2[fx] for x, fx in mapping.items()}
            return
        v = order[i]
        below = sum(1 << mapping[u] for u in _bits(lowers1[v] & mapped))
        above = sum(1 << mapping[u] for u in _bits(uppers1[v] & mapped))
        for w in candidates:
            if used >> w & 1 or prof2[w] != prof1[v]:
                continue
            if lowers2[w] & used != below or uppers2[w] & used != above:
                continue
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetExceeded(f"lattice isomorphism search exceeded {budget} nodes")
            mapping[v] = w
            yield from extend(i + 1, mapping, mapped | 1 << v, used | 1 << w)
            del mapping[v]

    mapping = {l1.bottom: l2.bottom, l1.top: l2.top}
    yield from extend(0, mapping, 1 << l1.bottom | 1 << l1.top, 1 << l2.bottom | 1 << l2.top)


def brute_lattice_iso(l1: Lattice, l2: Lattice, budget: int = DEFAULT_BUDGET) -> dict[str, str] | None:
    return next(brute_lattice_iso_all(l1, l2, budget), None)
