"""Finite bounded lattices: construction, order predicates, the adjunct
operation, and recognition/decomposition of lower dismantlable lattices.

Elements are dense integer indices internally; the public API speaks element
labels throughout.  The order relation is materialized as per-element bitmasks
at construction time, so comparability, meet and join are cheap lookups at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    HypothesisViolated,
    LabelClash,
    NoSuchElement,
    NotALattice,
    NotLowerDismantlable,
    NotReduced,
    PairNotAdjunctable,
)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """Immutable finite bounded lattice.

    Build instances through :func:`build_from_covers` (or the helpers below);
    the constructor trusts its arguments.
    """

    __slots__ = ("labels", "covers", "bottom", "top", "_index", "_up", "_down", "_uppers", "_lowers")

    def __init__(
        self,
        labels: tuple[str, ...],
        covers: frozenset[tuple[int, int]],
        up: tuple[int, ...],
        down: tuple[int, ...],
        bottom: int,
        top: int,
    ):
        self.labels = labels
        self.covers = covers
        self.bottom = bottom
        self.top = top
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._up = up
        self._down = down
        uppers: list[list[int]] = [[] for _ in labels]
        lowers: list[list[int]] = [[] for _ in labels]
        for u, v in covers:
            uppers[u].append(v)
            lowers[v].append(u)
        self._uppers = tuple(tuple(sorted(s)) for s in uppers)
        self._lowers = tuple(tuple(sorted(s)) for s in lowers)

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_trivial(self) -> bool:
        """True for the one-element lattice (bottom == top)."""
        return self.n == 1

    @property
    def bottom_label(self) -> str:
        return self.labels[self.bottom]

    @property
    def top_label(self) -> str:
        return self.labels[self.top]

    def elements(self) -> tuple[str, ...]:
        return self.labels

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise NoSuchElement(f"no element {x!r} in lattice") from None

    def cover_pairs(self) -> set[tuple[str, str]]:
        """The cover relation as (lower, upper) label pairs."""
        return {(self.labels[u], self.labels[v]) for u, v in self.covers}

    # -- order predicates ---------------------------------------------------

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self.index(x)] >> self.index(y) & 1)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def incomparable(self, x: str, y: str) -> bool:
        return not self.comparable(x, y)

    def covered_by(self, x: str, y: str) -> bool:
        return (self.index(x), self.index(y)) in self.covers

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self._uppers[self.index(x)])

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self._lowers[self.index(x)])

    def open_interval(self, x: str, y: str) -> tuple[str, ...]:
        """Elements strictly between x and y."""
        xi, yi = self.index(x), self.index(y)
        mask = self._up[xi] & self._down[yi] & ~(1 << xi) & ~(1 << yi)
        return tuple(self.labels[i] for i in _bits(mask))

    def down_set(self, x: str) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in _bits(self._down[self.index(x)]))

    # -- meet / join ----------------------------------------------------------

    def _meet_idx(self, xi: int, yi: int) -> int:
        common = self._down[xi] & self._down[yi]
        for i in _bits(common):
            if common & ~self._down[i] == 0:
                return i
        raise NotALattice(f"no meet for ({self.labels[xi]}, {self.labels[yi]})")

    def _join_idx(self, xi: int, yi: int) -> int:
        common = self._up[xi] & self._up[yi]
        for i in _bits(common):
            if common & ~self._up[i] == 0:
                return i
        raise NotALattice(f"no join for ({self.labels[xi]}, {self.labels[yi]})")

    def meet(self, x: str, y: str) -> str:
        return self.labels[self._meet_idx(self.index(x), self.index(y))]

    def join(self, x: str, y: str) -> str:
        return self.labels[self._join_idx(self.index(x), self.index(y))]

    # -- equality is label-level structure -----------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return set(self.labels) == set(other.labels) and self.cover_pairs() == other.cover_pairs()

    def __hash__(self) -> int:
        return hash((frozenset(self.labels), frozenset(self.cover_pairs())))

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, bottom={self.bottom_label!r}, top={self.top_label!r})"


@dataclass(frozen=True)
class ElementClassification:
    """Irreducibility census of a lattice, plus per-element cover counts.

    ``adjunct_elements`` lists the elements with at least two lower covers;
    for a lower dismantlable lattice these are exactly the b with (0, b) an
    adjunct pair, with multiplicity (#lower covers - 1).
    """

    join_irreducible: frozenset[str]
    meet_irreducible: frozenset[str]
    doubly_irreducible: frozenset[str]
    atoms: frozenset[str]
    adjunct_elements: frozenset[str]
    upper_cover_count: Mapping[str, int]
    lower_cover_count: Mapping[str, int]

    def adjunct_pair_multiset(self, bottom: str) -> dict[tuple[str, str], int]:
        """Multiset {(bottom, b): multiplicity} of adjunct pairs."""
        return {
            (bottom, b): self.lower_cover_count[b] - 1
            for b in sorted(self.adjunct_elements)
        }


@dataclass(frozen=True)
class Adjunction:
    """One `adjoin (a, b): chain` record; chain is listed bottom-to-top."""

    pair: tuple[str, str]
    chain: tuple[str, ...]


@dataclass(frozen=True)
class AdjunctExpr:
    """Syntax tree of an adjunct representation: a base chain (bottom-to-top)
    followed by ordered adjunctions of chains at pairs."""

    base: tuple[str, ...]
    adjunctions: tuple[Adjunction, ...] = ()
    name: str = "L"

    def all_labels(self) -> list[str]:
        out = list(self.base)
        for adj in self.adjunctions:
            out.extend(adj.chain)
        return out


# -- construction -------------------------------------------------------------


def build_from_covers(labels: Sequence[str], cover_pairs: Iterable[tuple[str, str]]) -> Lattice:
    """Validate a cover relation and derive the full lattice structure.

    Raises CycleDetected / NotReduced / NotALattice when the input is not an
    acyclic, transitively reduced cover relation of a bounded lattice.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        dup = next(lab for lab in labels if labels.count(lab) > 1)
        raise LabelClash(f"duplicate label {dup!r}")
    index = {lab: i for i, lab in enumerate(labels)}
    covers: set[tuple[int, int]] = set()
    for a, b in cover_pairs:
        if a not in index:
            raise NoSuchElement(f"cover references unknown label {a!r}")
        if b not in index:
            raise NoSuchElement(f"cover references unknown label {b!r}")
        if a == b:
            raise CycleDetected(f"self-loop on {a!r}")
        covers.add((index[a], index[b]))

    n = len(labels)
    uppers: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in covers:
        uppers[u].append(v)
        indeg[v] += 1

    # Kahn topological order over the upward cover digraph.
    order: list[int] = [i for i in range(n) if indeg[i] == 0]
    head = 0
    indeg_work = indeg[:]
    while head < len(order):
        u = order[head]
        head += 1
        for v in uppers[u]:
            indeg_work[v] -= 1
            if indeg_work[v] == 0:
                order.append(v)
    if len(order) != n:
        raise CycleDetected("cover relation contains a directed cycle")

    up = [0] * n
    for i in reversed(order):
        mask = 1 << i
        for j in uppers[i]:
            mask |= up[j]
        up[i] = mask

    for u, v in covers:
        for w in uppers[u]:
            if w != v and up[w] >> v & 1:
                raise NotReduced(
                    f"({labels[u]!r}, {labels[v]!r}) is transitive, not a cover"
                )

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i

    full = (1 << n) - 1
    minimal = [i for i in range(n) if down[i] == 1 << i]
    maximal = [i for i in range(n) if up[i] == 1 << i]
    if len(minimal) != 1 or up[minimal[0]] != full:
        raise NotALattice(f"{len(minimal)} minimal elements; need a unique bottom")
    if len(maximal) != 1 or down[maximal[0]] != full:
        raise NotALattice(f"{len(maximal)} maximal elements; need a unique top")

    lat = Lattice(labels, frozenset(covers), tuple(up), tuple(down), minimal[0], maximal[0])
    for xi in range(n):
        for yi in range(xi + 1, n):
            lat._meet_idx(xi, yi)
            lat._join_idx(xi, yi)
    return lat


def chain_lattice(labels: Sequence[str]) -> Lattice:
    """The chain whose elements are `labels` listed bottom-to-top."""
    labels = tuple(labels)
    return build_from_covers(labels, zip(labels, labels[1:]))


def relabel(lat: Lattice, mapping: Mapping[str, str]) -> Lattice:
    """Rebuild the lattice with every label replaced via `mapping`."""
    new_labels = [mapping[lab] for lab in lat.labels]
    new_covers = [(mapping[a], mapping[b]) for a, b in lat.cover_pairs()]
    return build_from_covers(new_labels, new_covers)


def induced_sublattice(lat: Lattice, keep: Iterable[str]) -> Lattice:
    """Restrict to `keep` with the induced order; covers are re-derived.

    Raises NotALattice when the restriction is not a lattice.
    """
    keep_set = set(keep)
    for x in keep_set:
        lat.index(x)
    kept = [lab for lab in lat.labels if lab in keep_set]
    covers = []
    for i, x in enumerate(kept):
        for y in kept:
            if x != y and lat.lt(x, y):
                if not any(z != x and z != y and lat.lt(x, z) and lat.lt(z, y) for z in kept):
                    covers.append((x, y))
    return build_from_covers(kept, covers)


# -- the adjunct operation -----------------------------------------------------


def adjunct(l1: Lattice, l2: Lattice, a: str, b: str) -> Lattice:
    """Glue `l2` into the open interval between a < b of `l1`.

    Requires a < b with a not covered by b, and disjoint label sets.  The
    result has covers(l1) + covers(l2) plus a < bottom(l2) and top(l2) < b.
    """
    if not l1.lt(a, b):
        raise PairNotAdjunctable(f"need {a!r} < {b!r} in the host lattice")
    if l1.covered_by(a, b):
        raise PairNotAdjunctable(f"{a!r} is covered by {b!r}; the interval is empty")
    clash = set(l1.labels) & set(l2.labels)
    if clash:
        raise LabelClash(f"labels occur on both sides: {sorted(clash)}")
    labels = l1.labels + l2.labels
    covers = list(l1.cover_pairs()) + list(l2.cover_pairs())
    covers.append((a, l2.bottom_label))
    covers.append((l2.top_label, b))
    return build_from_covers(labels, covers)


# -- classification -------------------------------------------------------------


def classify(lat: Lattice) -> ElementClassification:
    """Compute the irreducibility sets and adjunct elements of a lattice.

    In a finite lattice, x is join-reducible iff it has >= 2 lower covers and
    meet-reducible iff it has >= 2 upper covers; doubly irreducible means
    exactly one of each (the extremes never qualify).
    """
    lower_count = {x: len(lat.lower_covers(x)) for x in lat.labels}
    upper_count = {x: len(lat.upper_covers(x)) for x in lat.labels}
    join_irr = frozenset(x for x in lat.labels if lower_count[x] <= 1)
    meet_irr = frozenset(x for x in lat.labels if upper_count[x] <= 1)
    doubly = frozenset(x for x in lat.labels if lower_count[x] == 1 and upper_count[x] == 1)
    atoms = frozenset(lat.upper_covers(lat.bottom_label))
    adjuncts = frozenset(x for x in lat.labels if lower_count[x] >= 2)
    return ElementClassification(
        join_irreducible=join_irr,
        meet_irreducible=meet_irr,
        doubly_irreducible=doubly,
        atoms=atoms,
        adjunct_elements=adjuncts,
        upper_cover_count=upper_count,
        lower_cover_count=lower_count,
    )


def is_lower_dismantlable(lat: Lattice) -> bool:
    """True iff the cover graph restricted to the nonzero elements is a tree,
    i.e. every element other than bottom and top has exactly one upper cover."""
    if lat.n < 2:
        raise HypothesisViolated("lower dismantlability needs at least 2 elements")
    return all(
        len(lat.upper_covers(x)) == 1
        for x in lat.labels
        if x != lat.top_label and x != lat.bottom_label
    )


# -- branch peeling and the adjunct representation ------------------------------


def _peel(parent: Mapping[str, str | None]) -> list[tuple[int, tuple[str, ...]]]:
    """Branch peeling of the rooted tree given as child -> parent (the root
    maps to None): (round, path) for every class, in peel order.

    Round by round, every branching node (degree > 2) with no branching node
    below it sheds each pendant path hanging from it as one class; when no
    branching node is left, each residual leg below the root is one class.
    A node sheds all its paths at once and is then a leaf, so its round is one
    more than the latest round below it, and each path runs in the original
    tree from a child of a branching node or of the root down to the first
    node without exactly one child.  Paths are listed top member first;
    classes are ordered by (round, smallest member).
    """
    children: dict[str, list[str]] = {v: [] for v in parent}
    order = []
    for v, p in parent.items():
        if p is None:
            order.append(v)
        else:
            children[p].append(v)
    for v in order:  # breadth-first from the root
        order.extend(children[v])

    def branching(v: str) -> bool:
        return len(children[v]) + (parent[v] is not None) > 2

    latest: dict[str, int] = {}  # latest round of a branching node in v's subtree
    for v in reversed(order):
        below = max((latest[c] for c in children[v]), default=0)
        latest[v] = below + 1 if branching(v) else below

    classes = []
    for v in order:
        if branching(v):
            round_no = latest[v]
        elif parent[v] is None:  # the legs of a root that does not branch
            round_no = latest[v] + 1
        else:
            continue
        for c in children[v]:
            path = [c]
            while len(children[path[-1]]) == 1:
                path.append(children[path[-1]][0])
            classes.append((round_no, tuple(path)))
    return sorted(classes, key=lambda rc: (rc[0], min(rc[1])))


def adjunct_representation(lat: Lattice, name: str = "L") -> AdjunctExpr:
    """Decompose a lower dismantlable lattice into a base chain plus ordered
    (bottom, b) adjunctions of chains.

    The peeled classes of the tree L \\ {0} are put back in reverse peel
    order.  A class whose hinge (the parent of its top member) has no child
    yet extends the hinge's chain downward; otherwise it is adjoined at
    (bottom, hinge).  Deterministic; the pair multiset is order-independent,
    which tests verify.
    """
    if not is_lower_dismantlable(lat):
        raise NotLowerDismantlable("adjunct representation needs a lower dismantlable lattice")
    bottom, top = lat.bottom_label, lat.top_label
    parent = {x: lat.upper_covers(x)[0] if x != top else None for x in lat.labels if x != bottom}
    base = [top]  # chains are built top-down and reversed at the end
    chain_of = {top: base}
    adjoined: list[tuple[str, list[str]]] = []
    for _, path in reversed(_peel(parent)):
        hinge = parent[path[0]]
        chain = chain_of[hinge]
        if chain[-1] == hinge:  # the hinge has no child yet
            chain.extend(path)
        else:
            chain = list(path)
            adjoined.append((hinge, chain))
        for x in path:
            chain_of[x] = chain
    return AdjunctExpr(
        base=(bottom, *reversed(base)),
        adjunctions=tuple(Adjunction(pair=(bottom, h), chain=tuple(reversed(c))) for h, c in adjoined),
        name=name,
    )
