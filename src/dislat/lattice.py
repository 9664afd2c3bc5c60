"""Finite bounded lattices: construction, the order and its operations,
adjunct elements, and recognition of lower dismantlable lattices.  Their
decomposition into adjunctions is read off the tree (`dislat.treeiso`).

Two constructors fill a `Lattice`.  `build_from_covers` validates any cover
relation and is the path for input outside the class; `Lattice._of_tree`
fills a lower dismantlable lattice in O(n) from the parent array of its tree
under the top, with the bottom under the leaves, and trusts its caller.

Elements are dense integer indices internally.  The label-level readers are
`index`, `bottom_label`, `top_label`, `cover_pairs`, `leq`, `meet` and
`join`; the rest of the package reads the index arrays.  The order relation
is materialized at construction time as per-element bitmasks: ``_down[i]``
holds the elements below i and ``_up[i]`` those above it, both including i.
Comparability is one bit test.  The meet of x and y is the element whose
down-set is ``_down[x] & _down[y]`` (it exists exactly when that
intersection is principal), so meet and join are one AND and one dict
lookup in an index of the principal down-sets (up-sets) by mask, which is
built on the first meet or join.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    LabelClash,
    NoSuchElement,
    NotALattice,
    NotReduced,
)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """Immutable finite bounded lattice.

    Build instances through :func:`build_from_covers`, which validates any
    cover relation, or through :meth:`_of_tree` for a lower dismantlable
    lattice given by its tree; the constructor trusts its arguments.  The
    mask -> element indexes ``_down_index`` and ``_up_index`` are None until
    the first meet or join (``_index_masks``).
    """

    __slots__ = (
        "labels", "bottom", "top", "_index", "_up", "_down", "_up_index", "_down_index", "_uppers", "_lowers"
    )

    def __init__(
        self,
        labels: tuple[str, ...],
        up: tuple[int, ...],
        down: tuple[int, ...],
        bottom: int,
        top: int,
        uppers: tuple[tuple[int, ...], ...],
        lowers: tuple[tuple[int, ...], ...],
    ):
        self.labels = labels
        self.bottom = bottom
        self.top = top
        self._index = dict(zip(labels, range(len(labels))))
        self._up = up
        self._down = down
        self._up_index: dict[int, int] | None = None
        self._down_index: dict[int, int] | None = None
        self._uppers = uppers  # upper covers of each element, ascending
        self._lowers = lowers  # lower covers of each element, ascending

    @classmethod
    def _of_tree(cls, labels: tuple[str, ...], parent: Sequence[int], bottom: int, top: int) -> "Lattice":
        """The lattice of a rooted tree with a bottom adjoined under its
        leaves, in O(n) operations on masks.

        `parent[v]` is the parent of node v; it is read for every element
        but `bottom` and `top`, the root.  The nodes must form one tree under
        `top` and the labels must be distinct: neither is checked.  Up-sets
        are ORed down a breadth-first order from the top and down-sets up it;
        the bottom lies below everything and is covered by the leaves.  The
        result is a lattice by the tree-shape lemma of `build_from_covers`.
        """
        n = len(labels)
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v != bottom and v != top:
                children[p].append(v)
        order = [top]  # breadth-first: every node after its parent
        for v in order:
            order.extend(children[v])
        below = order[1:]
        leaves = tuple(v for v in range(n) if not children[v] and v != bottom)
        up = [0] * n
        up[top] = 1 << top
        for v in below:
            up[v] = up[parent[v]] | 1 << v
        up[bottom] = (1 << n) - 1
        down = [1 << bottom | 1 << v for v in range(n)]
        for v in reversed(below):
            down[parent[v]] |= down[v]
        uppers = [(parent[v],) for v in range(n)]
        uppers[top] = ()
        uppers[bottom] = leaves
        for v in leaves:
            children[v].append(bottom)
        return cls(labels, tuple(up), tuple(down), bottom, top, tuple(uppers), tuple(map(tuple, children)))

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def bottom_label(self) -> str:
        return self.labels[self.bottom]

    @property
    def top_label(self) -> str:
        return self.labels[self.top]

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise NoSuchElement(f"no element {x!r} in lattice") from None

    def cover_pairs(self) -> set[tuple[str, str]]:
        """The cover relation as (lower, upper) label pairs."""
        labels = self.labels
        return {(labels[u], labels[v]) for v, low in enumerate(self._lowers) for u in low}

    # -- order and operations -----------------------------------------------

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self.index(x)] >> self.index(y) & 1)

    def _index_masks(self) -> None:
        """Index the principal down-sets and up-sets by mask."""
        self._down_index = {mask: i for i, mask in enumerate(self._down)}
        self._up_index = {mask: i for i, mask in enumerate(self._up)}

    def _meet_idx(self, xi: int, yi: int) -> int:
        """The element whose down-set is the common down-set, if any."""
        if self._down_index is None:
            self._index_masks()
        meet = self._down_index.get(self._down[xi] & self._down[yi])
        if meet is None:
            raise NotALattice(f"no meet for ({self.labels[xi]}, {self.labels[yi]})")
        return meet

    def _join_idx(self, xi: int, yi: int) -> int:
        if self._up_index is None:
            self._index_masks()
        join = self._up_index.get(self._up[xi] & self._up[yi])
        if join is None:
            raise NotALattice(f"no join for ({self.labels[xi]}, {self.labels[yi]})")
        return join

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


class _Record:
    """Immutable record over the attributes named in ``_fields``: equal to a
    record of the same class with equal fields, hashed and printed as that
    tuple of fields, in the text a frozen dataclass prints.  Assignment and
    deletion raise AttributeError; ``__init__`` sets the fields through
    ``object.__setattr__`` (``_init``)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle through __init__
        return type(self), self._values()


_init = object.__setattr__  # sets a field of a frozen record


class Adjunction(_Record):
    """One `adjoin (a, b): chain` record; chain is listed bottom-to-top."""

    _fields = __slots__ = ("pair", "chain")

    def __init__(self, pair: tuple[str, str], chain: tuple[str, ...]):
        _init(self, "pair", pair)
        _init(self, "chain", chain)


class AdjunctExpr(_Record):
    """Syntax tree of an adjunct representation: a base chain (bottom-to-top)
    followed by ordered adjunctions of chains at pairs."""

    _fields = __slots__ = ("base", "adjunctions", "name")

    def __init__(self, base: tuple[str, ...], adjunctions: tuple[Adjunction, ...] = (), name: str = "L"):
        _init(self, "base", base)
        _init(self, "adjunctions", adjunctions)
        _init(self, "name", name)

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
    labels = _distinct(labels)
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
    lowers: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in covers:
        uppers[u].append(v)
        lowers[v].append(u)
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

    # beyond[u]: what lies strictly above some upper cover of u.  A cover
    # (u, v) is transitive exactly when v lies there.
    beyond = [0] * n
    for u in range(n):
        for w in uppers[u]:
            beyond[u] |= up[w] ^ 1 << w
    for u, v in covers:
        if beyond[u] >> v & 1:
            raise NotReduced(
                f"({labels[u]!r}, {labels[v]!r}) is transitive, not a cover"
            )

    down = [0] * n
    for i in order:
        mask = 1 << i
        for j in lowers[i]:
            mask |= down[j]
        down[i] = mask

    full = (1 << n) - 1
    minimal = [i for i in range(n) if down[i] == 1 << i]
    maximal = [i for i in range(n) if up[i] == 1 << i]
    if len(minimal) != 1 or up[minimal[0]] != full:
        raise NotALattice(f"{len(minimal)} minimal elements; need a unique bottom")
    if len(maximal) != 1 or down[maximal[0]] != full:
        raise NotALattice(f"{len(maximal)} maximal elements; need a unique top")

    bottom, top = minimal[0], maximal[0]
    lat = Lattice(
        labels, tuple(up), tuple(down), bottom, top,
        tuple(tuple(sorted(s)) for s in uppers), tuple(tuple(sorted(s)) for s in lowers),
    )
    # A tree under the top with a bottom below it (every lower dismantlable
    # lattice) is a lattice: each up-set is a chain to the top, so two meet
    # in the up-set of the least common ancestor, and the down-sets of two
    # incomparable elements share only the bottom.
    if all(len(uppers[i]) == 1 for i in range(n) if i != bottom and i != top):
        return lat
    lat._index_masks()
    meets, joins = lat._down_index, lat._up_index
    for xi in range(n):
        down_x, up_x = down[xi], up[xi]
        for yi in range(xi + 1, n):
            if down_x & down[yi] not in meets or up_x & up[yi] not in joins:
                lat._meet_idx(xi, yi)  # raises NotALattice for the missing one
                lat._join_idx(xi, yi)
    return lat


def relabel(lat: Lattice, mapping: Mapping[str, str]) -> Lattice:
    """The same lattice with every label replaced via `mapping`: the index
    arrays are shared, only the labels change.  Raises KeyError for a label
    the mapping lacks and LabelClash when two labels get the same image."""
    labels = _distinct(mapping[lab] for lab in lat.labels)
    return Lattice(labels, lat._up, lat._down, lat.bottom, lat.top, lat._uppers, lat._lowers)


def _distinct(labels: Iterable[str]) -> tuple[str, ...]:
    """The labels as a tuple; LabelClash names the first repeated one."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        dup = next(lab for lab in labels if labels.count(lab) > 1)
        raise LabelClash(f"duplicate label {dup!r}")
    return labels


def _cover_masks(lat: Lattice) -> tuple[list[int], list[int]]:
    """Per element, the masks of its upper covers and of its lower covers,
    read off ``_lowers``, in lists a caller may update."""
    uppers, lowers = [0] * lat.n, [0] * lat.n
    for v, low in enumerate(lat._lowers):
        for u in low:
            uppers[u] |= 1 << v
            lowers[v] |= 1 << u
    return uppers, lowers


# -- adjunct elements and the class ---------------------------------------------


def adjunct_elements(lat: Lattice) -> frozenset[str]:
    """The labels of the elements with at least two lower covers, read off
    ``_lowers``.  For a lower dismantlable lattice these are exactly the b
    with (0, b) an adjunct pair, with multiplicity (#lower covers - 1).
    """
    return frozenset(lat.labels[x] for x, low in enumerate(lat._lowers) if len(low) >= 2)


def is_lower_dismantlable(lat: Lattice) -> bool:
    """True iff the cover graph restricted to the nonzero elements is a tree,
    i.e. every element other than bottom and top has exactly one upper cover.

    Each of those n - 2 elements lies below the top, so it has at least one
    upper cover; they have exactly one each when the covers that do not
    start at the bottom number n - 2.  A one-element lattice has no cover,
    so it is not lower dismantlable.
    """
    return sum(map(len, lat._lowers)) - len(lat._uppers[lat.bottom]) == lat.n - 2
