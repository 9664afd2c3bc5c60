"""Zero-divisor graphs and the complete-multipartite characterization.

The zero-divisor graph of a bounded lattice has the nonzero elements with a
nonzero meet-zero partner as vertices, joined when their meet is the bottom.
A graph is its sorted vertices and one neighbour bitmask per vertex, and
every consumer here reads the masks: neighbourhood classes bucket them,
breadth-first search ORs them, and the edge list is built from them only
when it is printed.  The tests check the graphs against meets computed from
the order alone, and the kernels against a set-based graph and `networkx`.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from . import jsonout
from .dsl import elaborate
from .errors import BadGraph, BadPartition, EmptyGraph, NoSuchElement
from .lattice import Adjunction, AdjunctExpr, Lattice

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _members(items: Sequence, mask: int) -> Iterator:
    """The items whose bits are set in `mask`: bit j stands for items[j]."""
    return compress(items, format(mask, "b")[::-1].encode().translate(_BIT_BYTES))


class LabeledGraph:
    """Simple undirected graph over string vertex labels.

    `vertices` are sorted, and `masks[i]` holds the neighbours of
    vertices[i] as bits over vertex positions: bit j is set exactly when
    vertices[i] and vertices[j] are adjacent.  `edges` is built from the
    masks on first use.
    """

    __slots__ = ("vertices", "masks", "_edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        labels = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(labels)}
        masks = [0] * len(labels)
        for u, v in edges:
            if u == v:
                raise BadGraph(f"loop on {u!r}; graphs here are simple")
            try:
                i, j = index[u], index[v]
            except KeyError:
                missing = u if u not in index else v
                raise NoSuchElement(f"edge endpoint {missing!r} is not a vertex") from None
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._fill(labels, masks)

    @classmethod
    def _of_masks(cls, vertices: tuple[str, ...], masks: Sequence[int]) -> "LabeledGraph":
        """The graph on the sorted, distinct `vertices` with neighbour masks
        `masks`, which are trusted to be symmetric and free of loops."""
        graph = cls.__new__(cls)
        graph._fill(vertices, masks)
        return graph

    def _fill(self, vertices: tuple[str, ...], masks: Sequence[int]) -> None:
        self.vertices: tuple[str, ...] = vertices
        self.masks: tuple[int, ...] = tuple(masks)
        self._edges: tuple[tuple[str, str], ...] | None = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        """The number of edges."""
        return sum(mask.bit_count() for mask in self.masks) // 2

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Each edge once, smaller endpoint first, in sorted order."""
        if self._edges is None:
            vs, masks = self.vertices, self.masks
            rows = (zip(repeat(u), _members(vs[i + 1 :], masks[i] >> i + 1)) for i, u in enumerate(vs))
            self._edges = tuple(chain.from_iterable(rows))
        return self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.vertices, self.masks))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self.m})"

    # -- stable exports ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        """The text of `to_json_obj()`; the writer prints tuples as lists."""
        return jsonout.dumps({"vertices": self.vertices, "edges": self.edges}) + "\n"

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v in self.edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_obj(cls, obj: object) -> "LabeledGraph":
        """Read {"vertices": [str, ...], "edges": [[str, str], ...]}, each
        vertex listed once."""

        def only(kind: type, items: Iterable) -> bool:  # one pass in C, then one test per distinct type
            return all(issubclass(t, kind) for t in set(map(type, items)))

        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("vertices"), list)
            and only(str, obj["vertices"])
            and isinstance(obj.get("edges"), list)
            and only(list, obj["edges"])
            and set(map(len, obj["edges"])) <= {2}
            and only(str, chain.from_iterable(obj["edges"]))
        ):
            raise BadGraph('graph JSON must be {"vertices": [string, ...], "edges": [[string, string], ...]}')
        vertices = obj["vertices"]
        if len(set(vertices)) < len(vertices):
            repeated = next(v for v, count in Counter(vertices).items() if count > 1)
            raise BadGraph(f"vertex {repeated!r} is listed twice")
        return cls(vertices, [tuple(e) for e in obj["edges"]])


def zero_divisor_graph(lat: Lattice) -> LabeledGraph:
    """Vertices: nonzero x with some nonzero y such that x meet y = bottom;
    edges: the meet-zero pairs.  Chains yield the empty graph.

    Every nonzero element lies above an atom, so x meet y is the bottom
    exactly when no atom lies below both.  So x is a vertex when some atom
    is not below it, and the vertices that meet x above the bottom are those
    above the atoms below x: above x itself when x is an atom, else above
    the atoms below its lower covers.  Both sets are built over the covers,
    one OR per cover, straight in the bits of the label-sorted vertices; the
    neighbours of x are the vertices outside the second.
    """
    bottom, down, labels = lat.bottom, lat._down, lat.labels
    atoms = sum(1 << x for x in lat._uppers[bottom])
    vertices = sorted(
        (x for x in range(lat.n) if x != bottom and down[x] & atoms != atoms), key=labels.__getitem__
    )
    bit = [0] * lat.n
    for k, x in enumerate(vertices):
        bit[x] = 1 << k
    order = sorted(range(lat.n), key=lambda i: down[i].bit_count())  # lower covers first
    above = [0] * lat.n  # above[x]: the vertices at or above x
    for x in reversed(order):
        above[x] = reduce(or_, map(above.__getitem__, lat._uppers[x]), bit[x])
    meets = [0] * lat.n  # meets[x]: the vertices whose meet with x is not the bottom
    for x in order:
        if x != bottom:
            lowers = lat._lowers[x]
            meets[x] = above[x] if lowers == (bottom,) else reduce(or_, map(meets.__getitem__, lowers))
    everyone = (1 << len(vertices)) - 1
    return LabeledGraph._of_masks(tuple(labels[x] for x in vertices), [everyone & ~meets[x] for x in vertices])


def connectivity_report(graph: LabeledGraph) -> dict:
    """Connectivity and diameter by breadth-first search from every vertex,
    one level at a time: the next level is the OR of the masks of the
    current one, less what was seen.  The diameter is inf when the graph is
    disconnected."""
    if graph.n == 0:
        raise EmptyGraph("connectivity is undefined on the empty graph")
    masks, everyone = graph.masks, (1 << graph.n) - 1
    ecc = 0
    for src in range(graph.n):
        seen = level = 1 << src
        depth = 0
        while level := reduce(or_, _members(masks, level), 0) & ~seen:
            seen |= level
            depth += 1
        if seen != everyone:
            return {"connected": False, "diameter": float("inf")}
        ecc = max(ecc, depth)
    return {"connected": True, "diameter": ecc}


def _classes(graph: LabeledGraph) -> dict[int, list[str]]:
    """The vertices bucketed by their neighbour masks, in vertex order."""
    buckets: dict[int, list[str]] = {}
    for v, mask in zip(graph.vertices, graph.masks):
        buckets.setdefault(mask, []).append(v)
    return buckets


def neighborhood_partition(graph: LabeledGraph) -> list[tuple[str, ...]]:
    """Group vertices by identical open neighborhoods; blocks sorted by their
    smallest member, members sorted."""
    return [tuple(block) for block in _classes(graph).values()]


def complement_clique_parts(graph: LabeledGraph) -> list[tuple[str, ...]] | None:
    """The partite sets if the graph is complete multipartite, else None.

    A graph is complete multipartite exactly when every neighborhood class is
    adjacent to every vertex outside it (a class is independent, as the graph
    has no loops); the parts are then the classes, returned sorted by
    (descending size, smallest member).
    """
    classes = _classes(graph)
    if any(mask.bit_count() + len(block) != graph.n for mask, block in classes.items()):
        return None
    return sorted(map(tuple, classes.values()), key=lambda p: (-len(p), p))


def complete_multipartite_parts(graph: LabeledGraph) -> list[int] | None:
    """Part sizes (sorted descending) if complete multipartite, else None."""
    parts = complement_clique_parts(graph)
    if parts is None:
        return None
    return [len(p) for p in parts]


def lattice_from_complete_multipartite(sizes: Iterable[int]) -> Lattice:
    """Build a lower dismantlable lattice whose zero-divisor graph is complete
    k-partite with the given part sizes: the largest part plus the extremes
    forms the base chain, every other part is a chain adjoined at (0, top)."""
    sizes = sorted(sizes, reverse=True)
    if len(sizes) < 2:
        raise BadPartition(f"need at least 2 parts, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise BadPartition("every part must have at least one vertex")
    base = ("0", *(f"p1_{j}" for j in range(1, sizes[0] + 1)), "one")
    adjunctions = tuple(
        Adjunction(pair=("0", "one"), chain=tuple(f"p{i}_{j}" for j in range(1, size + 1)))
        for i, size in enumerate(sizes[1:], start=2)
    )
    return elaborate(AdjunctExpr(base=base, adjunctions=adjunctions))
