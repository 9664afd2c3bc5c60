"""Zero-divisor graphs and the complete-multipartite characterization.

The zero-divisor graph of a bounded lattice has the nonzero elements with a
nonzero meet-zero partner as vertices, joined when their meet is the bottom.
Since the down-set of x meet y is the intersection of the down-sets of x and
y, the meet is the bottom exactly when those down-sets share only the bottom:
one AND of two order bitmasks per pair, for any lattice.  The tests check this
against meets computed from the order alone.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable

from .dsl import elaborate
from .errors import BadGraph, BadPartition, EmptyGraph, NoSuchElement
from .lattice import Adjunction, AdjunctExpr, Lattice


class LabeledGraph:
    """Simple undirected graph over string vertex labels."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertices)))
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise BadGraph(f"loop on {u!r}; graphs here are simple")
            if u not in adj or v not in adj:
                missing = u if u not in adj else v
                raise NoSuchElement(f"edge endpoint {missing!r} is not a vertex")
            adj[u].add(v)
            adj[v].add(u)
        # each edge once, smaller endpoint first, in sorted order
        self.edges: tuple[tuple[str, str], ...] = tuple(
            (u, v) for u in self.vertices for v in sorted(adj[u]) if u < v
        )
        self._adj: dict[str, frozenset[str]] = {v: frozenset(s) for v, s in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise NoSuchElement(f"no vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def adjacent(self, u: str, v: str) -> bool:
        return v in self.neighbors(u)

    def induced(self, keep: Iterable[str]) -> "LabeledGraph":
        keep_set = set(keep)
        return LabeledGraph(
            (v for v in self.vertices if v in keep_set),
            (e for e in self.edges if e[0] in keep_set and e[1] in keep_set),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={len(self.edges)})"

    # -- stable exports ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, ensure_ascii=False) + "\n"

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
        """Read {"vertices": [str, ...], "edges": [[str, str], ...]}."""

        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("vertices"), list)
            and all(isinstance(v, str) for v in obj["vertices"])
            and isinstance(obj.get("edges"), list)
            and all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)
                for e in obj["edges"]
            )
        ):
            raise BadGraph('graph JSON must be {"vertices": [string, ...], "edges": [[string, string], ...]}')
        return cls(obj["vertices"], [tuple(e) for e in obj["edges"]])


def zero_divisor_graph(lat: Lattice) -> LabeledGraph:
    """Vertices: nonzero x with some nonzero y such that x meet y = bottom;
    edges: the meet-zero pairs, that is, the pairs whose down-sets meet only
    in the bottom.  Chains yield the empty graph."""
    zero = 1 << lat.bottom
    nonzero = [(x, lat._down[i]) for i, x in enumerate(lat.labels) if i != lat.bottom]
    edges = [
        (x, y)
        for k, (x, down_x) in enumerate(nonzero)
        for y, down_y in nonzero[k + 1 :]
        if down_x & down_y == zero
    ]
    touched = {v for e in edges for v in e}
    return LabeledGraph(touched, edges)


def connectivity_report(graph: LabeledGraph) -> dict:
    """BFS-exact connectivity and diameter; diameter is inf when disconnected."""
    if graph.n == 0:
        raise EmptyGraph("connectivity is undefined on the empty graph")
    ecc = 0
    for src in graph.vertices:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < graph.n:
            return {"connected": False, "diameter": float("inf")}
        ecc = max(ecc, max(dist.values()))
    return {"connected": True, "diameter": ecc}


def neighborhood_partition(graph: LabeledGraph) -> list[tuple[str, ...]]:
    """Group vertices by identical open neighborhoods; blocks sorted by their
    smallest member, members sorted."""
    buckets: dict[frozenset[str], list[str]] = {}
    for v in graph.vertices:
        buckets.setdefault(graph.neighbors(v), []).append(v)
    blocks = [tuple(sorted(b)) for b in buckets.values()]
    return sorted(blocks, key=lambda b: b[0])


def complement_clique_parts(graph: LabeledGraph) -> list[tuple[str, ...]] | None:
    """The partite sets if the graph is complete multipartite, else None.

    A graph is complete multipartite exactly when every neighborhood class is
    adjacent to every vertex outside it (a class is independent, as the graph
    has no loops); the parts are then the classes, returned sorted by
    (descending size, smallest member).
    """
    parts = neighborhood_partition(graph)
    if any(len(graph.neighbors(p[0])) + len(p) != graph.n for p in parts):
        return None
    return sorted(parts, key=lambda p: (-len(p), p))


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
