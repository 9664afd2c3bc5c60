"""Zero-divisor graphs and the complete-multipartite characterization.

The zero-divisor graph of a bounded lattice has the nonzero elements with a
nonzero meet-zero partner as vertices, joined when their meet is the bottom.
It is computed from meets for any lattice; the incomparability shortcut valid
for lower dismantlable lattices is exercised by tests, not relied on here.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable

from .errors import BadGraph, BadPartition, EmptyGraph, NoSuchElement
from .lattice import Lattice, adjunct, chain_lattice


class LabeledGraph:
    """Simple undirected graph over string vertex labels."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        norm: set[tuple[str, str]] = set()
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise BadGraph(f"loop on {u!r}; graphs here are simple")
            if u not in vset or v not in vset:
                missing = u if u not in vset else v
                raise NoSuchElement(f"edge endpoint {missing!r} is not a vertex")
            norm.add((min(u, v), max(u, v)))
            adj[u].add(v)
            adj[v].add(u)
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(norm))
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

    def complement(self) -> "LabeledGraph":
        verts = self.vertices
        edges = [
            (u, v)
            for i, u in enumerate(verts)
            for v in verts[i + 1 :]
            if v not in self._adj[u]
        ]
        return LabeledGraph(verts, edges)

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

        def strings(x: object) -> bool:
            return isinstance(x, list) and all(isinstance(s, str) for s in x)

        if not (
            isinstance(obj, dict)
            and strings(obj.get("vertices"))
            and isinstance(obj.get("edges"), list)
            and all(strings(e) and len(e) == 2 for e in obj["edges"])
        ):
            raise BadGraph('graph JSON must be {"vertices": [string, ...], "edges": [[string, string], ...]}')
        return cls(obj["vertices"], [tuple(e) for e in obj["edges"]])


def zero_divisor_graph(lat: Lattice) -> LabeledGraph:
    """Vertices: nonzero x with some nonzero y such that x meet y = bottom;
    edges: the meet-zero pairs.  Chains yield the empty graph."""
    bottom = lat.bottom_label
    nonzero = [x for x in lat.labels if x != bottom]
    edges = [
        (x, y)
        for i, x in enumerate(nonzero)
        for y in nonzero[i + 1 :]
        if lat.meet(x, y) == bottom
    ]
    touched = {v for e in edges for v in e}
    return LabeledGraph(sorted(touched), edges)


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

    A graph is complete multipartite exactly when its complement is a disjoint
    union of cliques; the parts are the complement's components, returned
    sorted by (descending size, smallest member).
    """
    comp = graph.complement()
    seen: set[str] = set()
    parts: list[tuple[str, ...]] = []
    for v in graph.vertices:
        if v in seen:
            continue
        block = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in comp.neighbors(u):
                if w not in block:
                    block.add(w)
                    queue.append(w)
        for x in block:
            for y in block:
                if x != y and not comp.adjacent(x, y):
                    return None
        seen |= block
        parts.append(tuple(sorted(block)))
    parts.sort(key=lambda p: (-len(p), p))
    return parts


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
    base = ["0"] + [f"p1_{j}" for j in range(1, sizes[0] + 1)] + ["one"]
    lat = chain_lattice(base)
    for i, size in enumerate(sizes[1:], start=2):
        part = [f"p{i}_{j}" for j in range(1, size + 1)]
        lat = adjunct(lat, chain_lattice(part), "0", "one")
    return lat
