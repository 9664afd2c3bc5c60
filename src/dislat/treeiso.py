"""Rooted trees, non-ancestor graphs, canonical codes, recognition of
non-ancestor graphs, and the constructive isomorphism pipeline: a graph
isomorphism between zero-divisor graphs is realigned to preserve adjunct
elements and then lifted to a full lattice isomorphism."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    HypothesisViolated,
    InternalInconsistency,
    LabelClash,
    NoSuchElement,
    NotInClass,
    NotLowerDismantlable,
)
from .lattice import Lattice, build_from_covers, classify, is_lower_dismantlable
from .zdg import LabeledGraph, neighborhood_partition, zero_divisor_graph

FRESH_ROOT = "⊤"

CanonicalCode = str


@dataclass(frozen=True)
class RootedTree:
    """Parent-array rooted tree; the root is its own parent."""

    labels: tuple[str, ...]
    parent: tuple[int, ...]
    root: int

    @classmethod
    def from_parents(cls, parents: Mapping[str, str | None]) -> "RootedTree":
        labels = tuple(sorted(parents))
        index = {lab: i for i, lab in enumerate(labels)}
        roots = [lab for lab, p in parents.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"need exactly one root, found {len(roots)}")
        root = index[roots[0]]
        parent = []
        for lab in labels:
            p = parents[lab]
            if p is None:
                parent.append(index[lab])
            else:
                if p not in index:
                    raise NoSuchElement(f"parent {p!r} of {lab!r} is not a node")
                parent.append(index[p])
        tree = cls(labels=labels, parent=tuple(parent), root=root)
        for lab in labels:  # reject cycles / disconnection
            tree.depth(lab)
        return tree

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def root_label(self) -> str:
        return self.labels[self.root]

    def index(self, x: str) -> int:
        try:
            return self.labels.index(x)
        except ValueError:
            raise NoSuchElement(f"no node {x!r}") from None

    def parent_map(self) -> dict[str, str | None]:
        return {
            lab: (None if i == self.root else self.labels[self.parent[i]])
            for i, lab in enumerate(self.labels)
        }

    def children(self, x: str) -> tuple[str, ...]:
        i = self.index(x)
        return tuple(
            lab
            for j, lab in enumerate(self.labels)
            if self.parent[j] == i and j != self.root
        )

    def depth(self, x: str) -> int:
        i = self.index(x)
        d = 0
        seen = {i}
        while i != self.root:
            i = self.parent[i]
            if i in seen:
                raise ValueError("parent links contain a cycle")
            seen.add(i)
            d += 1
        return d

    def leaves(self) -> tuple[str, ...]:
        return tuple(lab for lab in self.labels if not self.children(lab))

    def is_ancestor(self, u: str, v: str) -> bool:
        """True when u lies on the root path of v (proper ancestor)."""
        ui = self.index(u)
        i = self.index(v)
        while i != self.root:
            i = self.parent[i]
            if i == ui:
                return True
        return False

    def relabeled(self, mapping: Mapping[str, str]) -> "RootedTree":
        return RootedTree.from_parents(
            {mapping[lab]: (None if p is None else mapping[p]) for lab, p in self.parent_map().items()}
        )


@dataclass
class IsoWitness:
    """A checked bijection; graph-iso preserves adjacency, lattice-iso
    preserves order, both ways."""

    kind: str  # "graph-iso" | "lattice-iso"
    mapping: dict[str, str] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "map": {k: self.mapping[k] for k in sorted(self.mapping)}}


def check_graph_iso(g1: LabeledGraph, g2: LabeledGraph, mapping: Mapping[str, str]) -> bool:
    if set(mapping) != set(g1.vertices) or set(mapping.values()) != set(g2.vertices):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for u in g1.vertices:
        for v in g1.vertices:
            if u < v and g1.adjacent(u, v) != g2.adjacent(mapping[u], mapping[v]):
                return False
    return True


def check_lattice_iso(l1: Lattice, l2: Lattice, mapping: Mapping[str, str]) -> bool:
    if set(mapping) != set(l1.labels) or set(mapping.values()) != set(l2.labels):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for x in l1.labels:
        for y in l1.labels:
            if l1.leq(x, y) != l2.leq(mapping[x], mapping[y]):
                return False
    return True


# -- lattice <-> tree ------------------------------------------------------------


def tree_of_lattice(lat: Lattice) -> RootedTree:
    """The nonzero elements under the unique-upper-cover parent relation,
    rooted at the top."""
    if not is_lower_dismantlable(lat):
        raise NotLowerDismantlable("only lower dismantlable lattices correspond to rooted trees")
    parents: dict[str, str | None] = {}
    for x in lat.labels:
        if x == lat.bottom_label:
            continue
        if x == lat.top_label:
            parents[x] = None
        else:
            (up,) = lat.upper_covers(x)
            parents[x] = up
    return RootedTree.from_parents(parents)


def lattice_of_tree(tree: RootedTree) -> Lattice:
    """Adjoin a new bottom ``0`` under every pendant vertex of the tree; the
    result is the lower dismantlable lattice the tree corresponds to."""
    if "0" in tree.labels:
        raise LabelClash("bottom label '0' already names a tree node")
    covers = [(c, p) for c, p in tree.parent_map().items() if p is not None]
    covers.extend(("0", leaf) for leaf in tree.leaves())
    return build_from_covers(("0", *tree.labels), covers)


def non_ancestor_graph(tree: RootedTree) -> LabeledGraph:
    """Vertices: every node but the root; edges: pairs where neither is an
    ancestor of the other."""
    verts = [v for v in tree.labels if v != tree.root_label]
    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if not tree.is_ancestor(u, v) and not tree.is_ancestor(v, u)
    ]
    return LabeledGraph(verts, edges)


# -- canonical codes ---------------------------------------------------------------


def _canonical(tree: RootedTree) -> tuple[CanonicalCode, tuple[str, ...]]:
    """AHU code of the tree, with the preorder of its nodes that visits
    children in code order.  For two trees with equal codes, zipping their
    preorders gives a rooted tree isomorphism: both walks trace the same
    code, one parenthesis per node."""
    children: list[list[int]] = [[] for _ in tree.labels]
    for i, p in enumerate(tree.parent):
        if i != tree.root:
            children[p].append(i)
    order = [tree.root]
    for v in order:  # breadth-first, so every node comes after its parent
        order.extend(children[v])
    code: list[str] = [""] * tree.n
    for v in reversed(order):
        children[v].sort(key=code.__getitem__)
        code[v] = "(" + "".join(code[c] for c in children[v]) + ")"
    preorder = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        preorder.append(tree.labels[v])
        stack.extend(reversed(children[v]))
    return code[tree.root], tuple(preorder)


def canonical_code(tree: RootedTree) -> CanonicalCode:
    """Nested-parenthesis canonical form with children codes sorted; equal
    codes characterize isomorphic rooted trees."""
    return _canonical(tree)[0]


def tree_from_code(code: CanonicalCode) -> RootedTree:
    """Materialize a code as a concrete tree with labels n0, n1, ...
    assigned in preorder."""
    parents: dict[str, str | None] = {}
    counter = 0

    def walk(pos: int, parent: str | None) -> int:
        nonlocal counter
        if code[pos] != "(":
            raise ValueError(f"malformed code at {pos}")
        me = f"n{counter}"
        counter += 1
        parents[me] = parent
        pos += 1
        while code[pos] == "(":
            pos = walk(pos, me)
        if code[pos] != ")":
            raise ValueError(f"malformed code at {pos}")
        return pos + 1

    end = walk(0, None)
    if end != len(code):
        raise ValueError("trailing characters after code")
    return RootedTree.from_parents(parents)


# -- recognition --------------------------------------------------------------------


def recognize(graph: LabeledGraph) -> RootedTree | None:
    """Reconstruct a rooted tree whose non-ancestor graph equals `graph`
    label-for-label, or None when no such tree exists.

    Among non-adjacent pairs the ancestor is the one with the smaller
    neighborhood; equal-neighborhood vertices form path segments ordered by
    label.  A fresh root is added above the maximal vertices and the result is
    verified by a full round trip.
    """
    root = FRESH_ROOT
    while root in set(graph.vertices):
        root += "'"

    nbrs = {v: graph.neighbors(v) for v in graph.vertices}

    def is_proper_ancestor(u: str, v: str) -> bool:
        if u == v or u in nbrs[v]:
            return False
        if nbrs[u] == nbrs[v]:
            return u < v
        return nbrs[u] < nbrs[v]

    parents: dict[str, str | None] = {root: None}
    for v in graph.vertices:
        ancestors = [u for u in graph.vertices if is_proper_ancestor(u, v)]
        if not ancestors:
            parents[v] = root
        else:
            # the immediate parent is the deepest ancestor
            parents[v] = max(ancestors, key=lambda u: (len(nbrs[u]), u))
    try:
        tree = RootedTree.from_parents(parents)
    except (ValueError, NoSuchElement):
        return None
    if non_ancestor_graph(tree) != graph:
        return None
    return tree


def graph_iso(g1: LabeledGraph, g2: LabeledGraph) -> IsoWitness | None:
    """An isomorphism between two non-ancestor graphs, or None when there is
    none: the matching of the reconstructed trees' canonical preorders,
    restricted to the graph vertices (the fresh roots come first and match
    each other)."""
    t1 = recognize(g1)
    if t1 is None:
        raise NotInClass("first graph is not a non-ancestor graph of a rooted tree", which="first")
    t2 = recognize(g2)
    if t2 is None:
        raise NotInClass("second graph is not a non-ancestor graph of a rooted tree", which="second")
    (code1, order1), (code2, order2) = _canonical(t1), _canonical(t2)
    if code1 != code2:
        return None
    return IsoWitness(kind="graph-iso", mapping=dict(zip(order1[1:], order2[1:])))


# -- adjunct realignment and lifting ---------------------------------------------


def _adjunct_vertices(lat: Lattice, graph: LabeledGraph) -> set[str]:
    return set(classify(lat).adjunct_elements) & set(graph.vertices)


def _require_top_adjunct(lat: Lattice, side: str) -> None:
    if not is_lower_dismantlable(lat):
        raise HypothesisViolated(f"{side} lattice is not lower dismantlable")
    if len(lat.lower_covers(lat.top_label)) < 2:
        raise HypothesisViolated(f"{side} lattice's top is not an adjunct element")


def align_adjuncts(l1: Lattice, l2: Lattice, f: IsoWitness) -> IsoWitness:
    """Turn a zero-divisor-graph isomorphism into one that maps adjunct
    elements to adjunct elements, by swapping images of class-mates.

    The count of misaligned adjunct elements drops by one per swap; class
    structure is untouched (the result maps every class exactly as f does).
    """
    if f.kind != "graph-iso":
        raise HypothesisViolated("align_adjuncts needs a graph isomorphism witness")
    _require_top_adjunct(l1, "first")
    _require_top_adjunct(l2, "second")
    g1, g2 = zero_divisor_graph(l1), zero_divisor_graph(l2)
    phi = dict(f.mapping)
    if not check_graph_iso(g1, g2, phi):
        raise InternalInconsistency("f is not an isomorphism of the zero-divisor graphs")

    adj1, adj2 = _adjunct_vertices(l1, g1), _adjunct_vertices(l2, g2)
    prev = None
    while True:
        misaligned = sorted(x for x in adj1 if phi[x] not in adj2)
        if prev is not None and len(misaligned) >= prev:
            raise InternalInconsistency("misaligned-adjunct count failed to decrease")
        prev = len(misaligned)
        if not misaligned:
            break
        x1 = misaligned[0]
        mates = [y for y in g1.vertices if g1.neighbors(y) == g1.neighbors(x1)]
        swap_with = next((y for y in mates if phi[y] in adj2), None)
        if swap_with is None:
            raise InternalInconsistency(
                f"class of {x1!r} maps to a class without an adjunct element"
            )
        phi[x1], phi[swap_with] = phi[swap_with], phi[x1]
    return IsoWitness(kind="graph-iso", mapping=phi)


def lift_to_lattice_iso(l1: Lattice, l2: Lattice, phi: IsoWitness) -> IsoWitness:
    """Lift an adjunct-preserving zero-divisor-graph isomorphism to a lattice
    isomorphism that agrees with it on the adjunct elements below the top.

    Every neighborhood class of the first graph is a chain.  It is matched
    to its phi-image bottom to bottom, and the extremes to the extremes, in
    one pass.  This is the map the paper's recursive peel builds: peeling a
    class from both sides matches one class chain bottom to bottom.  A class
    that merges with its hinge's class after a peel is matched just as its
    two pieces are, because the image hinge is the image of the hinge: the
    image of the lower piece lies below it in the merged image chain.
    """
    if phi.kind != "graph-iso":
        raise HypothesisViolated("lift needs a graph isomorphism witness")
    _require_top_adjunct(l1, "first")
    _require_top_adjunct(l2, "second")
    g1, g2 = zero_divisor_graph(l1), zero_divisor_graph(l2)
    mapping = dict(phi.mapping)
    if not check_graph_iso(g1, g2, mapping):
        raise InternalInconsistency("phi is not an isomorphism of the zero-divisor graphs")
    adj1, adj2 = _adjunct_vertices(l1, g1), _adjunct_vertices(l2, g2)
    if {mapping[x] for x in adj1} != adj2:
        raise HypothesisViolated("phi does not preserve adjunct elements")

    psi = {l1.bottom_label: l2.bottom_label, l1.top_label: l2.top_label}
    for block in neighborhood_partition(g1):
        chain1 = sorted(block, key=lambda v: len(l1.down_set(v)))
        chain2 = sorted((mapping[v] for v in block), key=lambda v: len(l2.down_set(v)))
        psi.update(zip(chain1, chain2))
    if not check_lattice_iso(l1, l2, psi):
        raise InternalInconsistency("lifted map is not an order isomorphism")
    return IsoWitness(kind="lattice-iso", mapping=psi)
