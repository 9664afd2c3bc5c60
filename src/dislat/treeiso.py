"""Rooted trees, the lattice <-> tree correspondence with the branch peel
of a tree and the adjunct representation read off it, canonical codes,
recognition of non-ancestor graphs, and the constructive isomorphism
pipeline: a graph isomorphism between zero-divisor graphs is lifted, one
neighborhood class at a time, to a full lattice isomorphism, and only the
lifted map is checked: it is an order isomorphism exactly when the graph
map is a graph isomorphism (lemma in `lift_to_lattice_iso`).
Without the hypothesis of a join-reducible top, a lattice isomorphism is
read off the two lattices' trees instead.  Every isomorphism, of graphs or
of lattices, is a plain dict from labels to labels; `check_lattice_iso` is
what makes a lattice map trustworthy."""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Sequence

from .errors import (
    CycleDetected,
    HypothesisViolated,
    InternalInconsistency,
    LabelClash,
    NoSuchElement,
    NotInClass,
    NotLowerDismantlable,
)
from .lattice import Adjunction, AdjunctExpr, Lattice, _distinct, _init, _Record, is_lower_dismantlable
from .zdg import LabeledGraph, neighborhood_partition

FRESH_ROOT = "⊤"

CanonicalCode = str


class RootedTree(_Record):
    """Parent-array rooted tree; the root is its own parent.

    Construction rejects a repeated label (LabelClash), walks the tree once
    from the root, which rejects parent links with a cycle, and indexes it:
    labels to indices, child lists in index order, and the preorder.
    Equality, hashing and repr read (labels, parent, root) only.
    """

    _fields = ("labels", "parent", "root")
    __slots__ = (*_fields, "_index", "_children", "_preorder")

    def __init__(self, labels: tuple[str, ...], parent: tuple[int, ...], root: int):
        _init(self, "labels", _distinct(labels))
        _init(self, "parent", parent)
        _init(self, "root", root)
        n = len(labels)
        children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parent):
            if i != root:
                children[p].append(i)
        preorder = []
        stack = [root]
        while stack:  # each node is on the child list of its parent only
            v = stack.pop()
            preorder.append(v)
            stack.extend(reversed(children[v]))
        if len(preorder) != n:  # a node the root does not reach has a cycle above it
            raise CycleDetected("parent links contain a cycle")
        _init(self, "_index", {lab: i for i, lab in enumerate(labels)})
        _init(self, "_children", tuple(map(tuple, children)))
        _init(self, "_preorder", tuple(preorder))

    @classmethod
    def from_parents(cls, parents: Mapping[str, str | None]) -> "RootedTree":
        labels = tuple(sorted(parents))
        index = {lab: i for i, lab in enumerate(labels)}
        roots = [lab for lab, p in parents.items() if p is None]
        if len(roots) != 1:
            raise HypothesisViolated(f"need exactly one root, found {len(roots)}")
        parent = []
        for lab in labels:
            p = parents[lab]
            if p is None:
                parent.append(index[lab])
            else:
                if p not in index:
                    raise NoSuchElement(f"parent {p!r} of {lab!r} is not a node")
                parent.append(index[p])
        return cls(labels=labels, parent=tuple(parent), root=index[roots[0]])

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def root_label(self) -> str:
        return self.labels[self.root]


def check_lattice_iso(l1: Lattice, l2: Lattice, mapping: Mapping[str, str]) -> bool:
    """Whether `mapping` is a bijection from l1 onto l2 that carries the
    cover relation of l1 onto that of l2.  The order is the reflexive and
    transitive closure of the covers, so this is exactly an order
    isomorphism.  The covers are compared as lower-cover lists: `image[i]`
    is the index in l2 of the image of element i of l1, and the images of
    the lower covers of i must be the lower covers of `image[i]`."""
    if set(mapping) != set(l1.labels) or set(mapping.values()) != set(l2.labels):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    image = [l2.index(mapping[x]) for x in l1.labels]
    lowers2 = l2._lowers
    return all(tuple(sorted(map(image.__getitem__, low))) == lowers2[i] for low, i in zip(l1._lowers, image))


# -- lattice <-> tree ------------------------------------------------------------


def tree_of_lattice(lat: Lattice) -> RootedTree:
    """The nonzero elements under the unique-upper-cover parent relation,
    rooted at the top.  Nodes are the nonzero labels in sorted order, and
    the parent of a node is the position of the one entry of its
    ``_uppers`` list."""
    if not is_lower_dismantlable(lat):
        raise NotLowerDismantlable("only lower dismantlable lattices correspond to rooted trees")
    labels, uppers = lat.labels, lat._uppers
    nodes = sorted((i for i in range(lat.n) if i != lat.bottom), key=labels.__getitem__)
    position = {i: pos for pos, i in enumerate(nodes)}
    return RootedTree(
        labels=tuple(labels[i] for i in nodes),
        parent=tuple(position[uppers[i][0] if uppers[i] else i] for i in nodes),
        root=position[lat.top],
    )


def lattice_of_tree(tree: RootedTree) -> Lattice:
    """Adjoin a new bottom ``0`` under every pendant vertex of the tree; the
    result is the lower dismantlable lattice the tree corresponds to.  Its
    elements are ``0`` and then the nodes in index order, and it is filled
    from the parent array in O(n) (`Lattice._of_tree`)."""
    if "0" in tree.labels:
        raise LabelClash("bottom label '0' already names a tree node")
    return Lattice._of_tree(("0", *tree.labels), (0, *(p + 1 for p in tree.parent)), 0, tree.root + 1)


# -- branch peeling and the adjunct representation ------------------------------


def _peel(tree: RootedTree) -> list[tuple[int, tuple[str, ...]]]:
    """Branch peeling of the tree: (round, path of labels) for every class,
    in peel order.

    Round by round, every branching node (degree > 2) with no branching node
    below it sheds each pendant path hanging from it as one class; when no
    branching node is left, each residual leg below the root is one class.
    A node sheds all its paths at once and is then a leaf, so its round is one
    more than the latest round below it, and each path runs in the original
    tree from a child of a branching node or of the root down to the first
    node without exactly one child.  Paths are listed top member first;
    classes are ordered by (round, smallest member).
    """
    labels, children, root = tree.labels, tree._children, tree.root

    def branching(v: int) -> bool:
        return len(children[v]) + (v != root) > 2

    latest = [0] * tree.n  # latest round of a branching node in v's subtree
    for v in reversed(tree._preorder):
        below = max((latest[c] for c in children[v]), default=0)
        latest[v] = below + 1 if branching(v) else below

    classes = []
    for v in tree._preorder:
        if branching(v):
            round_no = latest[v]
        elif v == root:  # the legs of a root that does not branch
            round_no = latest[v] + 1
        else:
            continue
        for c in children[v]:
            path = [labels[c]]
            while len(children[c]) == 1:
                c = children[c][0]
                path.append(labels[c])
            classes.append((round_no, tuple(path)))
    return sorted(classes, key=lambda rc: (rc[0], min(rc[1])))


def adjunct_representation(tree: RootedTree, bottom: str = "0", name: str = "L") -> AdjunctExpr:
    """Decompose the lattice of a rooted tree, `bottom` adjoined under its
    leaves, into a base chain plus ordered (bottom, b) adjunctions of chains.

    The peeled classes of the tree are put back in reverse peel order.  A
    class whose hinge (the parent of its top member) has no child yet
    extends the hinge's chain downward; otherwise it is adjoined at
    (bottom, hinge).  Deterministic; the pair multiset is order-independent,
    which tests verify.  The result is a function of the labelled tree, not
    of its index order: the peel orders classes by (round, smallest member),
    and both are structural.  LabelClash when `bottom` names a node.
    """
    if bottom in tree._index:
        raise LabelClash(f"bottom label {bottom!r} already names a tree node")
    labels, parent, index = tree.labels, tree.parent, tree._index
    top = tree.root_label
    base = [top]  # chains are built top-down and reversed at the end
    chain_of = {top: base}
    adjoined: list[tuple[str, list[str]]] = []
    for _, path in reversed(_peel(tree)):
        hinge = labels[parent[index[path[0]]]]
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


# -- canonical codes ---------------------------------------------------------------


def _canonical(tree: RootedTree) -> tuple[CanonicalCode, tuple[str, ...]]:
    """AHU code of the tree, with the preorder of its nodes that visits
    children in code order.  For two trees with equal codes, zipping their
    preorders gives a rooted tree isomorphism: both walks trace the same
    code, one parenthesis per node."""
    children = list(tree._children)
    code: list[str] = ["()"] * tree.n  # the code of a leaf
    for v in reversed(tree._preorder):
        if children[v]:
            children[v] = sorted(children[v], key=code.__getitem__)
            code[v] = "(" + "".join(map(code.__getitem__, children[v])) + ")"
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
    open_nodes: list[str] = []
    for pos, ch in enumerate(code):
        if parents and not open_nodes:
            raise HypothesisViolated(f"trailing characters after code at {pos}")
        if ch == "(":
            me = f"n{len(parents)}"
            parents[me] = open_nodes[-1] if open_nodes else None
            open_nodes.append(me)
        elif ch == ")" and open_nodes:
            open_nodes.pop()
        else:
            raise HypothesisViolated(f"malformed code at {pos}")
    if open_nodes or not parents:
        raise HypothesisViolated(f"malformed code at {len(code)}")
    return RootedTree.from_parents(parents)


# -- recognition --------------------------------------------------------------------


def recognize(graph: LabeledGraph) -> RootedTree | None:
    """Reconstruct a rooted tree whose non-ancestor graph equals `graph`
    label-for-label, or None when no such tree exists.

    Among non-adjacent vertices of a non-ancestor graph the ancestor has the
    smaller neighborhood; equal-neighborhood vertices form path segments,
    ordered here by label.  So the vertices are placed in (degree, label)
    order, each by its index, and v's placed non-neighbours ``above`` must
    be its ancestors: with k of them, exactly one vertex p of depth k - 1,
    the parent, and p's ancestors.  With none, the parent is a fresh root.

    That test is the whole verification.  An ancestor is placed first and is
    a non-neighbour, and a non-edge {u, v}, u placed first, puts u in v's
    ``above``, which is v's ancestors: so the non-edges are exactly the
    ancestor pairs.  Nothing in the class is rejected: once each path
    segment is reordered by label, which leaves the graph as it is, every
    vertex comes after its ancestors and before its descendants.
    """
    root = FRESH_ROOT
    while root in set(graph.vertices):
        root += "'"

    vs, masks, m = graph.vertices, graph.masks, graph.n
    # The tree's nodes are the sorted vertices with the fresh root slotted in.
    at = bisect_left(vs, root)
    parent = [at] * (m + 1)
    ancestors = [0] * m
    at_depth = [0] * m  # at_depth[k]: the placed vertices with k ancestors
    placed = 0
    degree = [mask.bit_count() for mask in masks]
    for v in sorted(range(m), key=degree.__getitem__):  # a stable sort: ties stay in label order
        above = placed & ~masks[v]
        k = above.bit_count()
        if k:
            p_bit = above & at_depth[k - 1]
            p = p_bit.bit_length() - 1
            if p_bit.bit_count() != 1 or ancestors[p] | p_bit != above:
                return None
            parent[v + (v >= at)] = p + (p >= at)
        ancestors[v] = above
        at_depth[k] |= 1 << v
        placed |= 1 << v
    return RootedTree(labels=(*vs[:at], root, *vs[at:]), parent=tuple(parent), root=at)


def graph_iso(g1: LabeledGraph, g2: LabeledGraph) -> dict[str, str] | None:
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
    return dict(zip(order1[1:], order2[1:]))


# -- lifting -----------------------------------------------------------------------


def _require_top_adjunct(lat: Lattice, side: str) -> None:
    if not is_lower_dismantlable(lat):
        raise HypothesisViolated(f"{side} lattice is not lower dismantlable")
    if len(lat._lowers[lat.top]) < 2:
        raise HypothesisViolated(f"{side} lattice's top is not an adjunct element")


def lift_to_lattice_iso(
    l1: Lattice, l2: Lattice, g1: LabeledGraph, g2: LabeledGraph, phi: Mapping[str, str]
) -> dict[str, str]:
    """Lift an isomorphism phi from the zero-divisor graph g1 of l1 to the
    zero-divisor graph g2 of l2 to a lattice isomorphism.

    Every neighborhood class of the first graph is a chain.  It is matched
    to its phi-image bottom to bottom, and the extremes to the extremes, in
    one pass.  This is the map the paper's recursive peel builds: peeling a
    class from both sides matches one class chain bottom to bottom.  A class
    that merges with its hinge's class after a peel is matched just as its
    two pieces are, because the image hinge is the image of the hinge: the
    image of the lower piece lies below it in the merged image chain.  A
    chain is ordered by the size of each member's down-set, the bit count
    of its ``_down`` mask.

    phi need not map adjunct elements to adjunct elements.  Every member of
    a class but its lowest has one lower cover, the class-mate below it, so
    a class's adjunct element, if it has one, is the bottom of its chain.
    The paper first swaps images of class-mates until adjuncts go to
    adjuncts.  The swaps leave the image of every class as it was, and the
    lift reads phi only through those images, so it returns the same map
    with or without them.  It agrees with the swapped map on the adjunct
    elements below the top: both send the bottom of a class to the bottom
    of its image.

    phi itself is checked only for its vertex sets; the lifted map is then
    checked by `check_lattice_iso`, which is the whole check by this lemma.
    With join-reducible tops and phi a bijection from V(g1) onto V(g2), the
    lift psi is an order isomorphism iff phi is a graph isomorphism.  (<=)
    is the paper's theorem.  (=>) An order isomorphism keeps the bottom and
    meets, so psi restricted to the vertices, which are all elements but
    the extremes, is a graph isomorphism g1 -> g2.  psi maps each class C
    onto phi(C), so phi = psi . pi with pi permuting vertices within
    classes only; class-mates have equal neighborhoods, so pi is an
    automorphism of g1 and phi a graph isomorphism.
    """
    _require_top_adjunct(l1, "first")
    _require_top_adjunct(l2, "second")
    if set(phi) != set(g1.vertices) or set(phi.values()) != set(g2.vertices):
        raise InternalInconsistency("phi does not map the vertices of the first graph onto those of the second")

    psi = {l1.bottom_label: l2.bottom_label, l1.top_label: l2.top_label}
    for block in neighborhood_partition(g1):
        chain1 = sorted(block, key=lambda v: l1._down[l1.index(v)].bit_count())
        chain2 = sorted((phi[v] for v in block), key=lambda v: l2._down[l2.index(v)].bit_count())
        psi.update(zip(chain1, chain2))
    if not check_lattice_iso(l1, l2, psi):
        raise InternalInconsistency("lifted map is not an order isomorphism")
    return psi


def tree_match_iso(l1: Lattice, l2: Lattice, order1: Sequence[str], order2: Sequence[str]) -> dict[str, str]:
    """The lattice isomorphism read off the trees of two lower dismantlable
    lattices with equal canonical codes: bottom to bottom, and the canonical
    preorders `order1` and `order2` of their `tree_of_lattice` trees (from
    `_canonical`) zipped node by node.  It needs no hypothesis on the tops:
    a lattice is its tree with a bottom adjoined under the leaves."""
    psi = {l1.bottom_label: l2.bottom_label, **dict(zip(order1, order2))}
    if not check_lattice_iso(l1, l2, psi):
        raise InternalInconsistency("matched trees do not give an order isomorphism")
    return psi
