"""Basic-block reduction, section semi-complementation, neighborhood
equivalence classes, and the peel decomposition of lower dismantlable
lattices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection

from .errors import ClassHasAdjunct, HypothesisViolated, InternalInconsistency, NotLowerDismantlable
from .lattice import Lattice, _induced_covers, _peel, adjunct, chain_lattice, classify, induced_sublattice
from .lattice import is_lower_dismantlable
from .zdg import LabeledGraph, neighborhood_partition, zero_divisor_graph

if TYPE_CHECKING:
    from .treeiso import RootedTree


@dataclass(frozen=True)
class VertexClass:
    """One neighborhood-equivalence class; flags are None until computed."""

    members: tuple[str, ...]
    has_adjunct: bool | None = None
    adjunct_member: str | None = None


@dataclass(frozen=True)
class ClassPartition:
    """Partition of graph vertices into neighborhood classes.

    ``peel_order`` lists class indices in deletion order when produced by the
    branch-peeling construction; ``peel_rounds`` gives each class's deletion
    round (parallel to ``classes``).
    """

    classes: tuple[VertexClass, ...]
    peel_order: tuple[int, ...] | None = None
    peel_rounds: tuple[int, ...] | None = None

    def member_sets(self) -> set[frozenset[str]]:
        return {frozenset(c.members) for c in self.classes}

    def to_json_obj(self) -> dict:
        obj: dict = {
            "classes": [
                {
                    "members": list(c.members),
                    "has_adjunct": c.has_adjunct,
                    "adjunct_member": c.adjunct_member,
                }
                for c in self.classes
            ]
        }
        obj["peel_order"] = list(self.peel_order) if self.peel_order is not None else None
        return obj


# -- structural deletion -------------------------------------------------------


def _interior_deletable(lat: Lattice, survivors: Collection[str]) -> list[str]:
    """The structurally deletable elements, in label order, of the sublattice
    that `lat` induces on `survivors` (which hold the extremes of `lat`): x
    with unique covers u < x < v where no other upper cover of u lies below v,
    one mask test.  The extremes are left out."""
    index = lat._index
    uppers = {x: 0 for x in survivors}  # mask of the induced upper covers
    lowers: dict[str, list[str]] = {x: [] for x in survivors}
    for u, v in _induced_covers(lat, survivors):
        uppers[u] |= 1 << index[v]
        lowers[v].append(u)
    out = []
    for x in survivors:
        if x in (lat.bottom_label, lat.top_label) or len(lowers[x]) != 1 or uppers[x].bit_count() != 1:
            continue
        v = uppers[x].bit_length() - 1
        if uppers[lowers[x][0]] & ~(1 << index[x]) & lat._down[v] == 0:
            out.append(x)
    return sorted(out)


def is_structurally_deletable(lat: Lattice, x: str) -> bool:
    """True when removing x drops the cover-graph edge count by exactly one:
    either x is the top with a unique lower cover, or x has unique covers
    u < x < v with nothing else strictly between u and v."""
    lat.index(x)
    if x == lat.top_label:
        return lat.n >= 3 and len(lat.lower_covers(x)) == 1
    return x in _interior_deletable(lat, lat.labels)


def basic_block(lat: Lattice) -> Lattice:
    """Fixed point of repeatedly deleting structurally deletable elements.

    The extremes are never deleted (so chains stop at the 2-element lattice);
    deletion order is smallest-label-first, and order independence is a tested
    conjecture, not an assumption.  The block is built once, from the
    survivors; it is `lat` itself when nothing is deletable.
    """
    if lat.n < 2:
        raise HypothesisViolated("basic block needs at least 2 elements")
    survivors = set(lat.labels)
    while deletable := _interior_deletable(lat, survivors):
        survivors.remove(deletable[0])
    return lat if len(survivors) == lat.n else induced_sublattice(lat, survivors)


def explore_deletion_orders(lat: Lattice) -> set[frozenset[str]]:
    """All fixed points reachable by any deletion order, as label sets.

    Exhaustive over orders with memoization on the surviving label set; used
    to test the confluence conjecture.
    """
    memo: dict[frozenset[str], set[frozenset[str]]] = {}

    def reach(state: frozenset[str]) -> set[frozenset[str]]:
        if state not in memo:
            successors = (state - {x} for x in _interior_deletable(lat, state))
            memo[state] = set().union(*map(reach, successors)) or {state}
        return memo[state]

    return reach(frozenset(lat.labels))


# -- section semi-complementation ------------------------------------------------


def is_ssc(lat: Lattice) -> bool:
    """Definition-true check: for every a not below b there must be a nonzero
    c <= a with b meet c = bottom.

    With Z(b) the mask of the nonzero c whose down-sets meet that of b only
    in the bottom, the witness c exists exactly when down(a) & Z(b) != 0."""
    zero = 1 << lat.bottom
    down, up = lat._down, lat._up
    for b, down_b in enumerate(down):
        z = sum(1 << c for c, down_c in enumerate(down) if down_b & down_c == zero) & ~zero
        if any(down_a & z == 0 and not up[a] >> b & 1 for a, down_a in enumerate(down)):
            return False
    return True


def ssc_equivalence_report(lat: Lattice, block: Lattice, graph: LabeledGraph) -> dict:
    """Three independent computations whose agreement is the three-way
    equivalence theorem; agreement is asserted by tests, not here.

    Requires a lower dismantlable lattice whose top is join-reducible.
    `block` is the basic block of `lat` and `graph` its zero-divisor graph.
    """
    if not is_lower_dismantlable(lat):
        raise HypothesisViolated("not lower dismantlable")
    if len(lat.lower_covers(lat.top_label)) < 2:
        raise HypothesisViolated("top is join-irreducible")
    return {
        "basic_block_is_self": block == lat,
        "ssc": is_ssc(lat),
        "all_classes_singleton": all(len(b) == 1 for b in neighborhood_partition(graph)),
    }


# -- neighborhood classes ----------------------------------------------------------


def neighborhood_classes(graph: LabeledGraph) -> ClassPartition:
    """Group vertices by exact open-neighborhood equality; flags unset."""
    blocks = neighborhood_partition(graph)
    return ClassPartition(classes=tuple(VertexClass(members=b) for b in blocks))


def class_has_adjunct(graph: LabeledGraph, x: str) -> bool:
    """Graph-side adjunct-content test: is there an adjacent pair y, z with x
    adjacent to neither?  For zero-divisor graphs of lower dismantlable
    lattices this detects an adjunct element in [x]."""
    nbrs = graph.neighbors(x)
    for y, z in graph.edges:
        if y != x and z != x and y not in nbrs and z not in nbrs:
            return True
    return False


def annotate_classes(lat: Lattice, graph: LabeledGraph) -> ClassPartition:
    """Neighborhood classes of `graph` with lattice-side adjunct flags."""
    adjuncts = classify(lat).adjunct_elements
    out = []
    for block in neighborhood_partition(graph):
        inside = sorted(set(block) & adjuncts)
        out.append(
            VertexClass(
                members=block,
                has_adjunct=bool(inside),
                adjunct_member=inside[0] if inside else None,
            )
        )
    return ClassPartition(classes=tuple(out))


# -- branch peeling -------------------------------------------------------------


def peel_order(tree: "RootedTree") -> ClassPartition:
    """Equivalence classes of the non-ancestor graph via branch peeling.

    Round by round: every branching node none of whose proper descendants
    branches sheds each of its pendant-path branches as one class; when no
    branching node remains, each residual leg below the root is one class.
    A class holds an adjunct element exactly when its lowest node branches.
    """
    parent = tree.parent_map()
    has_children = set(parent.values())
    peeled = _peel(parent)
    classes = tuple(
        VertexClass(
            members=tuple(sorted(path)),
            has_adjunct=path[-1] in has_children,
            adjunct_member=path[-1] if path[-1] in has_children else None,
        )
        for _, path in peeled
    )
    return ClassPartition(
        classes=classes,
        peel_order=tuple(range(len(classes))),
        peel_rounds=tuple(round_no for round_no, _ in peeled),
    )


@dataclass(frozen=True)
class PeelStep:
    """One peel: the input lattice equals sublattice ]_(0,hinge) chain."""

    sublattice: Lattice
    hinge: str
    chain: tuple[str, ...]


def peel_decomposition(lat: Lattice, x: str) -> PeelStep:
    """Split off the neighborhood class of x as a pendant chain.

    The class of x must contain no adjunct element.  The hinge is the top when
    no adjunct element is comparable to x, else the least such; the set of
    those elements is a chain, which is asserted at runtime.
    """
    if not is_lower_dismantlable(lat):
        raise NotLowerDismantlable("peeling needs a lower dismantlable lattice")
    graph = zero_divisor_graph(lat)
    nx = graph.neighbors(x)  # raises NoSuchElement for non-vertices
    if class_has_adjunct(graph, x):
        raise ClassHasAdjunct(f"the class of {x!r} contains an adjunct element")

    members = sorted((v for v in graph.vertices if graph.neighbors(v) == nx), key=lambda v: len(lat.down_set(v)))
    # Adjunct elements not adjacent to x; ones outside the graph are
    # comparable to everything (join-irreducible-top lattices) and count
    # vacuously, or the class would reattach at the wrong height.
    vertex_set = set(graph.vertices)
    ax = [
        b
        for b in classify(lat).adjunct_elements
        if b != x and (b not in vertex_set or b not in nx)
    ]
    for i, b1 in enumerate(ax):
        for b2 in ax[i + 1 :]:
            if lat.incomparable(b1, b2):
                raise InternalInconsistency(f"non-adjacent adjunct elements {b1!r}, {b2!r} are incomparable")
    if ax:
        hinge = min(ax, key=lambda b: len(lat.down_set(b)))
    else:
        hinge = lat.top_label
    rest = [lab for lab in lat.labels if lab not in set(members)]
    return PeelStep(sublattice=induced_sublattice(lat, rest), hinge=hinge, chain=tuple(members))


def reassemble(step: PeelStep) -> Lattice:
    """Inverse of peel_decomposition: glue the chain back at (bottom, hinge)."""
    return adjunct(step.sublattice, chain_lattice(step.chain), step.sublattice.bottom_label, step.hinge)
