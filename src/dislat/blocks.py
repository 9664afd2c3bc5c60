"""Basic-block reduction, section semi-complementation, neighborhood
equivalence classes, and the peel decomposition of lower dismantlable
lattices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ClassHasAdjunct, HypothesisViolated, InternalInconsistency, NotLowerDismantlable
from .lattice import Lattice, _peel, adjunct, chain_lattice, classify, induced_sublattice, is_lower_dismantlable
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


def is_structurally_deletable(lat: Lattice, x: str) -> bool:
    """True when removing x drops the cover-graph edge count by exactly one:
    either x is the top with a unique lower cover, or x has unique covers
    u < x < v with nothing else strictly between u and v."""
    lat.index(x)
    if lat.n < 3 or x == lat.bottom_label:
        return False
    lowers = lat.lower_covers(x)
    if x == lat.top_label:
        return len(lowers) == 1
    uppers = lat.upper_covers(x)
    if len(lowers) != 1 or len(uppers) != 1:
        return False
    return lat.open_interval(lowers[0], uppers[0]) == (x,)


def delete_element(lat: Lattice, x: str) -> Lattice:
    """The induced sublattice on everything but x."""
    return induced_sublattice(lat, (lab for lab in lat.labels if lab != x))


def _interior_deletable(lat: Lattice, x: str) -> bool:
    return x != lat.top_label and is_structurally_deletable(lat, x)


def basic_block(lat: Lattice) -> Lattice:
    """Fixed point of repeatedly deleting structurally deletable elements.

    The extremes are never deleted (so chains stop at the 2-element lattice);
    deletion order is smallest-label-first, and order independence is a tested
    conjecture, not an assumption.
    """
    if lat.n < 2:
        raise HypothesisViolated("basic block needs at least 2 elements")
    current = lat
    while current.n > 2:
        deletable = sorted(x for x in current.labels if _interior_deletable(current, x))
        if not deletable:
            break
        current = delete_element(current, deletable[0])
    return current


def explore_deletion_orders(lat: Lattice) -> set[frozenset[str]]:
    """All fixed points reachable by any deletion order, as label sets.

    Exhaustive over orders with memoization on the surviving label set; used
    to test the confluence conjecture.
    """
    memo: dict[frozenset[str], set[frozenset[str]]] = {}

    def reach(state: frozenset[str]) -> set[frozenset[str]]:
        if state in memo:
            return memo[state]
        sub = induced_sublattice(lat, state)
        deletable = [x for x in sub.labels if _interior_deletable(sub, x)] if sub.n > 2 else []
        if not deletable:
            result = {state}
        else:
            result = set()
            for x in deletable:
                result |= reach(state - {x})
        memo[state] = result
        return result

    return reach(frozenset(lat.labels))


# -- section semi-complementation ------------------------------------------------


def is_ssc(lat: Lattice) -> bool:
    """Definition-true check: for every a not below b there must be a nonzero
    c <= a with b meet c = bottom."""
    bottom = lat.bottom_label
    for a in lat.labels:
        for b in lat.labels:
            if lat.leq(a, b):
                continue
            if not any(
                c != bottom and lat.leq(c, a) and lat.meet(b, c) == bottom
                for c in lat.labels
            ):
                return False
    return True


def ssc_equivalence_report(lat: Lattice, block: Lattice | None = None) -> dict:
    """Three independent computations whose agreement is the three-way
    equivalence theorem; agreement is asserted by tests, not here.

    Requires a lower dismantlable lattice whose top is join-reducible.
    `block` is the basic block of `lat` when the caller already has it.
    """
    if not is_lower_dismantlable(lat):
        raise HypothesisViolated("not lower dismantlable")
    if len(lat.lower_covers(lat.top_label)) < 2:
        raise HypothesisViolated("top is join-irreducible")
    if block is None:
        block = basic_block(lat)
    graph = zero_divisor_graph(lat)
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
