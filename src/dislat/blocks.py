"""Basic-block reduction, section semi-complementation, neighborhood
equivalence classes, and branch peeling of lower dismantlable lattices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection

from .errors import HypothesisViolated
from .lattice import Lattice, _induced_covers, _peel, classify, induced_sublattice, is_lower_dismantlable
from .zdg import LabeledGraph, neighborhood_partition

if TYPE_CHECKING:
    from .treeiso import RootedTree


@dataclass(frozen=True)
class VertexClass:
    """One neighborhood-equivalence class and the adjunct element it holds,
    if any."""

    members: tuple[str, ...]
    has_adjunct: bool
    adjunct_member: str | None


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
