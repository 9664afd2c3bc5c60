"""Basic-block reduction, section semi-complementation, neighborhood
equivalence classes, and branch peeling of lower dismantlable lattices."""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .errors import HypothesisViolated, NotLowerDismantlable
from .lattice import (
    Lattice, _bits, _cover_masks, adjunct_elements, build_from_covers, is_lower_dismantlable, top_join_reducible
)
from .treeiso import RootedTree, _peel
from .zdg import LabeledGraph, neighborhood_partition


# -- structural deletion -------------------------------------------------------


def _deletable(lat: Lattice, uppers: list[int], lowers: list[int], survivors: int) -> list[int]:
    """The structurally deletable elements, by index, of the sublattice that
    `lat` induces on the mask `survivors` (which holds the extremes of
    `lat`), given its cover masks: x with unique covers u < x < v where no
    other upper cover of u lies below v, one mask test.  The extremes are
    left out."""
    out = []
    for x in _bits(survivors & ~(1 << lat.bottom | 1 << lat.top)):
        lo, up = lowers[x], uppers[x]
        if lo & lo - 1 or up & up - 1:  # more than one lower or upper cover
            continue
        if uppers[lo.bit_length() - 1] & ~(1 << x) & lat._down[up.bit_length() - 1] == 0:
            out.append(x)
    return out


def _delete(uppers: list[int], lowers: list[int], x: int) -> None:
    """Delete the deletable x, with unique covers u < x < v, in place: the
    covers (u, x) and (x, v) become (u, v).  No other cover changes, since x
    was the only survivor strictly between u and v."""
    u, v = lowers[x].bit_length() - 1, uppers[x].bit_length() - 1
    uppers[u] = uppers[u] & ~(1 << x) | 1 << v
    lowers[v] = lowers[v] & ~(1 << x) | 1 << u


def basic_block(lat: Lattice) -> Lattice:
    """Fixed point of repeatedly deleting structurally deletable elements.

    The extremes are never deleted (so chains stop at the 2-element lattice);
    deletion order is smallest-label-first, so of the fixed points that
    `fixed_point_form` describes this keeps the largest label of each
    leaf-ending class.  Each deletion updates two cover masks, and
    the block is built once, from the survivors and their covers; it is `lat`
    itself when nothing is deletable.

    Deleting x, with covers u < x < v, changes the covers of u and v only, so
    only u, v and the other upper covers y of u can change deletability.  A
    y cannot: its test asks whether an upper cover of u other than y lies
    below the upper cover w of y, and w is above x only if it is above v,
    the one upper cover of x, so swapping x for v among the upper covers of
    u keeps the answer.  So u and v are tested again; the deletable elements
    wait in a list sorted by label, and an entry of one that is no longer
    deletable is skipped when it comes up.
    """
    labels = lat.labels
    uppers, lowers = _cover_masks(lat)
    full = survivors = (1 << lat.n) - 1
    deletable = set(_deletable(lat, uppers, lowers, survivors))
    queue = sorted((labels[x], x) for x in deletable)
    while queue:
        x = queue.pop(0)[1]
        if x not in deletable:
            continue
        u, v = lowers[x].bit_length() - 1, uppers[x].bit_length() - 1
        _delete(uppers, lowers, x)
        survivors &= ~(1 << x)
        deletable -= {x, u, v}
        for y in _deletable(lat, uppers, lowers, 1 << u | 1 << v):
            deletable.add(y)
            insort(queue, (labels[y], y))
    if survivors == full:
        return lat
    return build_from_covers(
        [labels[x] for x in _bits(survivors)],
        [(labels[u], labels[v]) for u in _bits(survivors) for v in _bits(uppers[u])],
    )


# -- section semi-complementation ------------------------------------------------


def is_ssc(lat: Lattice) -> bool:
    """Whether the lower dismantlable `lat` is section semi-complemented: for
    every a not below b, some nonzero c <= a has b meet c = bottom.

    *Lemma:* iff every nonzero element with one lower cover is an atom (no
    tree node has one child).  *Proof:* nonzero x, y meet in the bottom iff
    incomparable (`lemma400`), so c = a works unless 0 < b < a.  Then all of
    a's subtree is comparable with b iff each node from a down to b's parent
    has one child: a node v with one child b fails at (v, b), and with no
    such node a witness exists.  NotLowerDismantlable outside the class."""
    if not is_lower_dismantlable(lat):
        raise NotLowerDismantlable("only lower dismantlable lattices correspond to rooted trees")
    return all(len(low) != 1 or low[0] == lat.bottom for low in lat._lowers)


def ssc_equivalence_report(lat: Lattice, block: Lattice, graph: LabeledGraph) -> dict:
    """Three independent computations whose agreement is the three-way
    equivalence theorem; agreement is asserted by tests, not here.

    Requires a lower dismantlable lattice whose top is join-reducible.
    `block` is the basic block of `lat` and `graph` its zero-divisor graph.
    """
    if not is_lower_dismantlable(lat):
        raise HypothesisViolated("not lower dismantlable")
    if not top_join_reducible(lat):
        raise HypothesisViolated("top is join-irreducible")
    return {
        "basic_block_is_self": block == lat,
        "ssc": is_ssc(lat),
        "all_classes_singleton": all(len(b) == 1 for b in neighborhood_partition(graph)),
    }


# -- neighborhood classes ----------------------------------------------------------


def _class(members: Sequence[str], adjunct: str | None) -> dict:
    """The class document `analyze` prints: the members, and the adjunct
    element among them, if any."""
    return {"members": list(members), "has_adjunct": adjunct is not None, "adjunct_member": adjunct}


def annotate_classes(lat: Lattice, graph: LabeledGraph) -> list[dict]:
    """Neighborhood classes of `graph` as class documents: each class's
    sorted members, and its smallest adjunct element of `lat`, if any."""
    adjuncts = adjunct_elements(lat)
    return [_class(block, min(adjuncts.intersection(block), default=None)) for block in neighborhood_partition(graph)]


# -- branch peeling -------------------------------------------------------------


def peel_order(tree: RootedTree) -> list[dict]:
    """Equivalence classes of the non-ancestor graph via branch peeling, in
    peel order, as class documents with sorted members.

    Round by round: every branching node none of whose proper descendants
    branches sheds each of its pendant-path branches as one class; when no
    branching node remains, each residual leg below the root is one class.
    A class holds an adjunct element, its lowest node, exactly when that
    node branches.  `treeiso._peel` gives each class's round.
    """
    has_children = {lab for lab, kids in zip(tree.labels, tree._children) if kids}
    return [_class(sorted(path), path[-1] if path[-1] in has_children else None) for _, path in _peel(tree)]


def fixed_point_form(tree: RootedTree) -> tuple[list[str], list[list[str]]]:
    """The fixed points of deletion on the lattice of `tree`, in closed form
    (README, "Basic blocks and peeling"): each keeps the extremes, the
    branching nodes `kept`, and any one member of each of `leaf_classes`,
    the leaf-ending classes of the branch peel.  A tree with at most one
    class is a path, whose lattice keeps only its extremes."""
    classes = peel_order(tree)
    if len(classes) <= 1:
        return [], []
    kept = [c["adjunct_member"] for c in classes if c["has_adjunct"]]
    return kept, [c["members"] for c in classes if not c["has_adjunct"]]
