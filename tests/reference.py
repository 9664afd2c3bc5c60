"""Step-by-step constructions that the tests check the package against.

The package builds each lattice once and lifts an isomorphism in one pass;
the paper proceeds one step at a time.  These are those steps, kept as
independent references:

- `reference_parse`: the `.adl` reader that walks the text one character
  at a time into position-carrying token objects;
- `chain_lattice` and `adjunct`: the adjunct operation, one validated
  lattice per step, and `reference_elaborate`, the fold of an `.adl`
  expression through them;
- `reference_lattice_of_tree` and `reference_relabel`: the lattice of a
  tree and a renamed lattice, each validated by `build_from_covers`, next
  to the package's O(n) fills of the index arrays; `lattice_arrays` lists
  those arrays, so that two builds can be compared field by field;
- `peel_decomposition` and `reassemble`: part I's decomposition
  L = L1 ](0,a) C, which splits off one neighborhood class as a pendant chain,
  on `induced_sublattice`, the restriction to a subset with the induced order;
- `align_adjuncts`: the paper's alignment lemma, which swaps images of
  class-mates until an isomorphism of zero-divisor graphs maps adjunct
  elements (`adjunct_vertices`) to adjunct elements;
- `reference_lift`: the recursive lift of an adjunct-preserving isomorphism
  of zero-divisor graphs, peeling one class from both lattices per level;
- `check_graph_iso`: whether a map is an isomorphism of zero-divisor
  graphs, by renumbering the neighbour masks of one graph digit by digit
  (`_select_bits`); the package checks only the lifted lattice map, which
  by the lemma of `lift_to_lattice_iso` fails exactly when this does;
- `brute_graph_iso_all` and `brute_graph_iso`: the backtracking
  graph-isomorphism search;
- `brute_lattice_iso_all`: the backtracking lattice-isomorphism search on
  labels, through the label-level readers below;
- `SetGraph` and `edge_walking_recognize`: the graph as sets of neighbour
  labels, and recognition that ranks by degree and reads the edge list,
  next to the package's neighbour masks.  `LabeledGraph` has no per-label
  readers, so `SetGraph(g.vertices, g.edges)` is also how every test and
  every reference here reads a graph by label: neighbours, degree,
  adjacency and induced subgraphs;
- `rescan_basic_block`: the basic block found by testing every survivor
  again after each deletion, and `explore_deletion_orders`: every fixed
  point that some deletion order reaches, by exhaustive search, next to
  the package's closed form of them (`fixed_point_form`);
- `definition_is_ssc`: section semi-complementation checked on the
  definition, with Θ(n²) operations on down-set masks, for any lattice,
  next to the package's test of the lower covers in the class;
- `lt`, `comparable`, `covered_by`, `upper_covers`, `lower_covers` and
  `down_set`: a lattice read by label, over `cover_pairs()` and `leq`
  only, so they stay independent of the index arrays the package reads;
  `children`, `leaves` and `member_sets`: a tree and a tuple of classes
  read by label;
- `label_is_lower_dismantlable`, `label_classify`, `label_tree_of_lattice`
  and `down_set_lift`: the class test, the adjunct elements, the tree and
  the one-pass lift read through those label-level readers and
  `RootedTree.from_parents`, next to the package's readers of the index
  lists; and `relabeled_tree`, a tree with its labels replaced;
- `reference_peel`: the branch peel over a label -> label parent dict,
  which rebuilds the child lists and a breadth-first order from it, next
  to the package's peel over the tree's index arrays;
- `adjunct_pair_multiset`, `preorder_intervals` and `is_ancestor`: the
  adjunct pairs of a lattice, and the preorder intervals of a tree with
  the ancestor test they give, which only the tests read;
- `parent_map`, `non_ancestor_graph`, `is_structurally_deletable` and
  `enumerate_lower_dismantlable`: readers that no command calls, kept for
  the tests: a tree as a label -> label dict, the tree-side oracle for
  zero-divisor graphs, the deletability test of one element, and the
  lattice of every enumerated tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from dislat import (
    Adjunction,
    AdjunctExpr,
    DislatError,
    Lattice,
    adjunct_elements,
    build_from_covers,
    is_lower_dismantlable,
)
from dislat.blocks import _deletable, _delete
from dislat.errors import (
    BadGraph,
    BudgetExceeded,
    DslSyntaxError,
    DuplicateElement,
    InternalInconsistency,
    LabelClash,
    NoSuchElement,
    NotLowerDismantlable,
    PairNotAdjunctable,
    UnknownElement,
)
from dislat.lattice import _bits, _cover_masks
from dislat.oracle import DEFAULT_BUDGET, enumerate_rooted_trees
from dislat.treeiso import FRESH_ROOT, RootedTree, _require_top_adjunct, lattice_of_tree
from dislat.zdg import LabeledGraph, complement_clique_parts, neighborhood_partition, zero_divisor_graph


class ClassHasAdjunct(DislatError):
    """The neighborhood class contains an adjunct element and cannot be peeled."""


# -- the character-by-character parser ----------------------------------------------

_KEYWORDS = {"lattice", "chain", "adjoin"}
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT ZERO LBRACE RBRACE LPAREN RPAREN COMMA COLON SEMI EOF
    text: str
    line: int
    col: int


_PUNCT = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON", ";": "SEMI"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "⊤":
            tokens.append(_Token("IDENT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            word = text[start:i]
            tokens.append(_Token("IDENT", word, line, col))
            col += i - start
            continue
        if ch == "0" and not (i + 1 < n and text[i + 1] in _IDENT_CONT):
            tokens.append(_Token("ZERO", "0", line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def ends_base(self) -> bool:
        """Whether the token after the next one is no element, so that the
        next one is the last of the chain statement."""
        after = self.tokens[self.pos + 1 : self.pos + 2]  # empty when the next one is the end
        return not after or after[0].kind not in ("IDENT", "ZERO")

    def keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text != word:
            raise DslSyntaxError(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def element(self, defined: dict[str, _Token], declare: bool, allow_zero: bool, last_of_base: bool = False) -> str:
        tok = self.next()
        if tok.kind == "ZERO":
            if not allow_zero:
                raise DslSyntaxError("'0' is only allowed as the bottom of the chain or first in a pair", tok.line, tok.col)
            name = "0"
        elif tok.kind == "IDENT" and tok.text == "⊤" and declare and not last_of_base:
            raise DslSyntaxError(
                "'⊤' names the top and is only allowed last in the chain statement", tok.line, tok.col
            )
        elif tok.kind == "IDENT":
            if tok.text in _KEYWORDS:
                raise DslSyntaxError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
            name = tok.text
        else:
            raise DslSyntaxError(f"expected an element name, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        if declare:
            if name in defined:
                raise DuplicateElement(f"element {name!r} already defined", tok.line, tok.col)
            defined[name] = tok
        else:
            if name not in defined:
                raise UnknownElement(f"unknown element {name!r} in pair", tok.line, tok.col)
        return name

    def document(self) -> AdjunctExpr:
        self.keyword("lattice")
        name_tok = self.expect("IDENT", "a lattice name")
        if name_tok.text in _KEYWORDS:
            raise DslSyntaxError(f"{name_tok.text!r} is a reserved word", name_tok.line, name_tok.col)
        self.expect("LBRACE", "'{'")

        defined: dict[str, _Token] = {}
        self.keyword("chain")
        base = [self.element(defined, declare=True, allow_zero=True, last_of_base=self.ends_base())]
        while self.peek().kind in ("IDENT", "ZERO"):
            base.append(self.element(defined, declare=True, allow_zero=False, last_of_base=self.ends_base()))
        self.expect("SEMI", "';'")

        adjunctions: list[Adjunction] = []
        while self.peek().kind == "IDENT" and self.peek().text == "adjoin":
            self.next()
            self.expect("LPAREN", "'('")
            a = self.element(defined, declare=False, allow_zero=True)
            self.expect("COMMA", "','")
            b = self.element(defined, declare=False, allow_zero=False)
            self.expect("RPAREN", "')'")
            self.expect("COLON", "':'")
            chain = [self.element(defined, declare=True, allow_zero=False)]
            while self.peek().kind in ("IDENT", "ZERO"):
                chain.append(self.element(defined, declare=True, allow_zero=False))
            self.expect("SEMI", "';'")
            adjunctions.append(Adjunction(pair=(a, b), chain=tuple(chain)))

        self.expect("RBRACE", "'}'")
        self.expect("EOF", "end of input")
        return AdjunctExpr(base=tuple(base), adjunctions=tuple(adjunctions), name=name_tok.text)


def reference_parse(text: str) -> AdjunctExpr:
    """Parse ``.adl`` source as `dislat.parse` does: same expression, or the
    same exception with the same message, line and column."""
    return _Parser(text).document()


# -- the adjunct operation -----------------------------------------------------


def chain_lattice(labels: Sequence[str]) -> Lattice:
    """The chain whose elements are `labels` listed bottom-to-top."""
    labels = tuple(labels)
    return build_from_covers(labels, zip(labels, labels[1:]))


def adjunct(l1: Lattice, l2: Lattice, a: str, b: str) -> Lattice:
    """Glue `l2` into the open interval between a < b of `l1`.

    Requires a < b with a not covered by b, and disjoint label sets.  The
    result has covers(l1) + covers(l2) plus a < bottom(l2) and top(l2) < b.
    """
    if not lt(l1, a, b):
        raise PairNotAdjunctable(f"need {a!r} < {b!r} in the host lattice")
    if covered_by(l1, a, b):
        raise PairNotAdjunctable(f"{a!r} is covered by {b!r}; the interval is empty")
    clash = set(l1.labels) & set(l2.labels)
    if clash:
        raise LabelClash(f"labels occur on both sides: {sorted(clash)}")
    labels = l1.labels + l2.labels
    covers = list(l1.cover_pairs()) + list(l2.cover_pairs())
    covers.append((a, l2.bottom_label))
    covers.append((l2.top_label, b))
    return build_from_covers(labels, covers)


def reference_elaborate(expr):
    """The per-step fold: one chain lattice and one adjunct per adjoin."""
    lat = chain_lattice(expr.base)
    for adj in expr.adjunctions:
        a, b = adj.pair
        if a not in lat.labels or b not in lat.labels:
            missing = a if a not in lat.labels else b
            raise PairNotAdjunctable(f"pair references element {missing!r} not yet introduced")
        lat = adjunct(lat, chain_lattice(adj.chain), a, b)
    return lat


def reference_lattice_of_tree(tree: RootedTree) -> Lattice:
    """`lattice_of_tree` through `build_from_covers`: the tree's edges, and
    the bottom ``0`` under every node that is no node's parent."""
    if "0" in tree.labels:
        raise LabelClash("bottom label '0' already names a tree node")
    labels, root = tree.labels, tree.root
    covers = [(labels[i], labels[p]) for i, p in enumerate(tree.parent) if i != root]
    parents = {p for i, p in enumerate(tree.parent) if i != root}
    covers.extend(("0", labels[i]) for i in range(tree.n) if i not in parents)
    return build_from_covers(("0", *labels), covers)


def reference_relabel(lat: Lattice, mapping: Mapping[str, str]) -> Lattice:
    """`relabel` through `build_from_covers`: the renamed covers, validated
    again."""
    labels = [mapping[lab] for lab in lat.labels]
    return build_from_covers(labels, [(mapping[a], mapping[b]) for a, b in lat.cover_pairs()])


def lattice_arrays(lat: Lattice) -> tuple:
    """Everything the package reads of a lattice, in its index order."""
    return (lat.labels, lat._up, lat._down, lat._uppers, lat._lowers, lat.bottom, lat.top)


# -- neighborhood classes and the peel ---------------------------------------------


def neighborhood_classes(graph: LabeledGraph) -> set[frozenset[str]]:
    """The classes of equal open neighborhoods, found by comparing every
    pair of vertices."""
    graph = SetGraph(graph.vertices, graph.edges)
    return {frozenset(w for w in graph.vertices if graph.neighbors(w) == graph.neighbors(v)) for v in graph.vertices}


def class_has_adjunct(graph: LabeledGraph, x: str) -> bool:
    """Graph-side adjunct-content test: is there an adjacent pair y, z with x
    adjacent to neither?  For zero-divisor graphs of lower dismantlable
    lattices this detects an adjunct element in [x]."""
    nbrs = SetGraph(graph.vertices, graph.edges).neighbors(x)
    for y, z in graph.edges:
        if y != x and z != x and y not in nbrs and z not in nbrs:
            return True
    return False


def induced_sublattice(lat: Lattice, keep: Iterable[str]) -> Lattice:
    """Restrict to `keep` with the induced order; covers are re-derived.

    Raises NotALattice when the restriction is not a lattice.
    """
    keep_set = set(keep)
    return build_from_covers([lab for lab in lat.labels if lab in keep_set], _induced_covers(lat, keep_set))


def _induced_covers(lat: Lattice, keep: Iterable[str]) -> list[tuple[str, str]]:
    """Cover pairs (u, v) of the order `lat` induces on `keep`: v is a minimal
    element of what `keep` holds strictly above u.  O(|keep|^2) mask
    operations; raises NoSuchElement for a label not in `lat`."""
    mask = 0
    for x in keep:
        mask |= 1 << lat.index(x)
    out = []
    for u in _bits(mask):
        above = lat._up[u] & mask & ~(1 << u)
        for v in _bits(above):
            if above & lat._down[v] == 1 << v:
                out.append((lat.labels[u], lat.labels[v]))
    return out


def _by_height(lat: Lattice, labels: Iterable[str]) -> list[str]:
    return sorted(labels, key=lambda v: len(down_set(lat, v)))


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
    zg = zero_divisor_graph(lat)
    graph = SetGraph(zg.vertices, zg.edges)
    nx = graph.neighbors(x)  # raises NoSuchElement for non-vertices
    if class_has_adjunct(graph, x):
        raise ClassHasAdjunct(f"the class of {x!r} contains an adjunct element")

    members = _by_height(lat, (v for v in graph.vertices if graph.neighbors(v) == nx))
    # Adjunct elements not adjacent to x; ones outside the graph are
    # comparable to everything (join-irreducible-top lattices) and count
    # vacuously, or the class would reattach at the wrong height.
    vertex_set = set(graph.vertices)
    ax = [
        b
        for b in adjunct_elements(lat)
        if b != x and (b not in vertex_set or b not in nx)
    ]
    for i, b1 in enumerate(ax):
        for b2 in ax[i + 1 :]:
            if not comparable(lat, b1, b2):
                raise InternalInconsistency(f"non-adjacent adjunct elements {b1!r}, {b2!r} are incomparable")
    hinge = _by_height(lat, ax)[0] if ax else lat.top_label
    rest = [lab for lab in lat.labels if lab not in set(members)]
    return PeelStep(sublattice=induced_sublattice(lat, rest), hinge=hinge, chain=tuple(members))


def reassemble(step: PeelStep) -> Lattice:
    """Inverse of peel_decomposition: glue the chain back at (bottom, hinge)."""
    return adjunct(step.sublattice, chain_lattice(step.chain), step.sublattice.bottom_label, step.hinge)


# -- the alignment lemma -----------------------------------------------------------


def adjunct_vertices(lat: Lattice, graph: LabeledGraph) -> set[str]:
    """The vertices of `graph` with at least two lower covers in `lat`."""
    return {lat.labels[i] for i, low in enumerate(lat._lowers) if len(low) >= 2} & set(graph.vertices)


def align_adjuncts(
    l1: Lattice, l2: Lattice, g1: LabeledGraph, g2: LabeledGraph, f: Mapping[str, str]
) -> dict[str, str]:
    """Turn an isomorphism f from the zero-divisor graph g1 of l1 to the
    zero-divisor graph g2 of l2 into one that maps adjunct elements to
    adjunct elements, by swapping images of class-mates.

    The count of misaligned adjunct elements drops by one per swap; class
    structure is untouched (the result maps every class exactly as f does).
    """
    _require_top_adjunct(l1, "first")
    _require_top_adjunct(l2, "second")
    phi = dict(f)
    if not check_graph_iso(g1, g2, phi):
        raise InternalInconsistency("f is not an isomorphism of the zero-divisor graphs")

    adj1, adj2 = adjunct_vertices(l1, g1), adjunct_vertices(l2, g2)
    prev = None
    while True:
        misaligned = sorted(x for x in adj1 if phi[x] not in adj2)
        if prev is not None and len(misaligned) >= prev:
            raise InternalInconsistency("misaligned-adjunct count failed to decrease")
        prev = len(misaligned)
        if not misaligned:
            break
        x1 = misaligned[0]
        nbr = g1.masks[g1.vertices.index(x1)]
        mates = [y for y, mask in zip(g1.vertices, g1.masks) if mask == nbr]
        swap_with = next((y for y in mates if phi[y] in adj2), None)
        if swap_with is None:
            raise InternalInconsistency(
                f"class of {x1!r} maps to a class without an adjunct element"
            )
        phi[x1], phi[swap_with] = phi[swap_with], phi[x1]
    return phi


# -- the recursive lift ------------------------------------------------------------


def reference_lift(l1: Lattice, l2: Lattice, phi: dict[str, str]) -> dict[str, str]:
    """Lift an adjunct-preserving isomorphism phi of the zero-divisor graphs
    of l1 and l2 (both with join-reducible tops) to a lattice isomorphism.

    Peel from both sides the class with the least hinge below the top,
    match the two chains bottom to bottom, and recurse on what is left; the
    floor is the complete-multipartite case, where every part is matched to
    its phi-image bottom to bottom.
    """
    zg1 = zero_divisor_graph(l1)
    g1 = SetGraph(zg1.vertices, zg1.edges)
    adj1 = adjunct_elements(l1) & set(g1.vertices)
    if not adj1:
        parts = complement_clique_parts(zg1)
        if parts is None:
            raise InternalInconsistency("no adjunct vertices but graph is not complete multipartite")
        psi = {l1.bottom_label: l2.bottom_label, l1.top_label: l2.top_label}
        for part in parts:
            psi.update(zip(_by_height(l1, part), _by_height(l2, (phi[v] for v in part))))
        return psi

    candidates = []  # (hinge, class) for every class without an adjunct element that hinges below the top
    for block in neighborhood_partition(zg1):
        if set(block) & adj1:
            continue
        nx = g1.neighbors(block[0])
        hinges = [b for b in adj1 if b != block[0] and b not in nx]
        if hinges:
            candidates.append((_by_height(l1, hinges)[0], block))
    if not candidates:
        raise InternalInconsistency("adjunct vertices present but every peelable class hinges at the top")
    minimal = [(h, block) for h, block in candidates if not any(o != h and lt(l1, o, h) for o, _ in candidates)]
    hinge, block = min(minimal, key=lambda hb: (hb[0], hb[1][0]))

    chain1 = _by_height(l1, block)
    chain2 = _by_height(l2, (phi[v] for v in block))
    step1, step2 = peel_decomposition(l1, chain1[0]), peel_decomposition(l2, chain2[0])
    if step1.chain != tuple(chain1) or step1.hinge != hinge:
        raise InternalInconsistency("peel disagrees with the chosen class")
    if step2.chain != tuple(chain2):
        raise InternalInconsistency("image class does not peel as a unit")
    if step2.hinge != phi[hinge]:
        raise InternalInconsistency("the image hinge is not the image of the hinge")

    psi = reference_lift(step1.sublattice, step2.sublattice, {v: w for v, w in phi.items() if v not in block})
    if psi.get(hinge) != phi[hinge]:
        raise InternalInconsistency("recursive lift moved the hinge")
    psi.update(zip(chain1, chain2))
    return psi


# -- label-level readers ------------------------------------------------------------


def lt(lat: Lattice, x: str, y: str) -> bool:
    return x != y and lat.leq(x, y)


def comparable(lat: Lattice, x: str, y: str) -> bool:
    return lat.leq(x, y) or lat.leq(y, x)


def covered_by(lat: Lattice, x: str, y: str) -> bool:
    return (x, y) in lat.cover_pairs()


def upper_covers(lat: Lattice, x: str) -> tuple[str, ...]:
    """The elements that cover x, in the order of `lat.labels`."""
    covers = lat.cover_pairs()
    return tuple(y for y in lat.labels if (x, y) in covers)


def lower_covers(lat: Lattice, x: str) -> tuple[str, ...]:
    """The elements that x covers, in the order of `lat.labels`."""
    covers = lat.cover_pairs()
    return tuple(y for y in lat.labels if (y, x) in covers)


def down_set(lat: Lattice, x: str) -> tuple[str, ...]:
    """The elements at most x, in the order of `lat.labels`."""
    return tuple(y for y in lat.labels if lat.leq(y, x))


def children(tree: RootedTree, x: str) -> tuple[str, ...]:
    """The children of node x, in the order of `tree.labels`."""
    return tuple(c for c, p in parent_map(tree).items() if p == x)


def leaves(tree: RootedTree) -> tuple[str, ...]:
    """The nodes without children, in the order of `tree.labels`."""
    parents = set(parent_map(tree).values())
    return tuple(v for v in tree.labels if v not in parents)


def member_sets(classes: Iterable[dict]) -> set[frozenset[str]]:
    return {frozenset(c["members"]) for c in classes}


def label_is_lower_dismantlable(lat: Lattice) -> bool:
    """`is_lower_dismantlable` as one `upper_covers` tuple per element other
    than the bottom and the top, each of which must have length 1.  One
    element is both the bottom and the top, and is not in the class."""
    extremes = (lat.bottom_label, lat.top_label)
    return lat.n > 1 and all(len(upper_covers(lat, x)) == 1 for x in lat.labels if x not in extremes)


def label_classify(lat: Lattice) -> frozenset[str]:
    """`adjunct_elements` through the label readers: the elements whose
    `lower_covers` tuple has two entries or more."""
    return frozenset(x for x in lat.labels if len(lower_covers(lat, x)) >= 2)


def label_tree_of_lattice(lat: Lattice) -> RootedTree:
    """`tree_of_lattice` as a label -> label parent dict that
    `RootedTree.from_parents` sorts and indexes."""
    if not label_is_lower_dismantlable(lat):
        raise NotLowerDismantlable("only lower dismantlable lattices correspond to rooted trees")
    parents: dict[str, str | None] = {}
    for x in lat.labels:
        if x == lat.bottom_label:
            continue
        if x == lat.top_label:
            parents[x] = None
        else:
            (up,) = upper_covers(lat, x)
            parents[x] = up
    return RootedTree.from_parents(parents)


def down_set_lift(l1: Lattice, l2: Lattice, g1: LabeledGraph, phi: dict[str, str]) -> dict[str, str]:
    """The map of `lift_to_lattice_iso` without its checks: each
    neighbourhood class of g1 and its phi-image, both ordered by the length
    of each member's `down_set`, matched bottom to bottom."""
    psi = {l1.bottom_label: l2.bottom_label, l1.top_label: l2.top_label}
    for block in neighborhood_partition(g1):
        psi.update(zip(_by_height(l1, block), _by_height(l2, (phi[v] for v in block))))
    return psi


def relabeled_tree(tree: RootedTree, mapping: dict[str, str]) -> RootedTree:
    """`tree` with every label replaced via `mapping`."""
    return RootedTree.from_parents(
        {mapping[lab]: (None if p is None else mapping[p]) for lab, p in parent_map(tree).items()}
    )


def adjunct_pair_multiset(lat: Lattice) -> dict[tuple[str, str], int]:
    """Multiset {(bottom, b): multiplicity} of the adjunct pairs of a lower
    dismantlable lattice: one pair fewer than b has lower covers."""
    return {(lat.bottom_label, b): len(lower_covers(lat, b)) - 1 for b in sorted(label_classify(lat))}


def preorder_intervals(tree: RootedTree) -> tuple[list[int], list[int]]:
    """(tin, tout): node i sits at preorder position tin[i] and its subtree
    fills the positions up to tout[i], so u is a proper ancestor of v
    exactly when tin[u] < tin[v] < tout[u]."""
    tin, tout = [0] * tree.n, [0] * tree.n
    for pos, v in enumerate(tree._preorder):
        tin[v] = pos
    for v in reversed(tree._preorder):
        kids = tree._children[v]
        tout[v] = tout[kids[-1]] if kids else tin[v] + 1
    return tin, tout


def is_ancestor(tree: RootedTree, u: str, v: str) -> bool:
    """True when u lies on the root path of v (proper ancestor)."""
    try:
        ui, vi = tree._index[u], tree._index[v]
    except KeyError as exc:
        raise NoSuchElement(f"no node {exc.args[0]!r}") from None
    tin, tout = preorder_intervals(tree)
    return tin[ui] < tin[vi] < tout[ui]


# -- the peel over a label dict ------------------------------------------------------


def reference_peel(parent: Mapping[str, str | None]) -> list[tuple[int, tuple[str, ...]]]:
    """Branch peeling of the rooted tree given as child -> parent (the root
    maps to None): (round, path) for every class, in peel order.

    Round by round, every branching node (degree > 2) with no branching node
    below it sheds each pendant path hanging from it as one class; when no
    branching node is left, each residual leg below the root is one class.
    A node sheds all its paths at once and is then a leaf, so its round is one
    more than the latest round below it, and each path runs in the original
    tree from a child of a branching node or of the root down to the first
    node without exactly one child.  Paths are listed top member first;
    classes are ordered by (round, smallest member).
    """
    children: dict[str, list[str]] = {v: [] for v in parent}
    order = []
    for v, p in parent.items():
        if p is None:
            order.append(v)
        else:
            children[p].append(v)
    for v in order:  # breadth-first from the root
        order.extend(children[v])

    def branching(v: str) -> bool:
        return len(children[v]) + (parent[v] is not None) > 2

    latest: dict[str, int] = {}  # latest round of a branching node in v's subtree
    for v in reversed(order):
        below = max((latest[c] for c in children[v]), default=0)
        latest[v] = below + 1 if branching(v) else below

    classes = []
    for v in order:
        if branching(v):
            round_no = latest[v]
        elif parent[v] is None:  # the legs of a root that does not branch
            round_no = latest[v] + 1
        else:
            continue
        for c in children[v]:
            path = [c]
            while len(children[path[-1]]) == 1:
                path.append(children[path[-1]][0])
            classes.append((round_no, tuple(path)))
    return sorted(classes, key=lambda rc: (rc[0], min(rc[1])))


# -- the graph-isomorphism search ----------------------------------------------------


def _select_bits(masks: Sequence[int], order: Sequence[int], width: int) -> list[int]:
    """Rows order[0], order[1], ... of `masks` (each below 2**width), cut
    down to the bits in `order` and renumbered by it: bit r of row k is bit
    order[r] of masks[order[k]].  One pass over the binary digits per row."""
    if not order:
        return []
    pick = itemgetter(*[width - 1 - j for j in reversed(order)])
    digits = f"0{width}b"
    return [int("".join(pick(format(masks[i], digits))), 2) for i in order]


def check_graph_iso(g1: LabeledGraph, g2: LabeledGraph, mapping: Mapping[str, str]) -> bool:
    """Whether `mapping` is a bijection from the vertices of g1 onto those of
    g2 that carries the edge set of g1 onto that of g2, which is to say that
    it preserves adjacency both ways: the masks of g1, renumbered so that
    position r holds the vertex that goes to the r-th vertex of g2, are
    those of g2."""
    if set(mapping) != set(g1.vertices) or set(mapping.values()) != set(g2.vertices):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    position = {v: i for i, v in enumerate(g1.vertices)}
    source = {w: position[v] for v, w in mapping.items()}
    return _select_bits(g1.masks, [source[w] for w in g2.vertices], g1.n) == list(g2.masks)


def brute_graph_iso_all(
    g1: LabeledGraph, g2: LabeledGraph, budget: int = DEFAULT_BUDGET
) -> Iterator[dict[str, str]]:
    """Yield every isomorphism g1 -> g2, lexicographic in g1's label order.

    Backtracking with degree and neighbor-degree pruning; raises
    BudgetExceeded rather than silently giving up.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return
    g1, g2 = SetGraph(g1.vertices, g1.edges), SetGraph(g2.vertices, g2.edges)
    deg_profile1 = {v: (g1.degree(v), sorted(g1.degree(w) for w in g1.neighbors(v))) for v in g1.vertices}
    deg_profile2 = {v: (g2.degree(v), sorted(g2.degree(w) for w in g2.neighbors(v))) for v in g2.vertices}
    if sorted(deg_profile1.values()) != sorted(deg_profile2.values()):
        return

    order = list(g1.vertices)
    nodes_visited = 0

    def extend(i: int, mapping: dict[str, str], used: set[str]) -> Iterator[dict[str, str]]:
        nonlocal nodes_visited
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        for w in g2.vertices:
            if w in used or deg_profile2[w] != deg_profile1[v]:
                continue
            if any(g1.adjacent(v, u) != g2.adjacent(w, mapping[u]) for u in mapping):
                continue
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetExceeded(f"graph isomorphism search exceeded {budget} nodes")
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1, mapping, used)
            del mapping[v]
            used.remove(w)

    yield from extend(0, {}, set())


def brute_graph_iso(g1: LabeledGraph, g2: LabeledGraph, budget: int = DEFAULT_BUDGET) -> dict[str, str] | None:
    return next(brute_graph_iso_all(g1, g2, budget), None)


# -- the label-level lattice-isomorphism search -------------------------------------


def brute_lattice_iso_all(l1: Lattice, l2: Lattice, budget: int = DEFAULT_BUDGET) -> Iterator[dict[str, str]]:
    """Yield every order isomorphism l1 -> l2 (bottom to bottom, top to top),
    lexicographic in l1's label order."""
    if l1.n != l2.n or len(l1.cover_pairs()) != len(l2.cover_pairs()):
        return

    def profile(lat: Lattice, x: str) -> tuple[int, int, int, int]:
        up_set = [y for y in lat.labels if lat.leq(x, y)]
        return (len(lower_covers(lat, x)), len(upper_covers(lat, x)), len(down_set(lat, x)), len(up_set))

    prof1 = {x: profile(l1, x) for x in l1.labels}
    prof2 = {x: profile(l2, x) for x in l2.labels}
    if sorted(prof1.values()) != sorted(prof2.values()):
        return

    order = [x for x in sorted(l1.labels) if x not in (l1.bottom_label, l1.top_label)]
    base = {l1.bottom_label: l2.bottom_label, l1.top_label: l2.top_label}
    if prof1[l1.bottom_label] != prof2[l2.bottom_label] or prof1[l1.top_label] != prof2[l2.top_label]:
        return
    covers1, covers2 = l1.cover_pairs(), l2.cover_pairs()
    nodes_visited = 0

    def extend(i: int, mapping: dict[str, str], used: set[str]) -> Iterator[dict[str, str]]:
        nonlocal nodes_visited
        if i == len(order):
            full = dict(mapping)
            if all(l1.leq(x, y) == l2.leq(full[x], full[y]) for x in l1.labels for y in l1.labels):
                yield full
            return
        v = order[i]
        for w in sorted(l2.labels):
            if w in used or prof2[w] != prof1[v]:
                continue
            if any(
                ((u, v) in covers1) != ((fu, w) in covers2) or ((v, u) in covers1) != ((w, fu) in covers2)
                for u, fu in mapping.items()
            ):
                continue
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetExceeded(f"lattice isomorphism search exceeded {budget} nodes")
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1, mapping, used)
            del mapping[v]
            used.remove(w)

    yield from extend(0, dict(base), set(base.values()))


# -- graphs as neighbour sets ---------------------------------------------------------


class SetGraph:
    """Simple undirected graph over string labels, kept as a set of
    neighbour labels per vertex and a sorted edge list."""

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

    def induced(self, keep: Iterable[str]) -> "SetGraph":
        keep_set = set(keep)
        return SetGraph(
            (v for v in self.vertices if v in keep_set),
            (e for e in self.edges if e[0] in keep_set and e[1] in keep_set),
        )

    def to_json_obj(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}


def edge_walking_recognize(graph) -> RootedTree | None:
    """Recognition that ranks vertices by (degree, label), takes each parent
    as the highest-ranked non-neighbour below, and verifies by walking the
    edge list: no edge joins an ancestor pair, and the edge count is C(m, 2)
    minus the ancestor pairs."""
    root = FRESH_ROOT
    while root in set(graph.vertices):
        root += "'"

    ranked = sorted(graph.vertices, key=lambda v: (graph.degree(v), v))
    bit = {v: 1 << r for r, v in enumerate(ranked)}
    parents: dict[str, str | None] = {root: None}
    for r, v in enumerate(ranked):
        below = ((1 << r) - 1) & ~sum(map(bit.__getitem__, graph.neighbors(v)))
        parents[v] = ranked[below.bit_length() - 1] if below else root
    tree = RootedTree.from_parents(parents)

    index, (tin, tout) = tree._index, preorder_intervals(tree)
    for u, v in graph.edges:
        a, b = index[u], index[v]
        if tin[a] < tin[b] < tout[a] or tin[b] < tin[a] < tout[b]:
            return None
    m = graph.n
    ancestor_pairs = sum(tout[i] - tin[i] - 1 for i in range(tree.n) if i != tree.root)
    if len(graph.edges) != m * (m - 1) // 2 - ancestor_pairs:
        return None
    return tree


# -- the basic block by full rescans, and every deletion order ---------------------------


def rescan_basic_block(lat: Lattice) -> Lattice:
    """Delete the smallest-label deletable element until none is left,
    finding the deletable ones among all survivors every time."""
    uppers, lowers = _cover_masks(lat)
    full = survivors = (1 << lat.n) - 1
    while deletable := _deletable(lat, uppers, lowers, survivors):
        x = min(deletable, key=lat.labels.__getitem__)
        _delete(uppers, lowers, x)
        survivors &= ~(1 << x)
    if survivors == full:
        return lat
    labels = lat.labels
    return build_from_covers(
        [labels[x] for x in _bits(survivors)],
        [(labels[u], labels[v]) for u in _bits(survivors) for v in _bits(uppers[u])],
    )


def explore_deletion_orders(lat: Lattice) -> set[frozenset[str]]:
    """All fixed points reachable by any deletion order, as label sets.

    Exhaustive over orders with memoization on the survivor mask, whose
    cover masks travel with it; used to test the confluence conjecture.
    """
    memo: dict[int, set[int]] = {}

    def reach(survivors: int, uppers: list[int], lowers: list[int]) -> set[int]:
        fixed: set[int] = set()
        for x in _deletable(lat, uppers, lowers, survivors):
            after = survivors & ~(1 << x)
            if after not in memo:
                uppers_after, lowers_after = uppers[:], lowers[:]
                _delete(uppers_after, lowers_after, x)
                reach(after, uppers_after, lowers_after)
            fixed |= memo[after]
        memo[survivors] = fixed or {survivors}
        return memo[survivors]

    labels = lat.labels
    return {frozenset(labels[x] for x in _bits(fp)) for fp in reach((1 << lat.n) - 1, *_cover_masks(lat))}


# -- section semi-complementation by its definition ------------------------------------


def definition_is_ssc(lat: Lattice) -> bool:
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


# -- readers that no command calls ------------------------------------------------------


def parent_map(tree: RootedTree) -> dict[str, str | None]:
    """The tree as a label -> parent label dict, None for the root; the way
    back in is `RootedTree.from_parents`."""
    return {
        lab: (None if i == tree.root else tree.labels[tree.parent[i]])
        for i, lab in enumerate(tree.labels)
    }


def non_ancestor_graph(tree: RootedTree) -> LabeledGraph:
    """Vertices: every node but the root; edges: pairs where neither is an
    ancestor of the other.  Built in the bits of the label-sorted vertices:
    the non-neighbours of a node are its proper ancestors, ORed down the
    preorder, and the rest of its subtree, ORed up it."""
    nodes = sorted((i for i in range(tree.n) if i != tree.root), key=tree.labels.__getitem__)
    bit = [0] * tree.n  # the root is no vertex and has no bit
    for k, i in enumerate(nodes):
        bit[i] = 1 << k
    parent, pre = tree.parent, tree._preorder
    ancestors = [0] * tree.n
    for v in pre[1:]:
        ancestors[v] = ancestors[parent[v]] | bit[parent[v]]
    subtree = bit[:]
    for v in reversed(pre[1:]):
        subtree[parent[v]] |= subtree[v]
    everyone = (1 << len(nodes)) - 1
    return LabeledGraph._of_masks(
        tuple(tree.labels[i] for i in nodes), [everyone & ~(ancestors[i] | subtree[i]) for i in nodes]
    )


def is_structurally_deletable(lat: Lattice, x: str) -> bool:
    """True when removing x drops the cover-graph edge count by exactly one:
    either x is the top with a unique lower cover, or x has unique covers
    u < x < v with nothing else strictly between u and v.  `basic_block`
    never deletes the top, so it tests only the second case."""
    i = lat.index(x)
    if i == lat.top:
        return lat.n >= 3 and len(lat._lowers[i]) == 1
    return i in _deletable(lat, *_cover_masks(lat), (1 << lat.n) - 1)


def enumerate_lower_dismantlable(max_size: int, root_min_children: int = 0) -> Iterator[Lattice]:
    """Lattices of every tree with at most max_size - 1 nodes (|L| = n + 1)
    whose top has at least `root_min_children` lower covers."""
    for tree in enumerate_rooted_trees(max_size - 1, root_min_children):
        yield lattice_of_tree(tree)
