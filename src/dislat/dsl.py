"""Text format for adjunct representations (``.adl`` files).

Grammar::

    document   := "lattice" IDENT "{" chainStmt adjoinStmt* "}"
    chainStmt  := "chain" IDENT+ ";"
    adjoinStmt := "adjoin" "(" IDENT "," IDENT ")" ":" IDENT+ ";"

``#`` starts a comment running to end of line.  IDENT is
``[A-Za-z_][A-Za-z0-9_]*`` or the reserved root symbol ``⊤``; the token ``0``
names the bottom and is permitted only as the first element of the chain
statement and as the first component of a pair, and ``⊤`` names the top and
is declared only as the last element of the chain statement (a pair may
name it after that).  The keywords ``lattice``,
``chain`` and ``adjoin`` are reserved and cannot name elements.  Files are
UTF-8 and newline-insensitive.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NoReturn

from .errors import DslError, DslSyntaxError, DuplicateElement, LabelClash, PairNotAdjunctable, UnknownElement
from .lattice import Adjunction, AdjunctExpr, Lattice, _bits, build_from_covers

_KEYWORDS = frozenset(("lattice", "chain", "adjoin"))
_PUNCT = frozenset("{}(),:;")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Every lexeme, in a row: the match ends at the first character that starts
# none.  Blanks are " \t\r\n", a comment runs to the end of its line, and
# "0" followed by an identifier character is no token.
_LEXEMES = re.compile(r"(?:[ \t\r\n]+|#[^\n]*|[{}(),:;⊤]|[A-Za-z_][A-Za-z0-9_]*|0(?![A-Za-z0-9_]))*")
# The same lexemes, matching at every position of a checked text; only the
# tokens are captured, so findall yields '' for blanks and comments.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|([{}(),:;⊤]|[A-Za-z_][A-Za-z0-9_]*|0)")


def is_element_name(label: str) -> bool:
    """True when `label` can name an element other than the extremes in
    ``.adl``: an identifier that is not a keyword (``0`` and ``⊤`` are not)."""
    return _IDENT.fullmatch(label) is not None and label not in _KEYWORDS


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Parser:
    """Recursive descent over the tokens as strings; ``''`` ends the input.

    Positions are found again only for a diagnostic: token k is the k-th
    captured match of `_TOKEN`, and the end of input after a trailing
    comment is reported at the comment's ``#``.
    """

    def __init__(self, text: str):
        end = _LEXEMES.match(text).end()
        if end < len(text):
            raise DslSyntaxError(f"unexpected character {text[end]!r}", *_line_col(text, end))
        self.text = text
        self.tokens = [*filter(None, _TOKEN.findall(text)), ""]
        self.pos = 0

    def fail(self, error: type[DslError], message: str) -> NoReturn:
        """Raise `error` at the token just read."""
        k, text = self.pos - 1, self.text
        if k < len(self.tokens) - 1:
            tokens = (m for m in _TOKEN.finditer(text) if m.group(1))
            pos = next(islice(tokens, k, None)).start()
        else:  # the end of input, or the '#' of a comment on the last line
            pos = text.find("#", text.rfind("\n") + 1)
            if pos < 0:
                pos = len(text)
        raise error(message, *_line_col(text, pos))

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str, what: str) -> None:
        tok = self.next()
        if tok != want:
            self.fail(DslSyntaxError, f"expected {what}, found {tok or 'end of input'!r}")

    def element(self, defined: set[str], declare: bool, allow_zero: bool, allow_top: bool = False) -> str:
        tok = self.next()
        if tok == "0":
            if not allow_zero:
                self.fail(DslSyntaxError, "'0' is only allowed as the bottom of the chain or first in a pair")
        elif tok == "⊤" and declare and not (allow_top and (not self.peek() or self.peek() in _PUNCT)):
            self.fail(DslSyntaxError, "'⊤' names the top and is only allowed last in the chain statement")
        elif tok in _KEYWORDS:
            self.fail(DslSyntaxError, f"{tok!r} is a reserved word")
        elif not tok or tok in _PUNCT:
            self.fail(DslSyntaxError, f"expected an element name, found {tok or 'end of input'!r}")
        if declare:
            if tok in defined:
                self.fail(DuplicateElement, f"element {tok!r} already defined")
            defined.add(tok)
        elif tok not in defined:
            self.fail(UnknownElement, f"unknown element {tok!r} in pair")
        return tok

    def elements(self, defined: set[str], base: bool) -> tuple[str, ...]:
        """One element or more, up to the next punctuation or the end.  Only
        the base chain may start with '0' and end with '⊤'."""
        out = [self.element(defined, declare=True, allow_zero=base, allow_top=base)]
        while self.peek() and self.peek() not in _PUNCT:
            out.append(self.element(defined, declare=True, allow_zero=False, allow_top=base))
        return tuple(out)

    def document(self) -> AdjunctExpr:
        self.expect("lattice", "'lattice'")
        name = self.next()
        if not name or name in _PUNCT or name == "0":
            self.fail(DslSyntaxError, f"expected a lattice name, found {name or 'end of input'!r}")
        if name in _KEYWORDS:
            self.fail(DslSyntaxError, f"{name!r} is a reserved word")
        self.expect("{", "'{'")

        defined: set[str] = set()
        self.expect("chain", "'chain'")
        base = self.elements(defined, base=True)
        self.expect(";", "';'")

        adjunctions: list[Adjunction] = []
        while self.peek() == "adjoin":
            self.next()
            self.expect("(", "'('")
            a = self.element(defined, declare=False, allow_zero=True)
            self.expect(",", "','")
            b = self.element(defined, declare=False, allow_zero=False)
            self.expect(")", "')'")
            self.expect(":", "':'")
            chain = self.elements(defined, base=False)
            self.expect(";", "';'")
            adjunctions.append(Adjunction(pair=(a, b), chain=chain))

        self.expect("}", "'}'")
        self.expect("", "end of input")
        return AdjunctExpr(base=base, adjunctions=tuple(adjunctions), name=name)


def parse(text: str) -> AdjunctExpr:
    """Parse ``.adl`` source into an AdjunctExpr.

    Scoping is checked here (each element defined exactly once, pairs
    reference known elements); the order conditions on a pair are checked by
    :func:`elaborate`.
    """
    return _Parser(text).document()


def serialize(expr: AdjunctExpr) -> str:
    """Render an AdjunctExpr in canonical whitespace; parse(serialize(E)) == E."""
    lines = [f"lattice {expr.name} {{"]
    lines.append("  chain " + " ".join(expr.base) + ";")
    for adj in expr.adjunctions:
        a, b = adj.pair
        lines.append(f"  adjoin ({a}, {b}): " + " ".join(adj.chain) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def elaborate(expr: AdjunctExpr) -> Lattice:
    """Build the lattice an AdjunctExpr denotes, applying adjunctions
    left-to-right.  Raises PairNotAdjunctable when a pair violates the
    operation's preconditions at the moment of its adjunction.

    When every pair starts at the bottom (``base[0]``) the lattice is lower
    dismantlable and is built from its tree (`_elaborate_tree`); any other
    expression takes the general path (`_elaborate_general`).  Both raise
    the same errors, with the same messages, in the same order.
    """
    if expr.base and all(len(adj.pair) == 2 and adj.pair[0] == expr.base[0] for adj in expr.adjunctions):
        return _elaborate_tree(expr)
    return _elaborate_general(expr)


def _check_chain(chain: tuple[str, ...]) -> None:
    if not chain or len(set(chain)) < len(chain):
        build_from_covers(chain, ())  # raises LabelClash or NotALattice, as for the chain alone


def _elaborate_tree(expr: AdjunctExpr) -> Lattice:
    """`elaborate` for an expression whose pairs all start at the bottom.

    The lattice is a tree under the top with the bottom under its leaves, so
    each element but the extremes is given by its parent: the next element
    of its chain, and for the top of an adjoined chain the b of its pair.
    Adjoining at (bottom, b) needs b introduced, b not the bottom, and b not
    covering the bottom, which in the tree means b is not a leaf.  The leaves
    are ``base[1]`` and the lowest element of each adjoined chain, and a leaf
    stays one, since no chain is adjoined under it.
    """
    base = expr.base
    _check_chain(base)
    bottom = base[0]
    labels = list(base)
    index = {lab: i for i, lab in enumerate(base)}
    parent = [*range(1, len(base)), len(base) - 1]  # the entries of the extremes are not read
    leaves = set(base[1:2])
    for adj in expr.adjunctions:
        b, chain = adj.pair[1], adj.chain
        if b not in index:
            raise PairNotAdjunctable(f"pair references element {b!r} not yet introduced")
        _check_chain(chain)
        if b == bottom:
            raise PairNotAdjunctable(f"need {bottom!r} < {b!r} in the host lattice")
        if b in leaves:
            raise PairNotAdjunctable(f"{bottom!r} is covered by {b!r}; the interval is empty")
        clash = index.keys() & set(chain)
        if clash:
            raise LabelClash(f"labels occur on both sides: {sorted(clash)}")
        start, end = len(labels), len(labels) + len(chain)
        index.update(zip(chain, range(start, end)))
        labels.extend(chain)
        parent.extend(range(start + 1, end))
        parent.append(index[b])
        leaves.add(chain[0])
    return Lattice._of_tree(tuple(labels), parent, 0, len(base) - 1)


def _elaborate_general(expr: AdjunctExpr) -> Lattice:
    """`elaborate` for any expression.

    Adjoining a chain between a < b relates no two elements already present
    and keeps every cover, so the pairs are checked against up-sets kept while
    reading; the lattice is built and validated once, at the end.  A down-set
    is kept beside each up-set, so an adjoin touches only the up-sets of the
    elements <= a and the down-sets of the elements >= b.
    """
    index: dict[str, int] = {}
    up: list[int] = []  # up[i]: bitmask of the elements >= element i
    down: list[int] = []  # down[i]: bitmask of the elements <= element i
    covers: set[tuple[str, str]] = set()
    for pair, chain in [((), expr.base), *((adj.pair, adj.chain) for adj in expr.adjunctions)]:
        missing = [x for x in pair if x not in index]
        if missing:
            raise PairNotAdjunctable(f"pair references element {missing[0]!r} not yet introduced")
        _check_chain(chain)
        above = below = 0
        if pair:
            a, b = pair
            ia, ib = index[a], index[b]
            if ia == ib or not up[ia] >> ib & 1:
                raise PairNotAdjunctable(f"need {a!r} < {b!r} in the host lattice")
            if (a, b) in covers:
                raise PairNotAdjunctable(f"{a!r} is covered by {b!r}; the interval is empty")
            clash = index.keys() & set(chain)
            if clash:
                raise LabelClash(f"labels occur on both sides: {sorted(clash)}")
            new = ((1 << len(chain)) - 1) << len(up)
            above, below = up[ib], down[ia]
            for x in _bits(below):  # the chain lies above all x <= a
                up[x] |= new
            for y in _bits(above):  # and below all y >= b
                down[y] |= new
            covers |= {(a, chain[0]), (chain[-1], b)}
        for k, lab in enumerate(chain):
            i = len(up)
            index[lab] = i
            up.append(((1 << (len(chain) - k)) - 1) << i | above)  # chain[k:] and the up-set of b
            down.append(((1 << (k + 1)) - 1) << (i - k) | below)  # chain[:k + 1] and the down-set of a
        covers.update(zip(chain, chain[1:]))
    return build_from_covers(expr.all_labels(), covers)


def parse_file(path: str) -> AdjunctExpr:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
