"""Text format for adjunct representations (``.adl`` files).

Grammar::

    document   := "lattice" IDENT "{" chainStmt adjoinStmt* "}"
    chainStmt  := "chain" IDENT+ ";"
    adjoinStmt := "adjoin" "(" IDENT "," IDENT ")" ":" IDENT+ ";"

``#`` starts a comment running to end of line.  IDENT is
``[A-Za-z_][A-Za-z0-9_]*`` or the reserved root symbol ``⊤``; the token ``0``
names the bottom and is permitted only as the first element of the chain
statement and as the first component of a pair.  The keywords ``lattice``,
``chain`` and ``adjoin`` are reserved and cannot name elements.  Files are
UTF-8 and newline-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DslSyntaxError, DuplicateElement, LabelClash, PairNotAdjunctable, UnknownElement
from .lattice import Adjunction, AdjunctExpr, Lattice, build_from_covers

_KEYWORDS = {"lattice", "chain", "adjoin"}
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def is_element_name(label: str) -> bool:
    """True when `label` can name an element other than the extremes in
    ``.adl``: an identifier that is not a keyword (``0`` and ``⊤`` are not)."""
    return label[:1] in _IDENT_START and set(label) <= _IDENT_CONT and label not in _KEYWORDS


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

    def keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text != word:
            raise DslSyntaxError(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def element(self, defined: dict[str, _Token], declare: bool, allow_zero: bool) -> str:
        tok = self.next()
        if tok.kind == "ZERO":
            if not allow_zero:
                raise DslSyntaxError("'0' is only allowed as the bottom of the chain or first in a pair", tok.line, tok.col)
            name = "0"
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
        base = [self.element(defined, declare=True, allow_zero=True)]
        while self.peek().kind in ("IDENT", "ZERO"):
            base.append(self.element(defined, declare=True, allow_zero=False))
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

    Adjoining a chain between a < b relates no two elements already present
    and keeps every cover, so the pairs are checked against up-sets kept while
    reading; the lattice is built and validated once, at the end.
    """
    index: dict[str, int] = {}
    up: list[int] = []  # up[i]: bitmask of the elements >= element i
    covers: set[tuple[str, str]] = set()
    for pair, chain in [((), expr.base), *((adj.pair, adj.chain) for adj in expr.adjunctions)]:
        missing = [x for x in pair if x not in index]
        if missing:
            raise PairNotAdjunctable(f"pair references element {missing[0]!r} not yet introduced")
        if not chain or len(set(chain)) < len(chain):
            build_from_covers(chain, ())  # raises LabelClash or NotALattice, as for the chain alone
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
            up = [mask | new if mask >> ia & 1 else mask for mask in up]  # the chain lies above all x <= a
            covers |= {(a, chain[0]), (chain[-1], b)}
        above = up[index[pair[1]]] if pair else 0
        for k, lab in enumerate(chain):
            index[lab] = len(up)
            up.append(((1 << (len(chain) - k)) - 1) << len(up) | above)  # chain[k:] and the up-set of b
        covers.update(zip(chain, chain[1:]))
    return build_from_covers(expr.all_labels(), covers)


def parse_file(path: str) -> AdjunctExpr:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
