from __future__ import annotations

import random
from pathlib import Path

import pytest

from dislat import (
    AdjunctExpr,
    Adjunction,
    DislatError,
    DslError,
    DslSyntaxError,
    DuplicateElement,
    NotALattice,
    PairNotAdjunctable,
    UnknownElement,
    adjunct_representation,
    elaborate,
    parse,
    serialize,
    zero_divisor_graph,
)
from dislat.dsl import _elaborate_general, _elaborate_tree
from dislat.lattice import _bits
from dislat.treeiso import RootedTree, tree_of_lattice
from tests.reference import (
    adjunct,
    chain_lattice,
    enumerate_lower_dismantlable,
    lattice_arrays,
    lt,
    reference_elaborate,
    reference_parse,
)
from tests.test_treeiso import random_parents

EX2_SRC = (
    "lattice ex2 { chain 0 a3 a5 a8 one; adjoin (0, a8): a2 a6; "
    "adjoin (0, a6): a1 a7; adjoin (0, a5): a4; }"
)

DATA = Path(__file__).parent / "data"
PIECES = ["#", "0", "1", "7", "⊤", "é", "\f", "\r", "\n", " ", *"{}(),:;", "lattice", "chain", "adjoin"]


def mutate(rng, text):
    """One to three edits: a truncation, an inserted piece, or a deleted run
    of one to three characters."""
    for _ in range(rng.randrange(1, 4)):
        r = rng.random()
        if r < 0.25:
            text = text[: rng.randrange(len(text) + 1)]
        elif r < 0.65:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randrange(1, 4) :]
    return text


def parse_outcome(fn, text):
    try:
        return fn(text)
    except DslError as exc:
        return type(exc), exc.message, exc.line, exc.col


class TestParse:
    def test_ex2(self):
        expr = parse(EX2_SRC)
        assert expr.name == "ex2"
        assert expr.base == ("0", "a3", "a5", "a8", "one")
        assert [a.pair for a in expr.adjunctions] == [("0", "a8"), ("0", "a6"), ("0", "a5")]
        assert expr.adjunctions[0].chain == ("a2", "a6")

    def test_m2(self):
        expr = parse("lattice m2 { chain 0 a one; adjoin (0, one): b; }")
        assert expr.base == ("0", "a", "one")
        assert expr.adjunctions == (Adjunction(pair=("0", "one"), chain=("b",)),)

    def test_unknown_element_in_pair(self):
        with pytest.raises(UnknownElement) as err:
            parse("lattice bad { chain 0 a; adjoin (0, z): b; }")
        assert "z" in str(err.value)
        assert err.value.line == 1

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            parse("lattice bad { chain 0 a a; }")
        with pytest.raises(DuplicateElement):
            parse("lattice bad { chain 0 a; adjoin (0, a): a; }")

    def test_zero_positions(self):
        # 0 fine as chain head and pair first component
        parse("lattice ok { chain 0 a b; adjoin (0, b): c; }")
        with pytest.raises(DslSyntaxError):
            parse("lattice bad { chain a 0 b; }")
        with pytest.raises(DslSyntaxError):
            parse("lattice bad { chain 0 a b; adjoin (a, 0): c; }")
        with pytest.raises(DslSyntaxError):
            parse("lattice bad { chain 0 a b; adjoin (0, b): 0; }")

    def test_comments_and_whitespace_insensitive(self):
        src = "lattice m2 {\n  # the base\n  chain 0 a one;\n\n  adjoin (0, one): b; # tail\n}\n"
        assert parse(src) == parse("lattice m2 { chain 0 a one; adjoin (0, one): b; }")

    def test_diagnostics_carry_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("lattice bad {\n  chain 0 a one\n}")
        assert err.value.line == 3  # the '}' where ';' was expected

    def test_reserved_words_not_elements(self):
        with pytest.raises(DslSyntaxError):
            parse("lattice bad { chain 0 chain one; }")

    def test_reserved_root_symbol_is_an_ident(self):
        expr = parse("lattice t { chain 0 x ⊤; adjoin (0, ⊤): y; }")
        assert expr.base == ("0", "x", "⊤")

    @pytest.mark.parametrize(
        "text, col",
        [
            ("lattice L { chain 0 ⊤ b; adjoin (0, b): c; }", 21),  # inside the chain
            ("lattice L { chain ⊤ a; }", 19),  # where the bottom goes
            ("lattice L { chain 0 a b; adjoin (0, b): ⊤; }", 41),  # an adjoined chain
            ("lattice L { chain 0 a b; adjoin (0, b): c ⊤; }", 43),  # the top of an adjoined chain
            ("lattice L { chain 0 a ⊤; adjoin (0, ⊤): c ⊤; }", 43),  # declared twice
            ("lattice L { chain 0 ⊤ adjoin; }", 21),  # followed by a keyword
        ],
    )
    def test_root_symbol_declared_only_as_the_top(self, text, col):
        """'⊤' names the top: only the last element of the chain statement
        may declare it, and anywhere else it is a syntax error at the token."""
        want = (DslSyntaxError, "'⊤' names the top and is only allowed last in the chain statement", 1, col)
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text) == want

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("lattice bad { chain 0 a$; }")
        assert (err.value.message, err.value.line, err.value.col) == ("unexpected character '$'", 1, 24)

    def test_end_after_trailing_comment_is_at_the_hash(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("lattice t {\n  chain 0 a one  # no ';'")
        assert (err.value.message, err.value.line, err.value.col) == ("expected ';', found 'end of input'", 2, 18)

    def test_matches_reference_parser_on_mutated_texts(self):
        """Truncations, insertions and deletions of seed texts: both parsers
        return the same expression or raise the same error at the same place."""
        seeds = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.adl"))]
        seeds += [EX2_SRC, "lattice t { chain 0 x ⊤; adjoin (0, ⊤): y; } # end"]
        kinds = set()
        for seed in range(6000):
            rng = random.Random(seed)
            text = mutate(rng, rng.choice(seeds))
            got = parse_outcome(parse, text)
            assert got == parse_outcome(reference_parse, text), text
            kinds.add(got[0] if isinstance(got, tuple) else "ok")
        assert kinds == {"ok", DslSyntaxError, DuplicateElement, UnknownElement}


class TestSerialize:
    def test_round_trip_is_canonical(self):
        expr = parse(EX2_SRC)
        text = serialize(expr)
        assert parse(text) == expr
        assert serialize(parse(text)) == text

    def test_base_only(self):
        expr = AdjunctExpr(base=("0", "a", "1"), name="c")
        assert serialize(expr) == "lattice c {\n  chain 0 a 1;\n}\n"

    def test_long_identifiers_survive(self):
        name = "very_long_identifier_42_with_suffix"
        expr = AdjunctExpr(base=("0", name, "one"), name="t")
        assert parse(serialize(expr)) == expr


def random_expr(rng, bottom_only=False):
    """An expression with general pairs; some break a precondition: an empty
    or repeating chain, a pair that is not a < b, a cover, or names an element
    not yet introduced, or a chain that reuses a host label.  With
    `bottom_only` the base is not empty and every pair starts at its first
    element, the bottom, as `elaborate`'s tree path needs."""
    introduced = []

    def chain(k):
        out = []
        for _ in range(k):
            r = rng.random()
            if r < 0.04 and out:
                out.append(rng.choice(out))
            elif r < 0.08 and introduced:
                out.append(rng.choice(introduced))
            else:
                out.append(f"c{rng.randrange(10**6)}")
        return tuple(out)

    base = chain(rng.choice([1, 2, 3, 3, 4, 5, 6] if bottom_only else [0, 1, 2, 3, 3, 4, 5, 6]))
    introduced.extend(base)
    adjunctions = []
    for _ in range(rng.randrange(6)):
        pool = introduced if introduced and rng.random() < 0.95 else ["zz", *introduced]
        a, b = rng.choice(pool), rng.choice(pool)
        if base and (bottom_only or rng.random() < 0.4):
            a = base[0]
        c = chain(rng.choice([0, 1, 1, 1, 2, 2, 3, 3]))
        adjunctions.append(Adjunction(pair=(a, b), chain=c))
        introduced.extend(c)
    return AdjunctExpr(base=base, adjunctions=tuple(adjunctions))


def comparable_pairs_expr(rng):
    """A valid expression: a base chain of three to five elements, then 3-11
    adjoins, each at a pair a < b that is not a cover of the lattice so far."""
    base = tuple(f"c{i}" for i in range(rng.randrange(3, 6)))
    lat = chain_lattice(base)
    adjunctions = []
    for step in range(rng.randrange(3, 12)):
        labels = lat.labels
        pairs = [
            (labels[x], labels[y])
            for x in range(lat.n)
            for y in _bits(lat._up[x])
            if y != x and x not in lat._lowers[y]
        ]
        adj = Adjunction(pair=rng.choice(pairs), chain=tuple(f"d{step}_{k}" for k in range(rng.randrange(1, 4))))
        lat = adjunct(lat, chain_lattice(adj.chain), *adj.pair)
        adjunctions.append(adj)
    return AdjunctExpr(base=base, adjunctions=tuple(adjunctions))


def outcome(fn, expr):
    try:
        lat = fn(expr)
    except DislatError as exc:
        return type(exc), str(exc)
    return lat.labels, lat.cover_pairs()


def arrays_outcome(fn, expr):
    """The error, or every array of the lattice built."""
    try:
        return lattice_arrays(fn(expr))
    except DislatError as exc:
        return type(exc), str(exc)


class TestElaborate:
    def test_ex2_sizes(self):
        lat = elaborate(parse(EX2_SRC))
        assert lat.n == 10
        assert len(zero_divisor_graph(lat).vertices) == 7

    def test_m2(self, m2):
        assert elaborate(parse("lattice m2 { chain 0 a one; adjoin (0, one): b; }")) == m2

    def test_cover_pair_not_adjunctable(self):
        with pytest.raises(PairNotAdjunctable):
            elaborate(parse("lattice bad { chain 0 a one; adjoin (0, a): b; }"))

    def test_general_pair_accepted(self):
        # pairs away from the bottom express general dismantlable lattices
        lat = elaborate(parse("lattice g { chain 0 a b c one; adjoin (a, c): d; }"))
        assert lat.n == 6
        assert lt(lat, "a", "d") and lt(lat, "d", "c")

    @pytest.mark.parametrize(
        "expr",
        [
            AdjunctExpr(base=()),
            AdjunctExpr(base=("0", "a", "b"), adjunctions=(Adjunction(pair=("0", "b"), chain=()),)),
        ],
        ids=["empty-base", "empty-chain"],
    )
    def test_empty_chain_is_not_a_lattice(self, expr):
        with pytest.raises(NotALattice):
            elaborate(expr)
        assert outcome(elaborate, expr) == outcome(reference_elaborate, expr)

    def test_matches_per_step_fold(self):
        kinds = set()
        for seed in range(3000):
            expr = random_expr(random.Random(seed))
            got = outcome(elaborate, expr)
            assert got == outcome(reference_elaborate, expr), expr
            kinds.add(got[0] if isinstance(got[0], type) else "ok")
        assert len(kinds) == 4  # valid, PairNotAdjunctable, LabelClash, NotALattice

    def test_matches_per_step_fold_on_comparable_pairs(self):
        """Adjoins at pairs a < b anywhere in the order, not only at the bottom."""
        for seed in range(1000):
            expr = comparable_pairs_expr(random.Random(seed))
            assert outcome(elaborate, expr) == outcome(reference_elaborate, expr), expr

    def test_pair_above_a_chain_adjoined_below(self):
        # x < q < y: the last pair needs the up-sets below a and the down-sets above b
        src = "lattice t { chain 0 p q r s; adjoin (0, q): x; adjoin (q, s): y; adjoin (x, y): z; }"
        lat = elaborate(parse(src))
        assert lat == reference_elaborate(parse(src))
        assert lt(lat, "x", "z") and lt(lat, "z", "y")

    def test_full_round_trip_on_enumeration(self):
        for lat in enumerate_lower_dismantlable(8):
            expr = adjunct_representation(tree_of_lattice(lat))
            assert elaborate(parse(serialize(expr))) == lat


def random_tree(rng, n):
    """A random recursive tree on n nodes with shuffled labels t0, t1, ..."""
    labels = [f"t{i}" for i in range(n)]
    rng.shuffle(labels)
    return RootedTree(labels=tuple(labels), parent=tuple(random_parents(rng, n)), root=0)


class TestTreePath:
    """`elaborate` on expressions whose pairs all start at the bottom builds
    the lattice from its tree.  It must agree, array by array and error by
    error, with the general path, which validates through
    `build_from_covers`, and with the per-step fold."""

    @staticmethod
    def kind(got):
        """The error kind an outcome shows, or 'ok'."""
        if not isinstance(got[0], type):
            return "ok"
        if got[0] is PairNotAdjunctable:
            for word in ("is covered by", "need", "not yet introduced"):
                if word in got[1]:
                    return word
        return got[0].__name__

    def test_bottom_only_exprs_match_general_path_and_fold(self):
        kinds = set()
        for seed in range(3000):
            expr = random_expr(random.Random(seed), bottom_only=True)
            got = arrays_outcome(_elaborate_tree, expr)
            assert got == arrays_outcome(_elaborate_general, expr), expr
            assert got == arrays_outcome(elaborate, expr)
            assert outcome(_elaborate_tree, expr) == outcome(reference_elaborate, expr), expr
            kinds.add(self.kind(got))
        assert kinds == {
            "ok", "is covered by", "need", "not yet introduced", "LabelClash", "NotALattice"
        }

    def test_adjunct_representation_of_every_lattice_up_to_10(self):
        for lat in enumerate_lower_dismantlable(10):
            expr = adjunct_representation(tree_of_lattice(lat))
            built = _elaborate_tree(expr)
            assert lattice_arrays(built) == lattice_arrays(_elaborate_general(expr))
            assert built == lat

    def test_random_trees(self):
        rng = random.Random(19)
        for _ in range(200):
            expr = adjunct_representation(random_tree(rng, rng.randrange(1, 120)))
            assert lattice_arrays(_elaborate_tree(expr)) == lattice_arrays(_elaborate_general(expr))

    def test_one_element(self):
        expr = AdjunctExpr(base=("0",))
        built = elaborate(expr)
        assert lattice_arrays(built) == lattice_arrays(_elaborate_general(expr))
        assert (built.n, built.bottom, built.top, built._uppers, built._lowers) == (1, 0, 0, ((),), ((),))
