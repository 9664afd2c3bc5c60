"""The CLI contract on mutated input.

Whatever a `.adl` file holds, `build`, `zdg`, `analyze` and `iso --witness`
exit 0, 1, 2 or 3, print no traceback, and under `--json` print exactly one
document that validates against schemas/cli_output.schema.json.  So does
`recognize`, whatever its graph file holds.  And whatever `.adl` `zdg`
accepts, `recognize` answers the graph it prints with exit 0 or 1: the
inputs are the `.adl` of random trees with one label replaced by `⊤`, and
edited texts that use `⊤`.

The inputs are the small `.adl` files of tests/data, and one lattice outside
the class, after a few random edits: a span deleted, duplicated, or replaced
by a token of the language or by random characters.  Raw bytes are tried
too: random ones, and edited files with random bytes spliced in.  An input
that names more than 12 elements is dropped, so every command stays small.

The graph files are random graphs and the graphs of random trees on at most
12 vertices, with labels that are not element names among others, duplicate
vertices and edges, fields of the wrong type, arbitrary JSON, and arrays and
objects nested thousands deep.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dislat.cli import main
from dislat.dsl import serialize
from dislat.treeiso import RootedTree, adjunct_representation
from tests.reference import non_ancestor_graph

jsonschema = pytest.importorskip("jsonschema")

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((Path(__file__).parent.parent / "schemas" / "cli_output.schema.json").read_text())
MAX_ELEMENTS = 12

SEEDS = [
    *(
        (DATA / f"{name}.adl").read_text(encoding="utf-8")
        for name in ("chain4", "m2", "m3", "k22", "negssc", "ex2", "swap7", "bad_char", "trailing_comment")
    ),
    "lattice g { chain 0 a b one; adjoin (a, one): c; }",  # dismantlable, not lower dismantlable
]
TOKENS = ["lattice", "chain", "adjoin", "0", "00", "(", ")", ",", ":", ";", "{", "}", "#", "\n", " ",
          "a", "one", "x9", "_", "é", "\x00", "lattice x { chain 0 a; }"]
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
COMMENT = re.compile(r"#[^\n]*")


def element_count(text: str) -> int:
    """An upper bound on the elements the text names: the bottom and every
    identifier outside comments that is not a keyword (the lattice's own
    name included)."""
    return 1 + len(set(NAME.findall(COMMENT.sub("", text))) - {"lattice", "chain", "adjoin"})


@st.composite
def edited_adl(draw, seeds: list[str] = SEEDS, tokens: list[str] = TOKENS) -> str:
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 12)))
        piece = draw(st.one_of(st.sampled_from(tokens), st.text(max_size=3)))
        edit = draw(st.sampled_from(["delete", "duplicate", "replace", "insert"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        elif edit == "replace":
            text = text[:i] + piece + text[j:]
        else:
            text = text[:i] + piece + text[i:]
    assume(element_count(text) <= MAX_ELEMENTS)
    return text


@st.composite
def raw_bytes(draw) -> bytes:
    data = draw(st.one_of(st.binary(max_size=80), edited_adl().map(lambda t: t.encode("utf-8"))))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:i] + draw(st.binary(min_size=1, max_size=4)) + data[i:]
    assume(element_count(data.decode("utf-8", errors="ignore")) <= MAX_ELEMENTS)
    return data


def run_json(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", *argv])
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    payload = json.loads(out.getvalue())  # exactly one document: extra data is an error
    jsonschema.validate(payload, SCHEMA)
    return code


def check_commands(data: bytes, other: str | None) -> None:
    """The four commands on `data`, with `iso` against the file `other` of
    tests/data, or against `data` itself when `other` is None."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.adl"
        path.write_bytes(data)
        for command in ("build", "zdg", "analyze"):
            run_json([command, str(path)])
        run_json(["iso", str(path), str(path if other is None else DATA / other), "--witness"])


OTHERS = st.sampled_from([None, "k22.adl", "swap7_shuffled.adl", "m2.adl", "bad_char.adl"])
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])


@given(edited_adl(), OTHERS)
@FUZZ
def test_edited_text(text, other):
    check_commands(text.encode("utf-8"), other)


@given(raw_bytes(), OTHERS)
@FUZZ
def test_raw_bytes(data, other):
    check_commands(data, other)


def test_seeds_are_small_and_varied():
    """The seeds fit the element cap, and between them they reach every
    exit code of the commands but 3."""
    assert all(element_count(text) <= MAX_ELEMENTS for text in SEEDS)
    codes = set()
    with tempfile.TemporaryDirectory() as tmp:
        for k, text in enumerate(SEEDS):
            path = Path(tmp) / f"seed{k}.adl"
            path.write_text(text, encoding="utf-8")
            codes.add(run_json(["build", str(path)]))
            codes.add(run_json(["iso", str(path), str(DATA / "k22.adl"), "--witness"]))
    assert codes == {0, 1, 2}


@st.composite
def adl_naming_top(draw) -> str:
    """The `.adl` of a random tree on at most 11 nodes, with the label of
    one node, the root or another, replaced by '⊤'."""
    n = draw(st.integers(min_value=1, max_value=11))
    parent = [0] + [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    tree = RootedTree(labels=tuple(f"e{i}" for i in range(n)), parent=tuple(parent), root=0)
    renamed = draw(st.sampled_from(["e0", *tree.labels]))  # the root, e0, twice as often
    return re.sub(rf"\b{renamed}\b", "⊤", serialize(adjunct_representation(tree)))


TOP_SEEDS = [
    "lattice t { chain 0 x ⊤; adjoin (0, ⊤): y z; adjoin (0, z): w; }",
    "lattice L { chain 0 a b; adjoin (0, b): c; }",
    "lattice g { chain 0 a b ⊤; adjoin (a, ⊤): c; }",
]


@given(st.one_of(adl_naming_top(), edited_adl(TOP_SEEDS, [*TOKENS, "⊤", "⊤", "⊤"])))
@FUZZ
def test_recognize_answers_the_graph_of_every_adl(text):
    """For every `.adl` that `zdg` accepts, `recognize` on the printed graph
    exits 0 or 1, never 2: every vertex is an element name, since '0' can
    only name the bottom and '⊤' only the top, and neither is a vertex."""
    with tempfile.TemporaryDirectory() as tmp:
        path, graph = Path(tmp) / "input.adl", Path(tmp) / "graph.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--json", "zdg", str(path)])
        assume(code == 0)
        graph.write_text(out.getvalue(), encoding="utf-8")
        assert run_json(["recognize", str(graph)]) in (0, 1), text


NAMES = st.sampled_from([*"abcdefghijkl", "x1", "one", "_"])
LABELS = ["0", "⊤", "lattice", "chain", "adjoin", "1a", "a-b", "a b", "", "é", "日本", "\x00"]
label = st.one_of(st.sampled_from(LABELS), st.text(max_size=3))
json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), label),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(label, inner, max_size=3)),
    max_leaves=8,
)
rarely = st.integers(min_value=0, max_value=3).map(lambda k: k == 0)  # one time in four


@st.composite
def vertex_labels(draw, min_size: int, repeats: bool) -> list[str]:
    """Up to 12 element names; now and then with a label that is not a name
    among them, or, if `repeats`, with a label twice."""
    pool = st.one_of(NAMES, NAMES, NAMES, label) if draw(rarely) else NAMES
    return draw(st.lists(pool, min_size=min_size, max_size=12, unique=not (repeats and draw(rarely))))


@st.composite
def random_graph(draw) -> dict:
    """Random edges between the vertices; now and then with loops, or with
    an endpoint that is not a vertex.  Repeated edges are common."""
    vertices = draw(vertex_labels(1, repeats=True))
    end = st.one_of(st.sampled_from(vertices), label) if draw(rarely) else st.sampled_from(vertices)
    edges = draw(st.lists(st.lists(end, min_size=2, max_size=2), max_size=30))
    if not draw(rarely):
        edges = [e for e in edges if e[0] != e[1]]
    return {"vertices": vertices, "edges": edges}


@st.composite
def tree_graph(draw) -> dict:
    """The zero-divisor graph of the lattice of a random tree: in class,
    though its labels need not be names."""
    labels = draw(vertex_labels(3, repeats=False))
    parent = [0] + [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, len(labels))]
    return non_ancestor_graph(RootedTree(labels=tuple(labels), parent=tuple(parent), root=0)).to_json_obj()


@st.composite
def broken_graph(draw) -> dict:
    """A graph document with one field replaced, dropped or added."""
    doc = draw(st.one_of(random_graph(), tree_graph()))
    field = draw(st.sampled_from(["vertices", "edges", "extra"]))
    if draw(st.booleans()):
        doc[field] = draw(json_value)
    else:
        doc.pop(field, None)
    return doc


@st.composite
def nested(draw) -> str:
    depth = draw(st.integers(min_value=1, max_value=5000))
    opening, closing = draw(st.sampled_from([("[", "]"), ('{"vertices": ', "}"), ('{"edges": [', "]}")]))
    return opening * depth + draw(st.sampled_from(["[]", "{}", "1", '"a"', ""])) + closing * depth


graph_files = st.one_of(
    st.builds(json.dumps, st.one_of(random_graph(), tree_graph(), broken_graph(), json_value), ensure_ascii=st.booleans()),
    nested(),
    st.text(max_size=20),
)


@given(graph_files)
@FUZZ
def test_recognize(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        run_json(["recognize", str(path)])
