"""The CLI contract on mutated input.

Whatever a `.adl` file holds, `build`, `zdg`, `analyze` and `iso --witness`
exit 0, 1, 2 or 3, print no traceback, and under `--json` print exactly one
document that validates against schemas/cli_output.schema.json.

The inputs are the small `.adl` files of tests/data, and one lattice outside
the class, after a few random edits: a span deleted, duplicated, or replaced
by a token of the language or by random characters.  Raw bytes are tried
too: random ones, and edited files with random bytes spliced in.  An input
that names more than 12 elements is dropped, so every command stays small.
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
def edited_adl(draw) -> str:
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 12)))
        piece = draw(st.one_of(st.sampled_from(TOKENS), st.text(max_size=3)))
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
