"""The flat JSON writer against the stdlib's indented encoder, byte for byte."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dislat.jsonout import dumps

texts = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(["", "a", "é", "⊤", "\n", "\x00\x1f", '"\\'])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
)
string_lists = st.lists(texts, max_size=5)
pair_lists = st.lists(st.tuples(texts, texts).map(list) | st.tuples(texts, texts), max_size=5)
other_keys = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(other_keys, children, max_size=3)
        | string_lists
        | pair_lists
    )


documents = st.recursive(scalars | string_lists | pair_lists, containers, max_leaves=20)


def stdlib(doc, sort_keys: bool) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=sort_keys)


@settings(max_examples=300, deadline=None)
@given(documents, st.booleans())
def test_same_bytes_as_the_stdlib(doc, sort_keys):
    try:
        want = stdlib(doc, sort_keys)
    except TypeError as exc:  # sorting keys of mixed types
        with pytest.raises(TypeError):
            dumps(doc, sort_keys)
        assert sort_keys, exc
        return
    assert dumps(doc, sort_keys) == want


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        [[]],
        {"a": {}, "b": [[], {}], "c": [[["x", "y"]]]},
        {"edges": [["a", "b"], ["é", "\x07"]], "vertices": ["a", "b", "é", "\x07"]},
        {"edges": [("a", "b")], "n": 2, "x": None, "f": [float("inf"), float("-inf"), float("nan")], "t": True},
        [["a", "b"], ["c", 1]],
        [["a", "b", "c"]],
        {1: ["a"], "1": [["a", "b"]], None: {2.5: "x"}},
    ],
)
def test_fixed_documents(doc):
    assert dumps(doc) == stdlib(doc, False)
    if all(isinstance(k, str) for k in (doc if isinstance(doc, dict) else {})):
        assert dumps(doc, True) == stdlib(doc, True)
