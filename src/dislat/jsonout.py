"""The JSON text that the CLI prints: exactly the bytes of
``json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=sort_keys)``.

With an indent the stdlib cannot use its C encoder and walks the document
token by token in Python, which is slow on a graph with many edges.  Here a
list of strings, or of pairs of strings, is joined in one pass from its
strings encoded by the C `json.encoder.encode_basestring`, each distinct
label of a pair list once.  Dicts with string keys and other lists recurse,
None, booleans, ints and floats are written as the stdlib writes them, and
anything else (subclasses, dicts with other keys) is rendered by the stdlib
and indented to its depth, so every document gets the stdlib's bytes.  The
tests compare the two on generated documents.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring

_CONSTANTS = {None: "null", True: "true", False: "false"}
_FLOATS = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def dumps(obj: object, sort_keys: bool = False) -> str:
    out: list[str] = []
    _write(obj, "\n", sort_keys, out)
    return "".join(out)


def _write(obj: object, newline: str, sort_keys: bool, out: list[str]) -> None:
    """Append the text of `obj`, whose lines start with `newline`, that is a
    line break and the indent of its depth."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring(obj))
        return
    if obj is None or kind is bool:
        out.append(_CONSTANTS[obj])
        return
    if kind is int:
        out.append(int.__repr__(obj))
        return
    if kind is float:
        out.append("NaN" if obj != obj else _FLOATS.get(obj) or float.__repr__(obj))
        return
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        flat = _flat(obj, inner)
        if flat is not None:
            out.append("[" + inner + flat + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, sort_keys, out)
            sep = "," + inner
        out.append(newline + "]")
        return
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            out.append(sep + encode_basestring(key) + ": ")
            _write(value, inner, sort_keys, out)
            sep = "," + inner
        out.append(newline + "}")
        return
    # no JSON string holds a raw line break, so every one here starts a line
    out.append(json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=sort_keys).replace("\n", newline))


def _flat(items: list | tuple, inner: str) -> str | None:
    """The text between the brackets of a non-empty list of strings or of
    pairs of strings, whose items start with `inner`; None for any other
    list."""
    kinds = set(map(type, items))
    if kinds == {str}:
        return ("," + inner).join(map(encode_basestring, items))
    if kinds <= {list, tuple} and set(map(len, items)) == {2} and set(map(type, chain.from_iterable(items))) == {str}:
        code = {label: encode_basestring(label) for label in set(chain.from_iterable(items))}
        deeper = inner + "  "
        mid, sep = "," + deeper, inner + "]," + inner + "[" + deeper
        if all(len(text) == len(label) + 2 for label, text in code.items()):  # nothing escaped: join the labels
            return "[" + deeper + '"' + ('"' + sep + '"').join(map(('"' + mid + '"').join, items)) + '"' + inner + "]"
        return "[" + deeper + sep.join([code[u] + mid + code[v] for u, v in items]) + inner + "]"
    return None
