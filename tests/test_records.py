"""The package's record classes behave as the frozen dataclasses they
replace: field equality within one class only, hashing of equal records,
the dataclass `repr` text, and assignment refused.  Plus the start-up
budget of `import dislat.cli`.  An isomorphism is no record: it is a plain
dict from labels to labels."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dislat import (
    AdjunctExpr,
    Adjunction,
    RootedTree,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def adjunction():
    return Adjunction(pair=("0", "one"), chain=("b", "c"))


def adjunct_expr():
    return AdjunctExpr(base=("0", "a", "one"), adjunctions=(adjunction(),), name="E")


def rooted_tree():
    return RootedTree(labels=("a", "b", "r"), parent=(2, 2, 2), root=2)


# (maker, fields, repr text of the dataclass it replaces)
RECORDS = {
    "Adjunction": (adjunction, ("pair", "chain"), "Adjunction(pair=('0', 'one'), chain=('b', 'c'))"),
    "AdjunctExpr": (
        adjunct_expr,
        ("base", "adjunctions", "name"),
        "AdjunctExpr(base=('0', 'a', 'one'), adjunctions=(Adjunction(pair=('0', 'one'), chain=('b', 'c')),), "
        "name='E')",
    ),
    "RootedTree": (rooted_tree, ("labels", "parent", "root"), "RootedTree(labels=('a', 'b', 'r'), parent=(2, 2, 2), root=2)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_equal_fields_equal_records(self, name):
        make, _, _ = RECORDS[name]
        assert make() == make()
        assert not make() != make()

    def test_other_class_with_equal_fields_differs(self, name):
        make, fields, _ = RECORDS[name]
        record = make()
        values = tuple(getattr(record, f) for f in fields)
        subclass = type("Other", (type(record),), {})
        other = subclass(*values)
        assert tuple(getattr(other, f) for f in fields) == values
        assert record != other and other != record
        assert record != values

    def test_different_field_differs(self, name):
        make, fields, _ = RECORDS[name]
        record = make()
        values = [getattr(record, f) for f in fields]
        values[0] = tuple(f"changed{k}" for k in range(len(values[0])))  # a tree keeps as many distinct labels as parents
        assert type(record)(*values) != record

    def test_repr_is_dataclass_text(self, name):
        make, _, text = RECORDS[name]
        assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle_round_trip(name):
    make, _, text = RECORDS[name]
    for clone in (copy.copy(make()), copy.deepcopy(make()), pickle.loads(pickle.dumps(make()))):
        assert clone == make() and repr(clone) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_hash_equal(name):
    make, _, _ = RECORDS[name]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_record_refuses_assignment(name):
    make, fields, text = RECORDS[name]
    record = make()
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert repr(record) == text


class TestRootedTreeEquality:
    def test_equal_labels_parent_root(self):
        """Trees built apart, from equal (labels, parent, root), are equal
        and hash alike; the index built at construction plays no part."""
        first = RootedTree(labels=("a", "b", "c"), parent=(0, 0, 1), root=0)
        second = RootedTree(("a", "b", "c"), (0, 0, 1), 0)
        assert first == second and hash(first) == hash(second)
        assert first._children == second._children == ((1,), (2,), ())

    def test_any_field_differs(self):
        tree = RootedTree(labels=("a", "b", "c"), parent=(0, 0, 1), root=0)
        assert tree != RootedTree(labels=("a", "b", "d"), parent=(0, 0, 1), root=0)
        assert tree != RootedTree(labels=("a", "b", "c"), parent=(0, 0, 0), root=0)
        assert tree != RootedTree(labels=("a", "b", "c"), parent=(1, 1, 1), root=1)

    def test_from_parents_equals_constructor(self):
        assert RootedTree.from_parents({"r": None, "a": "r", "b": "r"}) == rooted_tree()


def test_import_loads_no_dataclasses():
    """`import dislat.cli` in a fresh interpreter loads none of the modules
    that `dataclasses` pulls in.  hypothesis loads `dataclasses` into the test
    process itself, so the check runs in a subprocess."""
    probe = (
        "import sys; before = set(sys.modules); import dislat.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
