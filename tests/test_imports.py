"""Every name a module of `src/dislat` imports is used in that module;
every function, class and constant a module defines at its top level is
read somewhere in `src/dislat`; and so is, as an attribute, every private
method and every `__slots__` entry of a class defined there.

`__init__.py` is skipped by the first check: its imports are the package's
exports, and they count as reads for the second.  A name used only in an
annotation counts as used, also inside a string annotation."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dislat"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def names_read(tree: ast.AST) -> set[str]:
    """The names that `tree` loads, also inside a string annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        for ann in (getattr(node, "returns", None), getattr(node, "annotation", None)):  # a def, an arg, x: T
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = names_read(tree)
    return [name for name in imported if name not in used]


def class_members(cls: ast.ClassDef) -> list[str]:
    """The `__slots__` entries named by string literals and the private
    (one leading underscore) methods of a class, in source order."""
    names = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                names.append(node.name)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            names += [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return names


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions, classes and constants of the modules in
    `sources` (module name -> text) that no module reads, as `module.name`,
    and the `class_members` that no module reads as an attribute, as
    `module.Class.name`.  A top-level name counts as read where some module
    loads it, reads it as an attribute (`blocks.basic_block`) or imports it;
    dunder names are left out.  A member counts as read only where an
    attribute of that name is loaded: a slot that is only assigned is
    unread."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read, attributes_loaded = set(), set()
    for tree in trees.values():
        read |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    attributes_loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names if name not in read and not name.startswith("__")]
            if isinstance(node, ast.ClassDef):
                unread += [f"{module}.{node.name}.{m}" for m in class_members(node) if m not in attributes_loaded]
    return unread


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .lattice import Lattice, _bits\n"
        "from .treeiso import RootedTree\n"
        "def f(lat: Lattice) -> 'RootedTree':\n"
        "    return os.path.join(lat)\n"
    )
    assert unused_imports(source) == ["json", "_bits"]


def test_no_unread_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_the_check_sees_an_unread_definition():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "_SPARE: int = 4\n"
            "class Kept: pass\n"
            "def used(x: 'Kept'): return x\n"
            "def _orphan(): return LIMIT\n"
            "def helper(): return 0\n"
            "__version__ = '1'\n"
        ),
        "b": "from . import a\nfrom .a import used\nprint(used(a.helper()))\n",
    }
    assert unread_definitions(sources) == ["a._SPARE", "a._orphan"]


def test_the_check_sees_an_unread_member():
    """A slot that is only assigned and a private method that is never
    called are flagged; a slot read through `self` and a public method
    are not."""
    sources = {
        "a": (
            "class Box:\n"
            "    __slots__ = ('kept', '_spare', '_cache')\n"
            "    def __init__(self):\n"
            "        self.kept, self._spare, self._cache = 1, 2, None\n"
            "    def _fill(self):\n"
            "        self._cache = self.kept\n"
            "    def _stale(self):\n"
            "        return 0\n"
            "    def value(self):\n"
            "        self._fill()\n"
            "        return self._cache\n"
            "    def unused(self):\n"
            "        return 1\n"
        ),
        "b": "from .a import Box\nprint(Box().value())\n",
    }
    assert unread_definitions(sources) == ["a.Box._spare", "a.Box._stale"]
