"""Every name a module of `src/dislat` imports is used in that module, and
every function, class and constant a module defines at its top level is
read somewhere in `src/dislat`.

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


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions, classes and constants of the modules in
    `sources` (module name -> text) that no module reads, as `module.name`.
    A name counts as read where some module loads it, reads it as an
    attribute (`blocks.basic_block`) or imports it; dunder names are left
    out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
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
