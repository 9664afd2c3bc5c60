"""Inputs of the dislat benchmark, generated from a seed, and the checks that
judge dislat's outputs on them.

A lower dismantlable lattice is a rooted tree (the top is the root) with a
bottom adjoined under the leaves.  Every input here is made from a parent
array, and every expected answer is computed from that array by the formulas
below.  Nothing in this module imports dislat, so the checks stand apart
from the program they judge.

Regenerate the inputs of a workload from its seed:

    python3 bench/inputs.py --workload single --seed 1 --rounds 2 --out bench/out/inputs
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

# OEIS A000081: rooted trees on n unlabeled nodes, n = 1..9.
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286)
# Partition numbers p(0..8).
PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15, 22)

SWEEP_MAX_NODES = 10


# -- rooted trees on parent arrays ---------------------------------------------


@dataclass(frozen=True)
class Tree:
    """Rooted tree with node 0 as root; parent[0] == -1."""

    labels: tuple[str, ...]
    parent: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return kids

    def ancestors(self) -> list[int]:
        """Bitmask of the proper ancestors of each node."""
        anc = [0] * self.n
        for v in self.bfs_order()[1:]:
            p = self.parent[v]
            anc[v] = anc[p] | (1 << p)
        return anc

    def bfs_order(self) -> list[int]:
        kids = self.children()
        order = [0]
        for v in order:
            order.extend(kids[v])
        return order


def random_recursive(rng: random.Random, nodes: int) -> list[int]:
    """Each node attaches to a uniform earlier node; resampled until the root
    has at least two children (a join-reducible top)."""
    while True:
        parent = [-1] + [rng.randrange(i) for i in range(1, nodes)]
        if parent.count(0) >= 2:
            return parent


def complete_binary(nodes: int) -> list[int]:
    return [-1] + [(i - 1) // 2 for i in range(1, nodes)]


def spider(legs: int, length: int) -> list[int]:
    parent = [-1]
    for _ in range(legs):
        parent.append(0)
        for _ in range(length - 1):
            parent.append(len(parent) - 1)
    return parent


def caterpillar(rng: random.Random, nodes: int) -> list[int]:
    """A spine hanging from the root; every other node is a leaf on a random
    spine node.  The root keeps at least one leaf besides the spine."""
    spine = max(2, nodes // 3)
    parent = [-1] + list(range(spine - 1))
    parent.append(0)
    while len(parent) < nodes:
        parent.append(rng.randrange(spine))
    return parent


def shape_parents(rng: random.Random, shape: str, size: int | tuple[int, int]) -> list[int]:
    """Parent array of a tree whose lattice has `size` elements (a spider is
    given by its leg count and leg length instead)."""
    if shape == "recursive":
        return random_recursive(rng, size - 1)
    if shape == "binary":
        return complete_binary(size - 1)
    if shape == "spider":
        return spider(*size)
    if shape == "caterpillar":
        return caterpillar(rng, size - 1)
    raise ValueError(f"unknown shape {shape!r}")


def labelled(rng: random.Random, parent: list[int], prefix: str) -> Tree:
    """The tree with distinct random labels `prefix<k>`."""
    names = [f"{prefix}{k}" for k in range(len(parent))]
    rng.shuffle(names)
    return Tree(tuple(names), tuple(parent))


def near_miss(rng: random.Random, parent: list[int]) -> list[int]:
    """A tree of the same size, root degree still >= 2, that is not
    isomorphic to `parent`'s: one leaf moves to another parent."""
    tree = Tree(tuple(map(str, range(len(parent)))), tuple(parent))
    code = ahu(tree)
    kids = tree.children()
    leaves = [v for v in range(1, tree.n) if not kids[v]]
    while True:
        leaf = rng.choice(leaves)
        target = rng.randrange(tree.n)
        if target == leaf or target == parent[leaf]:
            continue
        moved = list(parent)
        moved[leaf] = target
        if moved.count(0) >= 2 and ahu(Tree(tree.labels, tuple(moved))) != code:
            return moved


def ahu(tree: Tree) -> str:
    """Aho-Hopcroft-Ullman code: equal codes iff isomorphic rooted trees."""
    kids = tree.children()
    code = [""] * tree.n
    for v in reversed(tree.bfs_order()):
        code[v] = "(" + "".join(sorted(code[c] for c in kids[v])) + ")"
    return code[0]


# -- text forms of the inputs ---------------------------------------------------


def to_adl(tree: Tree, name: str, rng: random.Random) -> str:
    """An adjunct representation of the tree's lattice: the base chain runs
    from the bottom up one root path; every other branch is a chain adjoined
    at (0, v) once v is present.  Child order is shuffled, so two copies of
    one tree read differently."""
    kids = tree.children()
    for ks in kids:
        rng.shuffle(ks)

    def path_down(c: int) -> list[int]:
        out = [c]
        while kids[out[-1]]:
            out.append(kids[out[-1]][0])
        return out

    lab = tree.labels
    base = path_down(0)
    lines = [f"lattice {name} {{", "  chain 0 " + " ".join(lab[v] for v in reversed(base)) + ";"]
    queue = list(base)
    for v in queue:
        for c in kids[v][1:]:
            branch = path_down(c)
            lines.append(f"  adjoin (0, {lab[v]}): " + " ".join(lab[u] for u in reversed(branch)) + ";")
            queue.extend(branch)
    lines.append("}")
    return "\n".join(lines) + "\n"


_STMT = re.compile(r"(chain|adjoin\s*\(\s*0\s*,\s*(\S+?)\s*\)\s*:)([^;]*);")


def parse_adl(text: str) -> dict[str, str | None]:
    """Parent map of the tree of an .adl document whose pairs all start at 0:
    each chain hangs, top element first, below its pair's second element."""
    text = re.sub(r"#[^\n]*", "", text)
    body = text[text.index("{") + 1 : text.rindex("}")]
    parents: dict[str, str | None] = {}
    for stmt in _STMT.finditer(body):
        elems = stmt.group(3).split()
        if stmt.group(1) == "chain":
            elems = elems[1:] if elems[:1] == ["0"] else []
            above: str | None = None
        else:
            above = stmt.group(2)
        if not elems:
            raise ValueError(f"chain without elements above 0: {stmt.group(0)!r}")
        for lower, upper in zip(elems, elems[1:]):
            parents[lower] = upper
        parents[elems[-1]] = above
    if len(body.split(";")) - 1 != len(_STMT.findall(body)):
        raise ValueError("statement outside the chain/adjoin (0, b) forms")
    return parents


def tree_of_parent_map(parents: dict[str, str | None]) -> Tree:
    roots = [v for v, p in parents.items() if p is None]
    if len(roots) != 1:
        raise ValueError(f"{len(roots)} roots")
    labels = roots + sorted(v for v in parents if parents[v] is not None)
    index = {v: i for i, v in enumerate(labels)}
    parent = [-1] + [index[parents[v]] for v in labels[1:]]
    tree = Tree(tuple(labels), tuple(parent))
    if len(tree.bfs_order()) != tree.n:
        raise ValueError("parent links do not form one tree")
    return tree


def zdg_of(tree: Tree) -> tuple[set[str], set[frozenset[str]]]:
    """Zero-divisor graph of the tree's lattice: two nonzero elements meet at
    the bottom exactly when neither is an ancestor of the other, so the edges
    are the incomparable pairs and the vertices the elements on an edge."""
    anc = tree.ancestors()
    edges = set()
    for u in range(1, tree.n):
        for v in range(u + 1, tree.n):
            if not (anc[u] >> v & 1 or anc[v] >> u & 1):
                edges.add(frozenset((tree.labels[u], tree.labels[v])))
    return {x for e in edges for x in e}, edges


def graph_json(tree: Tree) -> str:
    vertices, edges = zdg_of(tree)
    return json.dumps({"vertices": sorted(vertices), "edges": sorted(sorted(e) for e in edges)})


# -- expected answers ------------------------------------------------------------


def basic_block_size(tree: Tree) -> int:
    """2 (bottom and top) plus the non-root nodes without exactly one child;
    2 for a path."""
    kids = tree.children()
    if all(len(k) <= 1 for k in kids):
        return 2
    return 2 + sum(1 for v in range(1, tree.n) if len(kids[v]) != 1)


def expected_build(tree: Tree) -> dict:
    kids = tree.children()
    lab = tree.labels
    return {
        "command": "build",
        "n": tree.n + 1,
        "bottom": "0",
        "top": lab[0],
        "atoms": sorted(lab[v] for v in range(tree.n) if not kids[v]),
        "adjunct_elements": sorted(lab[v] for v in range(tree.n) if len(kids[v]) >= 2),
        "lower_dismantlable": True,
        "top_join_reducible": len(kids[0]) >= 2,
    }


def sweep_expected() -> dict[str, int]:
    """`checked` of every verify suite, from A000081 and partition numbers.
    Trees have 1..SWEEP_MAX_NODES-1 nodes; one tree of each size is a path (a
    chain, whose graph is empty); a(n) - a(n-1) trees of n nodes have root
    degree >= 2; the spiders of n nodes (root the only branching node) number
    p(n-1) - 1; thm704 also checks the multisets of 2..4 part sizes in 1..4."""
    sizes = range(1, SWEEP_MAX_NODES)
    all_trees = sum(A000081[n - 1] for n in sizes)
    root_ge2 = sum(A000081[n - 1] - A000081[n - 2] for n in sizes if n >= 2)
    spiders = sum(PARTITIONS[n - 1] - 1 for n in sizes)
    multisets = sum(math.comb(4 + k - 1, k) for k in range(2, 5))
    return {
        "diam": all_trees - len(sizes),
        "lemma400": all_trees,
        "thm704": multisets + spiders,
        "ssc": root_ge2,
        "t1": root_ge2 * (root_ge2 + 1) // 2,
        "block-confluence": all_trees,
    }


# -- checks: None when the output is right, else the reason -----------------------


def check_verify(rc: int, out: dict) -> str | None:
    want = sweep_expected()
    suites = out.get("suites", {})
    if set(suites) != set(want):
        return f"suites {sorted(suites)}"
    for name, count in want.items():
        got = suites[name]
        if got["checked"] != count:
            return f"{name}: checked {got['checked']}, want {count}"
        if name == "block-confluence":
            if got["iso_confluent"] != count:
                return f"block-confluence: iso_confluent {got['iso_confluent']} of {count}"
        elif got["violations"] != 0:
            return f"{name}: {got['violations']} violation(s)"
    want_rc = 1 if suites["block-confluence"]["violations"] else 0
    if rc != want_rc:
        return f"exit {rc}, want {want_rc}"
    return None


def check_build(tree: Tree, rc: int, out: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    want = expected_build(tree)
    bad = sorted(k for k in want if out.get(k) != want[k])
    return f"fields differ: {bad}" if bad else None


def check_zdg(tree: Tree, rc: int, out: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    vertices, edges = zdg_of(tree)
    if set(out.get("vertices", ())) != vertices or len(out["vertices"]) != len(vertices):
        return "vertex set differs"
    got = [frozenset(e) for e in out.get("edges", ())]
    if set(got) != edges or len(got) != len(edges):
        return f"edge set differs ({len(got)} edges, want {len(edges)})"
    return None


def check_analyze(tree: Tree, rc: int, out: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    size = basic_block_size(tree)
    if out.get("n") != tree.n + 1 or out.get("basic_block_size") != size:
        return f"basic block {out.get('basic_block_size')}, want {size}"
    ssc = out.get("ssc") or {}
    want = size == tree.n + 1
    if sorted(ssc) != ["all_classes_singleton", "basic_block_is_self", "ssc"]:
        return "ssc report missing"
    if set(ssc.values()) != {want}:
        return f"ssc answers {ssc}, want all {want}"
    return None


def check_recognize(tree: Tree, rc: int, out: dict) -> str | None:
    if rc != 0 or out.get("in_class") is not True:
        return f"exit {rc}, in_class {out.get('in_class')}"
    try:
        rebuilt = tree_of_parent_map(parse_adl(out["adl"]))
    except (KeyError, ValueError) as exc:
        return f"unreadable .adl: {exc}"
    if zdg_of(rebuilt) != zdg_of(tree):
        return "reconstructed graph differs from the input graph"
    return None


def check_iso(t1: Tree, t2: Tree, rc: int, out: dict) -> str | None:
    want = ahu(t1) == ahu(t2)
    if out.get("isomorphic") is not want or rc != (0 if want else 1):
        return f"verdict {out.get('isomorphic')} (exit {rc}), want {want}"
    return None


def check_witness(t1: Tree, t2: Tree, rc: int, out: dict) -> str | None:
    """The map must be a bijection of the lattices that preserves order both
    ways: x <= y iff x is 0, x == y, or y is an ancestor of x."""
    if rc != 0 or out.get("isomorphic") is not True:
        return f"exit {rc}, isomorphic {out.get('isomorphic')}"
    mapping = (out.get("witness") or {}).get("map") or {}
    elems1, elems2 = ("0", *t1.labels), ("0", *t2.labels)
    if sorted(mapping) != sorted(elems1) or sorted(mapping.values()) != sorted(elems2):
        return "witness is not a bijection of the elements"
    leq1, leq2 = _order(t1), _order(t2)
    for x in elems1:
        for y in elems1:
            if ((x, y) in leq1) != ((mapping[x], mapping[y]) in leq2):
                return f"witness breaks order at ({x}, {y})"
    return None


def _order(tree: Tree) -> set[tuple[str, str]]:
    anc = tree.ancestors()
    lab = tree.labels
    leq = {("0", y) for y in ("0", *lab)}
    for v in range(tree.n):
        leq.add((lab[v], lab[v]))
        leq.update((lab[v], lab[a]) for a in range(tree.n) if anc[v] >> a & 1)
    return leq


# -- workloads ----------------------------------------------------------------------


@dataclass
class Op:
    """One dislat command and the check of its JSON output."""

    kind: str
    argv: list[str]
    check: Callable[[int, dict], str | None]


# Per round, in elements of the lattice (a spider: legs, leg length).  The
# complete binary tree of 32 elements is left out of witness: its brute-force
# graph search takes 0.1 s to 50 s depending on the labels.
SINGLE_SPECS = (
    ("recursive", 48), ("recursive", 72), ("binary", 64), ("spider", (6, 10)), ("caterpillar", 60),
)
WITNESS_SPECS = (
    ("binary", 16), ("spider", (3, 6)), ("spider", (4, 8)), ("spider", (6, 5)), ("spider", (5, 7)),
    ("recursive", 24), ("recursive", 32), ("recursive", 40),
    ("caterpillar", 24), ("caterpillar", 40),
)


def round_ops(workload: str, seed: int, round_no: int, out_dir: str) -> list[Op]:
    """The commands of one round.  Files go to `out_dir`; the same
    (workload, seed, round) always gives the same files.

    The shapes of round r, the near misses and the order of the branches in
    every file are drawn from r alone, so runs with any seed do the same
    work and their timings compare like with like.  The seed draws the
    labels of every lattice and of its copy."""
    os.makedirs(out_dir, exist_ok=True)
    shapes = random.Random(f"{workload}:shapes:{round_no}")
    names = random.Random(f"{workload}:{seed}:{round_no}")
    if workload == "sweep":
        argv = ["--json", "--seed", str(seed), "verify", "--suite", "all",
                "--max-nodes", str(SWEEP_MAX_NODES), "--dump-dir", out_dir]
        return [Op("verify", argv, check_verify)]
    ops: list[Op] = []
    specs = SINGLE_SPECS if workload == "single" else WITNESS_SPECS
    for i, (shape, size) in enumerate(specs):
        parent = shape_parents(shapes, shape, size)
        tree = labelled(names, parent, "e")
        base = os.path.join(out_dir, f"r{round_no}_{i}")
        adl = _write(base + "_a.adl", to_adl(tree, f"a{i}", shapes))
        if workload == "witness":
            copy = labelled(names, parent, "w")
            adl_b = _write(base + "_b.adl", to_adl(copy, f"b{i}", shapes))
            ops.append(Op("iso-witness", ["--json", "iso", adl, adl_b, "--witness"],
                          _bind(check_witness, tree, copy)))
            continue
        # iso against a relabeled copy, or against a near miss
        other = labelled(names, parent if i % 2 == 0 else near_miss(shapes, parent), "w")
        adl_b = _write(base + "_b.adl", to_adl(other, f"b{i}", shapes))
        graph = _write(base + "_g.json", graph_json(tree))
        ops += [
            Op("build", ["--json", "build", adl], _bind(check_build, tree)),
            Op("zdg", ["--json", "zdg", adl], _bind(check_zdg, tree)),
            Op("analyze", ["--json", "analyze", adl], _bind(check_analyze, tree)),
            Op("recognize", ["--json", "recognize", graph], _bind(check_recognize, tree)),
            Op("iso", ["--json", "iso", adl, adl_b], _bind(check_iso, tree, other)),
        ]
    return ops


def _bind(check, *trees) -> Callable[[int, dict], str | None]:
    return lambda rc, out: check(*trees, rc, out)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description="write the inputs of a workload")
    parser.add_argument("--workload", choices=("sweep", "single", "witness"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for r in range(args.rounds):
        for op in round_ops(args.workload, args.seed, r, args.out):
            print("dislat", " ".join(op.argv))


if __name__ == "__main__":
    main()
