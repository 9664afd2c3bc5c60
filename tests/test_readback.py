"""Every `.adl` the CLI prints reads back as the lattice it names.

Three commands print `.adl` text: `recognize` prints the lattice of the tree
it reconstructs (as `adl` under `--json`, after a comment line otherwise),
`verify` prints each counterexample (`lattice`, and `first` and `second`
for t1), and `verify --dump-dir` writes block-confluence's counterexample
to a file.  Each must parse and elaborate to the lattice the output
describes:

- for `recognize`, a lattice whose tree has the input as its non-ancestor
  graph, and whose zero-divisor graph is the input when `zdg_of_output`
  says so;
- for `verify`, the very lattice the suite checked, label for label.

The graphs come from the fuzz generators of `tests/test_fuzz_cli.py`.  The
suites find no violation on their own, except block-confluence, so each of
the others gets one: the check of the k-th lattice it sees is made to fail,
and the lattice handed to that check is recorded.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from dislat import LabeledGraph, cli, elaborate, lattice, oracle, parse, treeiso, zdg
from dislat.treeiso import tree_of_lattice
from tests.test_fuzz_cli import FUZZ, random_graph, tree_graph
from tests.reference import explore_deletion_orders, non_ancestor_graph


def read_back(text: str):
    return elaborate(parse(text))


@given(st.one_of(random_graph(), tree_graph()))
@FUZZ
def test_recognize_adl_reads_back(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--json", "recognize", str(path)])
        if code != 0:
            return
        payload = json.loads(out.getvalue())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["recognize", str(path)]) == 0
    graph = LabeledGraph.from_json_obj(doc)
    lat = read_back(payload["adl"])
    assert non_ancestor_graph(tree_of_lattice(lat)) == graph
    assert (zdg.zero_divisor_graph(lat) == graph) is payload["zdg_of_output"]
    assert parse(out.getvalue()) == parse(payload["adl"])


class FlagKth:
    """Wraps a check: the k-th call on an enumerated lattice (`of_item`
    finds it from the arguments, or returns None for any other call) fails,
    and that lattice is recorded."""

    def __init__(self, real, k, of_item, failing):
        self.real, self.k, self.of_item, self.failing = real, k, of_item, failing
        self.calls, self.flagged = 0, None

    def __call__(self, *args):
        result = self.real(*args)
        lat = self.of_item(*args)
        if lat is not None:
            self.calls += 1
            if self.calls == self.k:
                self.flagged = lat
                return self.failing(result)
        return result


class Items(cli._Item):
    """The enumerated items, recorded in order."""

    seen: list[cli._Item] = []

    def __init__(self, tree):
        super().__init__(tree)
        Items.seen.append(self)


def lattice_of_graph(graph):
    return next((item.lat for item in Items.seen if item.__dict__.get("graph") is graph), None)


def lattice_itself(lat, *_):
    return lat


FLAGS = {
    "diam": ("dislat.zdg.connectivity_report", lattice_of_graph, lambda r: {**r, "connected": False}),
    "lemma400": ("dislat.cli._meet_mismatch", lattice_itself, lambda r: "forced"),
    "thm704": ("dislat.zdg.complete_multipartite_parts", lattice_of_graph, lambda r: None),
    "ssc": ("dislat.blocks.ssc_equivalence_report", lattice_itself, lambda r: {"forced": True, "other": False}),
}


def run_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


VERIFY = dict(
    max_nodes=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
    root_min=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=1, max_value=12),
)


@given(suite=st.sampled_from(sorted(FLAGS)), **VERIFY)
@FUZZ
def test_verify_lattice_reads_back(suite, max_nodes, seed, root_min, k):
    target, of_item, failing = FLAGS[suite]
    module, name = target.rsplit(".", 1)
    flag = FlagKth(getattr(importlib.import_module(module), name), k, of_item, failing)
    Items.seen = []
    with mock.patch(target, flag), mock.patch("dislat.cli._Item", Items), tempfile.TemporaryDirectory() as tmp:
        argv = ["--json", "--seed", str(seed), "verify", "--suite", suite, "--max-nodes", str(max_nodes),
                "--root-min-children", str(root_min), "--dump-dir", tmp]
        result = json.loads(run_output(argv))["suites"][suite]
    if flag.flagged is None:
        assert result["violations"] == 0
        return
    assert read_back(result["first_counterexample"]["lattice"]) == flag.flagged


@given(mode=st.sampled_from(["brute", "code"]), **VERIFY)
@FUZZ
def test_verify_t1_pair_reads_back(mode, max_nodes, seed, root_min, k):
    """t1 on a pair brute force gets wrong, within a bucket, or on a
    relabelled copy whose code is made that of the lattice before it, which
    lies in another bucket when the size or the key changes between them;
    there t1 builds `first` again from the enumeration."""
    pairs = []
    copies = []  # (lattice, its relabelled copy), in t1's order
    if mode == "brute":
        def of_pair(lat_i, relab):
            pairs.append((lat_i, relab))
            return lat_i

        target, real = "dislat.oracle.brute_lattice_iso", oracle.brute_lattice_iso
        failing = lambda r: None if r is not None else object()  # noqa: E731
    else:
        codes = []

        def of_pair(tree):  # every other call codes a relabelled copy, after its lattice
            codes.append(real(tree))
            if len(codes) % 2 or len(copies) < 2:
                return None
            pairs.append((copies[-2][0], copies[-1][1]))
            return pairs[-1]

        target, real = "dislat.treeiso.canonical_code", treeiso.canonical_code
        failing = lambda code: codes[-4]  # noqa: E731  (the code of the lattice before)

    def relabel(lat, mapping):
        copies.append((lat, lattice.relabel(lat, mapping)))
        return copies[-1][1]

    flag = FlagKth(real, k, of_pair, failing)
    with mock.patch(target, flag), mock.patch("dislat.cli.relabel", relabel):
        argv = ["--json", "--seed", str(seed), "verify", "--suite", "t1", "--max-nodes", str(max_nodes),
                "--root-min-children", str(root_min)]
        result = json.loads(run_output(argv))["suites"]["t1"]
    if flag.flagged is None:
        assert result["violations"] == 0
        return
    first, second = pairs[k - 1]
    counterexample = result["first_counterexample"]
    assert read_back(counterexample["second"]) == second
    assert read_back(counterexample["first"]) == first


@given(max_nodes=VERIFY["max_nodes"], seed=VERIFY["seed"], root_min=VERIFY["root_min"])
@FUZZ
def test_block_confluence_counterexample_and_dump_read_back(max_nodes, seed, root_min):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--json", "--seed", str(seed), "verify", "--suite", "block-confluence",
                "--max-nodes", str(max_nodes), "--root-min-children", str(root_min), "--dump-dir", tmp]
        result = json.loads(run_output(argv))["suites"]["block-confluence"]
        dumped = Path(tmp, "block_confluence_counterexample.adl")
        dumped_text = dumped.read_text(encoding="utf-8") if dumped.exists() else None
    # the first lattice of the same walk with two fixed points, by the search over deletion orders
    lattices = map(treeiso.lattice_of_tree, oracle.enumerate_rooted_trees(max_nodes - 1, root_min))
    counterexample = next((lat for lat in lattices if len(explore_deletion_orders(lat)) > 1), None)
    if counterexample is None:
        assert result["first_counterexample"] is None and dumped_text is None
        return
    lat = read_back(result["first_counterexample"]["lattice"])
    assert lat == counterexample
    assert sorted(map(sorted, explore_deletion_orders(lat))) == result["first_counterexample"]["fixed_points"]
    assert dumped_text == result["first_counterexample"]["lattice"]
    assert read_back(dumped_text) == counterexample
