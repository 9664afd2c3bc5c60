from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from dislat import adjunct_representation, canonical_code, serialize, tree_of_lattice, zero_divisor_graph
from dislat import cli
from dislat.cli import _SUITES, _run_suites, main
from dislat.lattice import Lattice, relabel
from dislat.oracle import brute_lattice_iso, lattice_iso_key
from dislat.treeiso import recognize
from tests.conftest import shuffled_copy
from tests.reference import SetGraph, enumerate_lower_dismantlable, non_ancestor_graph, relabeled_tree

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((Path(__file__).parent.parent / "schemas" / "cli_output.schema.json").read_text())


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, "--json", *argv)
    payload = json.loads(out)  # must be a single document
    jsonschema.validate(payload, SCHEMA)
    return code, payload


class TestBuild:
    def test_ex2(self, capsys):
        code, payload = run_json(capsys, "build", DATA / "ex2.adl")
        assert code == 0
        assert payload["n"] == 10
        assert payload["adjunct_elements"] == ["a5", "a6", "a8"]
        assert payload["top_join_reducible"] is False
        assert payload["lower_dismantlable"] is True

    def test_m2(self, capsys):
        code, payload = run_json(capsys, "build", DATA / "m2.adl")
        assert code == 0
        assert payload["n"] == 4
        assert payload["adjunct_elements"] == ["one"]

    def test_malformed_file_exit_2_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.adl"
        bad.write_text("lattice x {\n  chain 0 a\n}\n")
        code, payload = run_json(capsys, "build", bad)
        assert code == 2
        assert payload["error"]["line"] == 3

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, payload = run_json(capsys, "build", tmp_path / "nope.adl")
        assert code == 2


class TestZdg:
    def test_ex2_counts(self, capsys):
        code, payload = run_json(capsys, "zdg", DATA / "ex2.adl")
        assert code == 0
        assert len(payload["vertices"]) == 7
        assert len(payload["edges"]) == 15

    def test_chain_empty_with_warning(self, capsys):
        code, payload = run_json(capsys, "zdg", DATA / "chain4.adl")
        assert code == 0
        assert payload["vertices"] == [] and "warning" in payload

    def test_one_atom_non_chain_empty_with_warning(self, capsys):
        """Outside the class one atom does not make a chain: the graph is
        empty exactly when the lattice has at most one atom, and the warning
        says that."""
        code, built = run_json(capsys, "build", DATA / "one_atom.adl")
        assert (built["n"], built["atoms"], built["adjunct_elements"]) == (5, ["a"], ["d"])
        code, payload = run_json(capsys, "zdg", DATA / "one_atom.adl")
        assert code == 0
        assert payload["vertices"] == []
        assert payload["warning"] == "zero-divisor graph is empty (the lattice has at most one atom)"

    def test_m2_single_edge(self, capsys):
        code, payload = run_json(capsys, "zdg", DATA / "m2.adl")
        assert payload["edges"] == [["a", "b"]]

    def test_dot_byte_stable(self, capsys):
        code, out1 = run(capsys, "zdg", DATA / "m2.adl", "--dot")
        code, out2 = run(capsys, "zdg", DATA / "m2.adl", "--dot")
        assert out1 == out2
        assert out1 == 'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'


class TestAnalyze:
    def test_fig2_block_size(self, capsys):
        code, payload = run_json(capsys, "analyze", DATA / "fig2.adl")
        assert code == 0
        assert payload["basic_block_size"] == 9

    def test_ex2_classes(self, capsys):
        code, payload = run_json(capsys, "analyze", DATA / "ex2.adl")
        assert len(payload["zdg_classes"]) == 6
        assert len(payload["tree_classes"]["classes"]) == 7
        assert payload["ssc"] is None  # hypothesis violated

    def test_m3_ssc(self, capsys):
        code, payload = run_json(capsys, "analyze", DATA / "m3.adl")
        assert payload["ssc"] == {
            "basic_block_is_self": True,
            "ssc": True,
            "all_classes_singleton": True,
        }


class TestIso:
    def test_relabeled_k22_with_witness(self, capsys, tmp_path):
        other = tmp_path / "k22b.adl"
        other.write_text("lattice k22b { chain 0 m n one; adjoin (0, one): s t; }\n")
        code, payload = run_json(capsys, "iso", DATA / "k22.adl", other, "--witness")
        assert code == 0
        assert payload["isomorphic"] is True
        assert payload["zdg_isomorphic"] is True
        assert payload["witness"]["kind"] == "lattice-iso"
        assert payload["witness_route"] == "zdg-lift"
        assert payload["witness_verified"] is True

    @pytest.mark.parametrize(
        "first,second",
        [
            ("lattice c3 { chain 0 a one; }", "lattice c3b { chain 0 b top; }"),
            ((DATA / "ex2.adl").read_text(), (DATA / "ex2.adl").read_text()),
        ],
        ids=["3-chains", "ex2-itself"],
    )
    def test_witness_with_join_irreducible_tops(self, capsys, tmp_path, first, second):
        a, b = tmp_path / "a.adl", tmp_path / "b.adl"
        a.write_text(first)
        b.write_text(second)
        code, payload = run_json(capsys, "iso", a, b, "--witness")
        assert code == 0
        assert payload["isomorphic"] is True
        assert payload["witness_route"] == "tree-match"
        assert payload["witness_verified"] is True

    def test_witness_on_every_lattice_up_to_10(self, capsys, tmp_path):
        """Each lattice of at most 10 elements against a relabeled copy: exit
        0 and a witness that `check_lattice_iso` accepts, on either route.
        The documents are not validated against the schema here, which would
        take most of the time; the tests above validate both routes' shape."""
        import random

        from dislat.treeiso import check_lattice_iso
        from tests.conftest import shuffled_copy

        rng = random.Random(10)
        a, b = tmp_path / "a.adl", tmp_path / "b.adl"
        routes = set()
        for lat in enumerate_lower_dismantlable(10):
            other = shuffled_copy(lat, rng)
            a.write_text(serialize(adjunct_representation(tree_of_lattice(lat))))
            b.write_text(serialize(adjunct_representation(tree_of_lattice(other))))
            code, out = run(capsys, "--json", "iso", a, b, "--witness")
            payload = json.loads(out)
            assert code == 0
            assert check_lattice_iso(lat, other, payload["witness"]["map"])
            routes.add(payload["witness_route"])
        assert routes == {"zdg-lift", "tree-match"}

    def test_not_isomorphic_exit_1(self, capsys):
        code, payload = run_json(capsys, "iso", DATA / "k22.adl", DATA / "m3.adl")
        assert code == 1
        assert payload["isomorphic"] is False
        assert payload["zdg_isomorphic"] is False

    @pytest.mark.parametrize(
        "first,second",
        [
            ("lattice c3 { chain 0 a one; }", "lattice c5 { chain 0 a b c one; }"),
            ("lattice m2 { chain 0 a one; adjoin (0, one): b; }",
             "lattice m2t { chain 0 a one top; adjoin (0, one): b; }"),
        ],
        ids=["3-chain-vs-5-chain", "m2-vs-m2-with-new-top"],
    )
    def test_isomorphic_graphs_of_non_isomorphic_lattices(self, capsys, tmp_path, first, second):
        # join-irreducible tops: the zero-divisor graphs do not decide the lattice
        a, b = tmp_path / "a.adl", tmp_path / "b.adl"
        a.write_text(first + "\n")
        b.write_text(second + "\n")
        code, payload = run_json(capsys, "iso", a, b)
        assert code == 1
        assert payload["isomorphic"] is False
        assert payload["zdg_isomorphic"] is True

    def test_disagreeing_verdicts_with_join_reducible_tops_exit_3(self, capsys, monkeypatch):
        from dislat import treeiso

        monkeypatch.setattr(treeiso, "graph_iso", lambda g1, g2: None)
        code, payload = run_json(capsys, "iso", DATA / "k22.adl", DATA / "k22.adl")
        assert code == 3
        assert payload["error"]["type"] == "InternalInconsistency"

    def test_witness_on_128_element_complete_binary_tree(self, capsys, tmp_path):
        import random

        from dislat import RootedTree, adjunct_representation, serialize

        # nodes 1..127 in heap order: node i has children 2i and 2i + 1
        tree = RootedTree.from_parents({f"e{i}": None if i == 1 else f"e{i // 2}" for i in range(1, 128)})
        names = list(tree.labels)
        random.Random(3).shuffle(names)
        copy = relabeled_tree(tree, {lab: f"w{name[1:]}" for lab, name in zip(tree.labels, names)})
        files = []
        for name, t in (("a", tree), ("b", copy)):
            path = tmp_path / f"{name}.adl"
            path.write_text(serialize(adjunct_representation(t, name=name)))
            files.append(path)
        code, payload = run_json(capsys, "iso", *files, "--witness")
        assert code == 0
        assert payload["isomorphic"] is True and payload["zdg_isomorphic"] is True
        assert payload["witness_verified"] is True
        assert len(payload["witness"]["map"]) == 128

    def test_not_in_class_exit_2(self, capsys, tmp_path):
        # dismantlable but not LOWER dismantlable: the pair sits above the bottom
        bad = tmp_path / "bad.adl"
        bad.write_text("lattice bad { chain 0 a b c one; adjoin (a, c): d; }\n")
        code, payload = run_json(capsys, "iso", bad, bad)
        assert code == 2
        assert payload["error"]["type"] == "NotInClass"
        assert payload["error"]["which"] == "first"

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_one_element_lattice_not_in_class_exit_2(self, capsys, tmp_path, which):
        """`build` and `analyze` answer that a one-element lattice is not
        lower dismantlable, and `iso` refuses it as it refuses any other
        lattice outside the class."""
        one = tmp_path / "one.adl"
        one.write_text("lattice L { chain 0; }\n")
        code, payload = run_json(capsys, "build", one)
        assert code == 0 and payload["lower_dismantlable"] is False
        code, payload = run_json(capsys, "analyze", one)
        assert code == 0 and payload["lower_dismantlable"] is False
        assert payload["ssc"] is None and payload["ssc_hypothesis_violated"] == "not lower dismantlable"
        assert payload["tree_classes"] is None
        assert (payload["basic_block_size"], payload["zdg_classes"]) == (1, [])
        files = (one, DATA / "m2.adl") if which == "first" else (DATA / "m2.adl", one)
        code, payload = run_json(capsys, "iso", *files, "--witness")
        assert code == 2
        assert payload["error"] == {
            "type": "NotInClass", "message": f"{which} lattice is not lower dismantlable", "which": which
        }


class TestRecognize:
    def test_c4_round_trip(self, capsys, tmp_path):
        from dislat import LabeledGraph, elaborate, parse, zero_divisor_graph

        graph_file = tmp_path / "c4.json"
        graph_file.write_text(json.dumps({
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        }))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 0 and payload["in_class"] is True
        rebuilt = elaborate(parse(payload["adl"]))
        got = zero_divisor_graph(rebuilt)
        assert got == LabeledGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])

    def test_c5_not_in_class(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.json"
        graph_file.write_text(json.dumps({
            "vertices": list("12345"),
            "edges": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "1"]],
        }))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 1 and payload["in_class"] is False

    def test_ex2_zdg_round_trip(self, capsys, tmp_path):
        from dislat import elaborate, parse, zero_divisor_graph
        from tests.conftest import load

        source = load("ex2.adl")
        g = zero_divisor_graph(source)
        graph_file = tmp_path / "ex2zdg.json"
        graph_file.write_text(json.dumps(g.to_json_obj()))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 0
        rebuilt = elaborate(parse(payload["adl"]))
        assert zero_divisor_graph(rebuilt) == g

    def test_isolated_vertex_is_not_a_zdg_of_the_output(self, capsys, tmp_path):
        """{a, b, c} with the one edge b-c is the non-ancestor graph of the
        path tree with a above the leaves b and c; the printed lattice's
        zero-divisor graph has no vertex a."""
        from dislat import elaborate, parse, zero_divisor_graph

        graph_file = tmp_path / "abc.json"
        graph_file.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["b", "c"]]}))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 0 and payload["in_class"] is True
        assert payload["zdg_of_output"] is False
        assert zero_divisor_graph(elaborate(parse(payload["adl"]))).vertices == ("b", "c")
        code, out = run(capsys, "recognize", graph_file)
        assert code == 0 and out.startswith("# zdg_of_output: false")
        assert zero_divisor_graph(elaborate(parse(out))).vertices == ("b", "c")

    def test_zdg_of_output_iff_no_isolated_vertex(self, capsys, tmp_path):
        from dislat import elaborate, parse, zero_divisor_graph
        from dislat.oracle import enumerate_rooted_trees

        seen = set()
        for k, tree in enumerate(enumerate_rooted_trees(6)):
            graph = non_ancestor_graph(tree)
            graph_file = tmp_path / f"g{k}.json"
            graph_file.write_text(json.dumps(graph.to_json_obj()))
            code, payload = run_json(capsys, "recognize", graph_file)
            assert code == 0
            by_label = SetGraph(graph.vertices, graph.edges)
            isolated = any(by_label.degree(v) == 0 for v in graph.vertices)
            assert payload["zdg_of_output"] is not isolated
            assert (zero_divisor_graph(elaborate(parse(payload["adl"]))) == graph) is not isolated
            seen.add(isolated)
        assert seen == {True, False}

    def test_bad_json_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "junk.json"
        graph_file.write_text("{not json")
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 2

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "deep.json"
        graph_file.write_text("[" * 200_000 + "]" * 200_000)
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 2
        assert payload["error"]["type"] == "BadGraph"

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": ["a", "b"], "edges": [["a", "a"], ["a", "b"]]},
            [1],
            {"vertices": "ab", "edges": []},
            {"vertices": ["a", "a", "b", "c"], "edges": [["b", "c"]]},
        ],
        ids=["self-loop", "bare-list", "string-vertices", "repeated-vertex"],
    )
    def test_malformed_graph_exit_2(self, capsys, tmp_path, doc):
        graph_file = tmp_path / "bad.json"
        graph_file.write_text(json.dumps(doc))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 2
        assert payload["error"]["type"] == "BadGraph"

    @pytest.mark.parametrize("label", ["a b", "chain", "é", "⊤", "0"])
    def test_label_outside_adl_exit_2(self, capsys, tmp_path, label):
        # the P3 path a - b - label is in class; its .adl would not parse back
        graph_file = tmp_path / "labels.json"
        graph_file.write_text(json.dumps({"vertices": ["a", "b", label], "edges": [["a", "b"], ["b", label]]}))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 2
        assert payload["error"]["type"] == "BadGraph"
        assert repr(label) in payload["error"]["message"]


class TestVerify:
    def test_diam_suite(self, capsys):
        code, payload = run_json(capsys, "verify", "--suite", "diam", "--max-nodes", "7")
        assert code == 0
        assert payload["suites"]["diam"]["violations"] == 0

    def test_t1_suite_seeded(self, capsys):
        code, payload = run_json(capsys, "--seed", "7", "verify", "--suite", "t1", "--max-nodes", "6")
        assert code == 0
        assert payload["suites"]["t1"]["violations"] == 0

    def test_block_confluence_dumps_counterexample(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "verify", "--suite", "block-confluence", "--max-nodes", "5",
            "--dump-dir", tmp_path,
        )
        suite = payload["suites"]["block-confluence"]
        assert code == 1  # non-confluence is a negative mathematical answer
        assert suite["violations"] > 0
        dumped = Path(suite["counterexample_file"])
        assert dumped.exists()
        from dislat import elaborate, parse

        assert elaborate(parse(dumped.read_text())).n == 5

    def test_block_confluence_checks_basic_block_against_closed_form(self, capsys, monkeypatch):
        """A basic block that deletes nothing is not the closed form's fixed
        point: the suite stops with exit 3 and one error document."""
        from dislat import blocks

        monkeypatch.setattr(blocks, "basic_block", lambda lat: lat)
        code, payload = run_json(capsys, "verify", "--suite", "block-confluence", "--max-nodes", "5")
        assert code == 3
        assert list(payload) == ["error"]
        assert payload["error"]["type"] == "InternalInconsistency"
        assert "closed form" in payload["error"]["message"]

    def test_root_filter_restricts_population(self, capsys):
        _, unfiltered = run_json(capsys, "verify", "--suite", "lemma400", "--max-nodes", "6")
        _, filtered = run_json(
            capsys, "verify", "--suite", "lemma400", "--max-nodes", "6", "--root-min-children", "2"
        )
        assert filtered["suites"]["lemma400"]["checked"] < unfiltered["suites"]["lemma400"]["checked"]

    def test_root_min_children_above_two(self, capsys):
        # trees of at most 5 nodes whose root has at least 3 children: 3
        _, payload = run_json(
            capsys, "verify", "--suite", "lemma400", "--max-nodes", "6", "--root-min-children", "3"
        )
        assert payload["suites"]["lemma400"]["checked"] == 3

    def test_no_dump_without_dump_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, payload = run_json(capsys, "verify", "--max-nodes", "5")
        suite = payload["suites"]["block-confluence"]
        assert code == 1 and suite["violations"] > 0
        assert suite["counterexample_file"] is None
        assert "adjoin" in suite["first_counterexample"]["lattice"]
        assert list(tmp_path.iterdir()) == []

    def test_thm704_suite(self, capsys):
        code, payload = run_json(capsys, "verify", "--suite", "thm704", "--max-nodes", "7")
        assert code == 0

    def test_ssc_suite(self, capsys):
        code, payload = run_json(capsys, "verify", "--suite", "ssc", "--max-nodes", "7")
        assert code == 0

    @pytest.mark.parametrize(
        "suite, max_nodes", [("block-confluence", "8"), ("diam", "5")], ids=["with-counterexample", "without"]
    )
    def test_missing_dump_dir_exit_2_before_the_walk(self, capsys, tmp_path, suite, max_nodes):
        """A missing --dump-dir is a usage error found before any lattice is
        checked: block-confluence used to walk up to its first counterexample
        and fail on writing it, and a suite with nothing to dump exited 0."""
        missing = tmp_path / "missing"
        code, payload = run_json(capsys, "verify", "--suite", suite, "--max-nodes", max_nodes, "--dump-dir", missing)
        assert code == 2
        assert payload["error"]["type"] == "BadOption"
        assert str(missing) in payload["error"]["message"]
        assert not missing.exists()

    def test_dump_dir_that_is_a_file_exit_2(self, capsys, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("")
        code = main(["verify", "--suite", "block-confluence", "--max-nodes", "5", "--dump-dir", str(plain)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --dump-dir {str(plain)!r} is not a directory\n"

    @pytest.mark.parametrize("max_nodes", ["1", "0", "-3"])
    def test_max_nodes_below_two_exit_2(self, capsys, max_nodes):
        code, payload = run_json(capsys, "verify", "--suite", "diam", "--max-nodes", max_nodes)
        assert code == 2
        assert payload["error"]["type"] == "BadOption"


    def test_all_suites_at_9_match_golden(self, capsys):
        """The bytes that `dislat --json --seed 0 verify --suite all
        --max-nodes 9` printed before t1 ran brute force within buckets."""
        code, out = run(capsys, "--json", "--seed", "0", "verify", "--suite", "all", "--max-nodes", "9")
        assert code == 1  # block-confluence finds label-level violations
        assert out.encode("utf-8") == (DATA / "verify_all_9.json").read_bytes()

    def test_all_suites_at_10_seed_1_match_golden(self, capsys):
        """The bytes that `dislat --json --seed 1 verify --suite all
        --max-nodes 10` printed when every suite enumerated on its own."""
        code, out = run(capsys, "--json", "--seed", "1", "verify", "--suite", "all", "--max-nodes", "10")
        assert code == 1
        assert out.encode("utf-8") == (DATA / "verify_all_10_seed1.json").read_bytes()

    def test_all_suites_at_11_seed_2_match_golden(self, capsys):
        """The bytes that `dislat --json --seed 2 verify --suite all
        --max-nodes 11` printed when t1 walked every pair of a size."""
        code, out = run(capsys, "--json", "--seed", "2", "verify", "--suite", "all", "--max-nodes", "11")
        assert code == 1
        assert out.encode("utf-8") == (DATA / "verify_all_11_seed2.json").read_bytes()

    def test_all_suites_at_12_seed_3_match_golden(self, capsys):
        """The bytes that `dislat --json --seed 3 verify --suite all
        --max-nodes 12` printed when block-confluence searched every
        deletion order."""
        code, out = run(capsys, "--json", "--seed", "3", "verify", "--suite", "all", "--max-nodes", "12")
        assert code == 1
        assert out.encode("utf-8") == (DATA / "verify_all_12_seed3.json").read_bytes()

    @pytest.mark.parametrize("root_min", ["0", "3"])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_each_suite_alone_prints_its_part_of_all(self, capsys, seed, root_min):
        common = ("--max-nodes", "8", "--root-min-children", root_min)
        _, whole = run_json(capsys, "--seed", seed, "verify", "--suite", "all", *common)
        assert list(whole["suites"]) == sorted(_SUITES)
        for name in _SUITES:
            code, alone = run_json(capsys, "--seed", seed, "verify", "--suite", name, *common)
            assert alone == {**whole, "suites": {name: whole["suites"][name]}}
            assert code == (1 if alone["suites"][name]["violations"] else 0)

    def test_lemma400_names_the_first_bad_pair(self, capsys, monkeypatch):
        """A meet that is wrong on two pairs of the 3-leaf star: the
        counterexample names the first pair, and the lattice counts once."""
        meet = Lattice._meet_idx

        def wrong(lat, x, y):
            if {lat.labels[x], lat.labels[y]} in ({"n1", "n2"}, {"n2", "n3"}):
                return lat.top
            return meet(lat, x, y)

        monkeypatch.setattr(Lattice, "_meet_idx", wrong)
        code, payload = run_json(
            capsys, "verify", "--suite", "lemma400", "--max-nodes", "5", "--root-min-children", "3"
        )
        suite = payload["suites"]["lemma400"]
        assert code == 1
        assert suite["checked"] == 1 and suite["violations"] == 1
        assert suite["first_counterexample"]["reason"] == "meet/incomparability mismatch at (n1, n2)"


def reference_t1(max_nodes: int, seed: int) -> dict:
    """Suite t1 with brute force on every pair."""
    rng = random.Random(seed)
    lats = list(enumerate_lower_dismantlable(max_nodes, 2))
    relabeled = [shuffled_copy(lat, rng) for lat in lats]
    codes = [canonical_code(recognize(zero_divisor_graph(lat))) for lat in lats]
    codes_relab = [canonical_code(recognize(zero_divisor_graph(lat))) for lat in relabeled]
    checked = violations = 0
    first = None
    for i, j in itertools.combinations_with_replacement(range(len(lats)), 2):
        checked += 1
        fast = codes[i] == codes_relab[j]
        slow = brute_lattice_iso(lats[i], relabeled[j]) is not None
        if fast != slow:
            violations += 1
            first = first or {
                "first": serialize(adjunct_representation(tree_of_lattice(lats[i]))),
                "second": serialize(adjunct_representation(tree_of_lattice(relabeled[j]))),
                "codes_equal": fast,
                "brute": slow,
            }
    return {"checked": checked, "violations": violations, "first_counterexample": first}


class TestT1Buckets:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_nodes", [8, 9])
    def test_same_result_as_brute_force_on_every_pair(self, max_nodes, seed):
        assert _run_suites(["t1"], max_nodes, seed, 0, None)["t1"] == reference_t1(max_nodes, seed)

    def test_least_pair_across_sizes_is_the_counterexample(self, monkeypatch):
        """Codes made equal within the trees of 4 nodes, and across those of
        3 and of 5.  The pair (1, 2) of 4-node trees is the first violation
        found, but the least is (0, 3): the 3-node tree of M2 against the
        first 5-node one, met a size later.  M2 is built again for the
        report."""
        real = canonical_code

        def code(tree):
            return {3: "A", 4: "B", 5: "A"}.get(tree.n) or real(tree)

        monkeypatch.setattr(cli.treeiso, "canonical_code", code)
        monkeypatch.setitem(globals(), "canonical_code", code)
        got = _run_suites(["t1"], 7, 3, 0, None)["t1"]
        assert got == reference_t1(7, 3)
        from dislat import elaborate, parse

        first = got["first_counterexample"]
        assert elaborate(parse(first["first"])).n == 4
        second = elaborate(parse(first["second"]))  # the relabeled lattice reads back
        assert second.n == 6 and second.bottom_label == "0"
        assert first["codes_equal"] is True and first["brute"] is False

    def test_least_pair_across_buckets_of_one_size_is_the_counterexample(self, monkeypatch):
        """Codes made equal within the trees of 4 nodes only.  The least
        violating pair is (1, 2): two lattices of 5 elements in different
        buckets, so lattice 1 is not kept in lattice 2's bucket and is built
        again for the report."""
        real = canonical_code

        def code(tree):
            return "B" if tree.n == 4 else real(tree)

        monkeypatch.setattr(cli.treeiso, "canonical_code", code)
        monkeypatch.setitem(globals(), "canonical_code", code)
        got = _run_suites(["t1"], 7, 0, 0, None)["t1"]
        assert got == reference_t1(7, 0)
        assert got["violations"] == 1
        from dislat import elaborate, parse

        first = got["first_counterexample"]
        one, two = (lat for lat in enumerate_lower_dismantlable(7, 2) if lat.n == 5)
        assert lattice_iso_key(one) != lattice_iso_key(two)
        assert brute_lattice_iso(elaborate(parse(first["first"])), one) is not None
        assert brute_lattice_iso(elaborate(parse(first["second"])), two) is not None
        assert first["codes_equal"] is True and first["brute"] is False

    def test_equal_codes_never_cross_buckets(self):
        rng = random.Random(2)
        lats = list(enumerate_lower_dismantlable(10))
        for lat in list(lats):
            perm = list(lat.labels)
            rng.shuffle(perm)
            lats.append(relabel(lat, dict(zip(lat.labels, perm))))
        keys_of_code: dict = {}
        for lat in lats:
            keys_of_code.setdefault(canonical_code(tree_of_lattice(lat)), set()).add(lattice_iso_key(lat))
        assert len(keys_of_code) == len(lats) // 2 == 486
        assert all(len(keys) == 1 for keys in keys_of_code.values())


class TestInternalErrors:
    """An exception that the program does not expect exits 3, never with a
    traceback."""

    @pytest.mark.parametrize("exc", [ValueError("bad value"), KeyError("missing")])
    def test_json(self, capsys, monkeypatch, exc):
        def broken(*_args):
            raise exc

        monkeypatch.setitem(_SUITES, "diam", broken)
        code = main(["--json", "verify", "--suite", "diam", "--max-nodes", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.out + captured.err
        payload = json.loads(captured.out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["error"]["type"] == type(exc).__name__

    def test_text(self, capsys, monkeypatch):
        def broken(*_args):
            raise ValueError("bad value")

        monkeypatch.setitem(_SUITES, "diam", broken)
        code = main(["verify", "--suite", "diam", "--max-nodes", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and captured.err == "error: bad value\n"


USAGE_ERRORS = [
    (["iso", "onlyone"], "the following arguments are required: file_b"),
    (["verify", "--max-nodes", "x"], "argument --max-nodes: invalid int value: 'x'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
]


class TestUsageErrors:
    """A command line that argparse rejects exits 2: under --json with one
    BadOption document, otherwise with argparse's usage text on stderr."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_json(self, capsys, argv, message):
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"]["type"] == "BadOption"
        assert payload["error"]["message"].startswith(message)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--js", "--json"])
    def test_json_after_the_command_or_abbreviated(self, capsys, flag):
        code = main(["verify", flag, "--max-nodes", "x"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and payload["error"]["type"] == "BadOption"

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_text(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: dislat")
        assert f"error: {message}" in captured.err

    def test_json_after_double_dash_is_a_file_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["iso", "--", "--json"])
        assert capsys.readouterr().out == ""


class TestInputEncoding:
    @pytest.mark.parametrize("command", ["build", "zdg", "analyze", "recognize"])
    def test_not_utf8_exit_2(self, capsys, tmp_path, command):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfe" + "lattice x { chain 0 a; }".encode("utf-16-le"))
        code, payload = run_json(capsys, command, bad)
        assert code == 2
        assert payload["error"]["type"] == "UnicodeDecodeError"

    def test_not_utf8_second_iso_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.adl"
        bad.write_bytes(b"lattice x { chain 0 \xe9; }")
        code, payload = run_json(capsys, "iso", DATA / "m2.adl", bad)
        assert code == 2
        assert payload["error"]["type"] == "UnicodeDecodeError"

    def test_not_utf8_text_mode(self, capsys, tmp_path):
        bad = tmp_path / "bad.adl"
        bad.write_bytes(b"\xff\xfe")
        code = main(["build", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error: ")


@pytest.fixture(scope="module")
def random_513(tmp_path_factory):
    """A 513-element lattice of a random recursive tree as .adl, a relabeled
    copy, and its zero-divisor graph as graph JSON."""
    import random

    from dislat import RootedTree, adjunct_representation, lattice_of_tree, serialize, zero_divisor_graph

    rng = random.Random(513)
    tree = RootedTree.from_parents({f"r{i}": None if i == 0 else f"r{rng.randrange(i)}" for i in range(512)})
    folder = tmp_path_factory.mktemp("random513")
    files = {}
    for name, t in (("a", tree), ("b", relabeled_tree(tree, {x: f"w{x}" for x in tree.labels}))):
        files[name] = folder / f"{name}.adl"
        files[name].write_text(serialize(adjunct_representation(t, name=name)))
    graph = zero_divisor_graph(lattice_of_tree(tree))
    files["graph"] = folder / "graph.json"
    files["graph"].write_text(json.dumps(graph.to_json_obj()))
    return files, graph


class TestLargeInputs:
    """Smoke runs on 513 elements; no timing is asserted.  The documents are
    parsed but not validated against the schema, which takes seconds on a
    graph of 128k edges; the tests above validate every document shape."""

    @staticmethod
    def run_json(capsys, *argv) -> tuple[int, dict]:
        code, out = run(capsys, "--json", *argv)
        return code, json.loads(out)

    def test_zdg(self, capsys, random_513):
        from dislat import LabeledGraph

        files, graph = random_513
        code, payload = self.run_json(capsys, "zdg", files["a"])
        assert code == 0
        assert LabeledGraph.from_json_obj(payload) == graph and graph.n == 511

    def test_recognize(self, capsys, random_513):
        from dislat import elaborate, parse, zero_divisor_graph

        files, graph = random_513
        code, payload = self.run_json(capsys, "recognize", files["graph"])
        assert code == 0 and payload["in_class"] is True
        assert zero_divisor_graph(elaborate(parse(payload["adl"]))) == graph

    def test_iso_witness(self, capsys, random_513):
        files, _ = random_513
        code, payload = self.run_json(capsys, "iso", "--witness", files["a"], files["b"])
        assert code == 0
        assert payload["isomorphic"] is True and payload["witness_verified"] is True
        assert len(payload["witness"]["map"]) == 513


class TestGlobalFlags:
    def test_json_flag_after_subcommand(self, capsys):
        code = main(["build", str(DATA / "m2.adl"), "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["command"] == "build"

    def test_human_output_default(self, capsys):
        code, out = run(capsys, "build", DATA / "m2.adl")
        assert "lower dismantlable: True" in out

    def test_parser_built_once_and_flags_do_not_leak(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        parsed = cli._build_parser().parse_args(["--json", "--seed", "5", "verify", "--max-nodes", "4"])
        assert parsed.json is True and parsed.seed == 5 and parsed.max_nodes == 4
        parsed = cli._build_parser().parse_args(["verify"])
        assert parsed.json is False and parsed.seed == 0 and parsed.max_nodes == 8
        parsed = cli._build_parser().parse_args(["verify", "--seed", "2", "--json"])
        assert parsed.json is True and parsed.seed == 2
        assert cli._build_parser().parse_args(["build", "x.adl"]).seed == 0

        argv = ("verify", "--suite", "t1", "--max-nodes", "7")
        code, seeded = run_json(capsys, "--seed", "3", *argv)
        assert code == 0
        code, out = run(capsys, *argv)
        assert code == 0 and out == "t1: checked 190, ok\n"
        code, plain = run_json(capsys, *argv)
        assert plain == seeded  # t1's verdicts do not depend on the seed
        assert run(capsys, "--seed", "3", *argv) == (0, out)
