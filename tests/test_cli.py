from __future__ import annotations

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from dislat.cli import main

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
        assert payload["witness"]["kind"] == "lattice-iso"
        assert payload["witness_verified"] is True

    def test_not_isomorphic_exit_1(self, capsys):
        code, payload = run_json(capsys, "iso", DATA / "k22.adl", DATA / "m3.adl")
        assert code == 1
        assert payload["isomorphic"] is False

    def test_not_in_class_exit_2(self, capsys, tmp_path):
        # dismantlable but not LOWER dismantlable: the pair sits above the bottom
        bad = tmp_path / "bad.adl"
        bad.write_text("lattice bad { chain 0 a b c one; adjoin (a, c): d; }\n")
        code, payload = run_json(capsys, "iso", bad, bad)
        assert code == 2
        assert payload["error"]["type"] == "NotInClass"
        assert payload["error"]["which"] == "first"


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

    def test_bad_json_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "junk.json"
        graph_file.write_text("{not json")
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": ["a", "b"], "edges": [["a", "a"], ["a", "b"]]},
            [1],
            {"vertices": "ab", "edges": []},
        ],
        ids=["self-loop", "bare-list", "string-vertices"],
    )
    def test_malformed_graph_exit_2(self, capsys, tmp_path, doc):
        graph_file = tmp_path / "bad.json"
        graph_file.write_text(json.dumps(doc))
        code, payload = run_json(capsys, "recognize", graph_file)
        assert code == 2
        assert payload["error"]["type"] == "BadGraph"


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

    def test_root_filter_restricts_population(self, capsys):
        _, unfiltered = run_json(capsys, "verify", "--suite", "lemma400", "--max-nodes", "6")
        _, filtered = run_json(
            capsys, "verify", "--suite", "lemma400", "--max-nodes", "6", "--root-min-children", "2"
        )
        assert filtered["suites"]["lemma400"]["checked"] < unfiltered["suites"]["lemma400"]["checked"]

    def test_thm704_suite(self, capsys):
        code, payload = run_json(capsys, "verify", "--suite", "thm704", "--max-nodes", "7")
        assert code == 0

    def test_ssc_suite(self, capsys):
        code, payload = run_json(capsys, "verify", "--suite", "ssc", "--max-nodes", "7")
        assert code == 0

    @pytest.mark.parametrize("max_nodes", ["1", "0", "-3"])
    def test_max_nodes_below_two_exit_2(self, capsys, max_nodes):
        code, payload = run_json(capsys, "verify", "--suite", "diam", "--max-nodes", max_nodes)
        assert code == 2
        assert payload["error"]["type"] == "BadOption"


class TestGlobalFlags:
    def test_json_flag_after_subcommand(self, capsys):
        code = main(["build", str(DATA / "m2.adl"), "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["command"] == "build"

    def test_human_output_default(self, capsys):
        code, out = run(capsys, "build", DATA / "m2.adl")
        assert "lower dismantlable: True" in out
