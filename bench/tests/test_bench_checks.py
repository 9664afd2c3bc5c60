"""Self-tests of the benchmark's checks: each checker passes dislat's real
output and rejects a corrupted copy of it, and the rejection counts as a
failed (and wrong) operation.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from dislat.cli import main  # noqa: E402


def tally_of(op: inputs.Op, rc: int, out: dict) -> run.Tally:
    tally = run.Tally()
    tally.record(op, rc, json.dumps(out), 0.001)
    return tally


def assert_rejected(op: inputs.Op, rc: int, good: dict, bad: dict) -> None:
    assert tally_of(op, rc, good).failed == 0
    tally = tally_of(op, rc, bad)
    assert (tally.attempted, tally.failed, tally.wrong, tally.checked) == (1, 1, 1, 0)


def dislat(argv: list[str]) -> tuple[int, dict]:
    rc, stdout, _, error = run.call_main(main, argv)
    assert error is None
    return rc, json.loads(stdout)


@pytest.fixture
def pair(tmp_path):
    """A 16-element lattice, a relabeled copy and a near miss, as files."""
    rng = random.Random(7)
    tree = inputs.labelled(rng, inputs.random_recursive(rng, 15), "e")
    copy_ = inputs.labelled(rng, list(tree.parent), "w")
    miss = inputs.labelled(rng, inputs.near_miss(rng, list(tree.parent)), "m")
    paths = []
    for name, t in (("a", tree), ("b", copy_), ("c", miss)):
        path = tmp_path / f"{name}.adl"
        path.write_text(inputs.to_adl(t, name, rng))
        paths.append(str(path))
    return (tree, copy_, miss), paths


def test_sweep_counts_follow_a000081():
    want = inputs.sweep_expected()
    assert sum(want.values()) == 42612
    assert want["lemma400"] == 486 and want["t1"] == 285 * 286 // 2


def verify_output() -> dict:
    """What `verify --suite all --max-nodes 10` prints when every count is right."""
    want = inputs.sweep_expected()
    suites = {name: {"checked": n, "violations": 0} for name, n in want.items()}
    suites["block-confluence"].update(violations=124, iso_confluent=want["block-confluence"])
    return {"command": "verify", "max_nodes": 10, "suites": suites}


def test_wrong_checked_count_is_rejected():
    good = verify_output()
    bad = copy.deepcopy(good)
    bad["suites"]["ssc"]["checked"] -= 1
    op = inputs.Op("verify", [], inputs.check_verify)
    assert_rejected(op, 1, good, bad)
    assert tally_of(op, 1, good).checked == sum(inputs.sweep_expected().values())


def test_verify_output_missing_a_field_is_rejected():
    good = verify_output()
    bad = copy.deepcopy(good)
    del bad["suites"]["block-confluence"]["iso_confluent"]
    assert_rejected(inputs.Op("verify", [], inputs.check_verify), 1, good, bad)


def test_extra_zdg_edge_is_rejected(pair):
    (tree, _, _), (a, _, _) = pair
    rc, good = dislat(["--json", "zdg", a])
    child = next(v for v in range(1, tree.n) if tree.parent[v] != 0)
    extra = sorted((tree.labels[child], tree.labels[tree.parent[child]]))
    bad = copy.deepcopy(good)
    bad["edges"].append(extra)
    assert_rejected(inputs.Op("zdg", [], lambda rc, out: inputs.check_zdg(tree, rc, out)), rc, good, bad)


def test_wrong_iso_verdict_is_rejected(pair):
    (tree, copy_, miss), (a, b, c) = pair
    for other, path in ((copy_, b), (miss, c)):
        rc, good = dislat(["--json", "iso", a, path])
        bad = {**good, "isomorphic": not good["isomorphic"]}
        op = inputs.Op("iso", [], lambda rc, out, other=other: inputs.check_iso(tree, other, rc, out))
        assert_rejected(op, rc, good, bad)


def test_witness_breaking_order_is_rejected(pair):
    (tree, copy_, _), (a, b, _) = pair
    rc, good = dislat(["--json", "iso", a, b, "--witness"])
    leaf = next(v for v in range(1, tree.n) if v not in tree.parent)
    x, y = tree.labels[leaf], tree.labels[tree.parent[leaf]]
    bad = copy.deepcopy(good)
    images = bad["witness"]["map"]
    images[x], images[y] = images[y], images[x]
    op = inputs.Op("iso-witness", [], lambda rc, out: inputs.check_witness(tree, copy_, rc, out))
    assert_rejected(op, rc, good, bad)


def test_error_document_fails_without_being_wrong():
    op = inputs.Op("build", [], lambda rc, out: None)
    tally = tally_of(op, 2, {"error": {"type": "BudgetExceeded", "message": "over budget"}})
    assert (tally.failed, tally.wrong) == (1, 0)


def test_round_inputs_repeat_for_a_seed(tmp_path):
    ops = inputs.round_ops("single", 3, 1, str(tmp_path / "x"))
    inputs.round_ops("single", 3, 1, str(tmp_path / "y"))
    assert len(ops) == 5 * len(inputs.SINGLE_SPECS)
    texts = [sorted(p.read_text() for p in (tmp_path / d).iterdir()) for d in ("x", "y")]
    assert texts[0] == texts[1]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.MIN_ROUNDS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "checked_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
