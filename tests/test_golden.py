"""Byte tests of the CLI against committed outputs.

The files under tests/data/golden/ hold the exact stdout of one command each.
They were written by earlier versions, so they pin the bytes later changes
must keep: the graph and JSON outputs come from the version before graphs
became neighbour masks and the JSON writer became flat, and the `build`
outputs from the version before the `.adl` reader matched regular
expressions and tree-shaped lattices skipped the pair scan:

    dislat --json zdg F.adl                  > F.zdg.json
    dislat zdg F.adl                         > F.zdg.txt
    dislat --json analyze F.adl              > F.analyze.json
    dislat --json recognize F.zdg.json       > F.recognize.json
    dislat --json iso F.adl F.adl --witness  > F.iso_witness.json
    dislat --json build F.adl                > F.build.json
    dislat build F.adl                       > F.build.txt

for F in fig2 and ex2, plus `iso --witness` and both `build` outputs of k22
(the zdg-lift route; fig2 and ex2 have join-irreducible tops).  These exit 0.
A file against itself gives the identity map, so two witnesses pin pairs
of files whose labels differ, where the map shows how images are picked:

    dislat --json iso cbt15.adl cbt15_shuffled.adl --witness > cbt15.shuffled.iso_witness.json
    dislat --json iso fig2.adl fig2_shuffled.adl --witness   > fig2.shuffled.iso_witness.json
    dislat --json iso swap7.adl swap7_shuffled.adl --witness > swap7.shuffled.iso_witness.json

cbt15.adl is the 16-element lattice of the complete binary tree on e1..e15
(e1 the root, e(2i) and e(2i+1) the children of ei), so its top is
join-reducible and the witness takes the zdg-lift route; fig2's top is
join-irreducible and its witness takes the tree-match route.  Each
`_shuffled` file is the same lattice with the nonzero labels permuted
among themselves (`random.Random(15)` and `random.Random(2)` shuffles of
the nonzero labels in lattice order).  swap7 is a pair for the zdg-lift
route whose graph isomorphism does not map adjunct elements to adjunct
elements: `graph_iso` sends the adjunct element n2 to w3, the top of its
image class {w1, w3}, whose adjunct element is w1.  The swap7 witness was
written while `iso --witness` still swapped n2's and n1's images before
lifting, so it pins that the lift needs no such swap.  A larger pair pins
the zdg-lift route at about a thousand elements, written while the lift
still checked its input map with `check_graph_iso`:

    dislat --json iso rrt1025.adl rrt1025_relabeled.adl --witness > rrt1025.iso_witness.json

rrt1025 is the 1,025-element lattice of a random recursive tree on 1,024
nodes (`bench/inputs.py`: `rng = random.Random(1024)`, then
`random_recursive(rng, 1024)`, `labelled(rng, parent, "e")` and
`labelled(rng, parent, "w")`, and `to_adl` of each with the same `rng`),
so `_relabeled` has the same tree under labels w0..w1023 and another
adjunct representation.
Two graphs with shuffled labels pin `recognize` where degree ties break by
label in an order unrelated to the tree, written while `recognize` still
renumbered the masks by rank and counted the edges:

    dislat --json zdg F.adl                  > F.zdg.json
    dislat --json recognize F.zdg.json       > F.recognize.json

for F in cbt15_shuffled and swap7_shuffled.  The same two files pin
`analyze` where index order differs from label order: the branch peel's
class order and its `has_adjunct` flags.  These were written while the peel
still rebuilt its child lists from a label -> label parent dict:

    dislat --json analyze F.adl              > F.analyze.json
Every file above is lower dismantlable, so `.adl` elaboration builds it from
its tree.  general.adl is a dismantlable lattice outside that class, with
the pair (a, c) away from the bottom, so its outputs pin the general path
that validates through `build_from_covers`:

    dislat --json build general.adl          > general.build.json
    dislat build general.adl                 > general.build.txt
    dislat --json zdg general.adl            > general.zdg.json
    dislat --json analyze general.adl        > general.analyze.json

The DOT text of the zero-divisor graphs was written before graphs lost
their label -> position index:

    dislat zdg F.adl --dot                   > F.zdg.dot

for F in fig2 and general.

cbt255.adl is the 256-element lattice of the complete binary tree on
e1..e255 (as for cbt15), which is SSC, so its `analyze` pins the SSC report
and the classes at a few hundred elements.  It was written while `is_ssc`
still checked the definition pair by pair:

    dislat --json analyze cbt255.adl         > cbt255.analyze.json

The one-element lattice one.adl is outside the class, and `analyze` says
so like `build` (written when `basic_block` stopped refusing it):

    dislat --json analyze one.adl            > one.analyze.json

and `dislat --json build F.adl > F.build.json` pins the lattices of the
other fixtures, for F in cbt15, cbt15_shuffled, swap7, swap7_shuffled,
fig2_shuffled, m2, m3, negssc and chain4.  These were written while every
`.adl` was still elaborated through `build_from_covers`.
The text renderings of `analyze`'s class lines and of `iso`'s witness line
were written while each class was still a record with its own flag fields:

    dislat analyze ex2.adl                   > ex2.analyze.txt
    dislat analyze general.adl               > general.analyze.txt
    dislat iso ex2.adl ex2.adl --witness     > ex2.iso_witness.txt

Two `--json build` outputs pin DSL diagnostics and exit 2: bad_char.adl has
a character no token starts with, and trailing_comment.adl ends in a comment
where ';' is expected, which is reported at the comment's '#'.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dislat.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SCHEMA = DATA.parent.parent / "schemas" / "cli_output.schema.json"

COMMANDS = {
    f"{name}.{kind}": argv
    for name in ("fig2", "ex2")
    for kind, argv in {
        "zdg.json": ["--json", "zdg", DATA / f"{name}.adl"],
        "zdg.txt": ["zdg", DATA / f"{name}.adl"],
        "analyze.json": ["--json", "analyze", DATA / f"{name}.adl"],
        "recognize.json": ["--json", "recognize", GOLDEN / f"{name}.zdg.json"],
        "iso_witness.json": ["--json", "iso", DATA / f"{name}.adl", DATA / f"{name}.adl", "--witness"],
    }.items()
}
COMMANDS["k22.iso_witness.json"] = ["--json", "iso", DATA / "k22.adl", DATA / "k22.adl", "--witness"]
for name in ("cbt15", "fig2", "swap7"):
    COMMANDS[f"{name}.shuffled.iso_witness.json"] = [
        "--json", "iso", DATA / f"{name}.adl", DATA / f"{name}_shuffled.adl", "--witness"
    ]
COMMANDS["rrt1025.iso_witness.json"] = [
    "--json", "iso", DATA / "rrt1025.adl", DATA / "rrt1025_relabeled.adl", "--witness"
]
for name in ("cbt15_shuffled", "swap7_shuffled"):
    COMMANDS[f"{name}.zdg.json"] = ["--json", "zdg", DATA / f"{name}.adl"]
    COMMANDS[f"{name}.recognize.json"] = ["--json", "recognize", GOLDEN / f"{name}.zdg.json"]
    COMMANDS[f"{name}.analyze.json"] = ["--json", "analyze", DATA / f"{name}.adl"]
for name in ("fig2", "ex2", "k22"):
    COMMANDS[f"{name}.build.json"] = ["--json", "build", DATA / f"{name}.adl"]
    COMMANDS[f"{name}.build.txt"] = ["build", DATA / f"{name}.adl"]
COMMANDS["general.build.json"] = ["--json", "build", DATA / "general.adl"]
COMMANDS["general.build.txt"] = ["build", DATA / "general.adl"]
COMMANDS["general.zdg.json"] = ["--json", "zdg", DATA / "general.adl"]
COMMANDS["general.analyze.json"] = ["--json", "analyze", DATA / "general.adl"]
for name in ("fig2", "general"):
    COMMANDS[f"{name}.zdg.dot"] = ["zdg", DATA / f"{name}.adl", "--dot"]
COMMANDS["one.analyze.json"] = ["--json", "analyze", DATA / "one.adl"]
COMMANDS["cbt255.analyze.json"] = ["--json", "analyze", DATA / "cbt255.adl"]
for name in ("cbt15", "cbt15_shuffled", "swap7", "swap7_shuffled", "fig2_shuffled", "m2", "m3", "negssc", "chain4"):
    COMMANDS[f"{name}.build.json"] = ["--json", "build", DATA / f"{name}.adl"]
for name in ("ex2", "general"):
    COMMANDS[f"{name}.analyze.txt"] = ["analyze", DATA / f"{name}.adl"]
COMMANDS["ex2.iso_witness.txt"] = ["iso", DATA / "ex2.adl", DATA / "ex2.adl", "--witness"]
EXIT_CODES = {}
for name in ("bad_char", "trailing_comment"):
    COMMANDS[f"{name}.build.json"] = ["--json", "build", DATA / f"{name}.adl"]
    EXIT_CODES[f"{name}.build.json"] = 2


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_output_bytes(capsys, golden):
    code = main([str(a) for a in COMMANDS[golden]])
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(golden, 0)
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


JSON_OUTPUTS = [
    *(GOLDEN / name for name, argv in sorted(COMMANDS.items()) if "--json" in argv),
    *(DATA / f"verify_all_{run}.json" for run in ("9", "10_seed1", "11_seed2", "12_seed3")),
]


@pytest.mark.parametrize("path", JSON_OUTPUTS, ids=lambda path: path.name)
def test_json_output_matches_schema(path):
    """Every committed `--json` output is a document of the CLI schema."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), schema)


@pytest.mark.parametrize("change", ["flip_flag", "empty_members", "null_peel_order"])
def test_schema_refuses_a_broken_class_document(change):
    """The schema holds each class document's flag to its adjunct, its
    members to a non-empty list, and the peel order to a list."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    doc = json.loads((GOLDEN / "ex2.analyze.json").read_text(encoding="utf-8"))
    if change == "flip_flag":
        doc["tree_classes"]["classes"][0]["has_adjunct"] ^= True
    elif change == "empty_members":
        doc["zdg_classes"][0]["members"] = []
    else:
        doc["tree_classes"]["peel_order"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
