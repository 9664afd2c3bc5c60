"""Byte tests of the CLI against committed outputs.

The files under tests/data/golden/ hold the exact stdout of one command each
(every one exits 0).  They were written by the version before graphs became
neighbour masks and the JSON writer became flat, so they pin the bytes those
changes must keep:

    dislat --json zdg F.adl                  > F.zdg.json
    dislat zdg F.adl                         > F.zdg.txt
    dislat --json analyze F.adl              > F.analyze.json
    dislat --json recognize F.zdg.json       > F.recognize.json
    dislat --json iso F.adl F.adl --witness  > F.iso_witness.json

for F in fig2 and ex2, plus `iso --witness` of k22 against itself (the
zdg-lift route; fig2 and ex2 have join-irreducible tops).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from dislat.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

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


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_output_bytes(capsys, golden):
    code = main([str(a) for a in COMMANDS[golden]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
