"""Byte-for-byte comparison of CLI reports with stored golden files.

The golden files under tests/golden/ were written by the same commands;
a refactor that changes any report byte (field order, rational text,
cell boundaries, formula structure) fails here.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fiberatlas.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["atlas", "problems/quadric.txt"], "quadric.json"),
    (["atlas", "problems/twolines.txt"], "twolines.json"),
    (["lift", "problems/cube.txt"], "cube_lift.json"),
    (["atlas", "tests/golden/sextic.txt"], "sextic.json"),
])
def test_json_report_matches_golden(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    argv = [argv[0], str(ROOT / argv[1]), "--json", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_table_rows_keep_their_fields_apart(capsys):
    """Every cell row of the sextic table splits into the cell, the
    sample, b0 and the method, with the golden report's sample and b0,
    also where a field is wider than its column."""
    assert main(["atlas", str(ROOT / "tests/golden/sextic.txt")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    report = json.loads((GOLDEN / "sextic.json").read_text())
    assert len(rows) == len(report["cells"])
    for row, cell, fiber in zip(rows, report["cells"], report["fibers"]):
        interval, _, rest = row.partition(")")
        fields = [interval + ")"] + rest.split()
        assert len(fields) == 4, row
        assert Fraction(fields[1]) == Fraction(cell["sample"]), row
        assert fields[2] == str(fiber["b0"]), row
        assert fields[3] == fiber["method"], row
