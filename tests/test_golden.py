"""Byte-for-byte comparison of CLI reports with stored golden files.

The golden files under tests/golden/ were written by the same commands;
a refactor that changes any report byte (field order, rational text,
cell boundaries, formula structure) fails here.
"""
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
