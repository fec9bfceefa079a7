"""Command-line interface: parsing, exit codes, deterministic output."""
import json

import pytest

from fiberatlas.cli import (
    ProblemParseError,
    boxed_problem,
    main,
    parse_problem_file,
    sigma_from_formula,
)
from fiberatlas.polycore import Ring, parse_polynomial
from fiberatlas.semialg import parse_formula

QUADRIC = """\
vars m=1 n=1
poly X1^2 + Y1 - 1
sigma 0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_problem_file_fields():
    pf = parse_problem_file(QUADRIC + "option delta=1/32\n")
    assert pf.m == 1 and pf.n == 1
    assert len(pf.polys) == 1
    assert pf.sigma_rows == ((0,),)
    assert pf.options == {"delta": "1/32"}


def test_parse_problem_file_errors_carry_line():
    with pytest.raises(ProblemParseError) as e:
        parse_problem_file("vars m=1 n=1\npoly X1 +\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ProblemParseError):
        parse_problem_file("poly X1\n")
    with pytest.raises(ProblemParseError):
        parse_problem_file("vars m=1 n=1\npoly X1\nsigma 0 0\n")
    with pytest.raises(ProblemParseError):
        parse_problem_file("vars m=1 n=1\npoly X1\nwhat now\n")


def test_sigma_from_formula_enumerates_truth():
    ring = Ring(1, 1)
    base = (parse_polynomial("X1 - 1", ring), parse_polynomial("X1 - 2", ring))
    f = parse_formula("(X1 - 1 = 0) or (X1 - 2 = 0)", ring)
    rows = sigma_from_formula(f, base)
    assert all(0 in row for row in rows)
    assert len(rows) == 5  # zero on either member, free sign elsewhere


def test_sigma_from_formula_rejects_foreign_atoms():
    ring = Ring(1, 1)
    base = (parse_polynomial("X1 - 1", ring),)
    f = parse_formula("X1*Y1 > 0", ring)
    with pytest.raises(ValueError):
        sigma_from_formula(f, base)


def test_boxed_problem_adds_box_members():
    ring = Ring(1, 1)
    base = (parse_polynomial("X1 - Y1", ring),)
    new_base, new_rows = boxed_problem(base, ((0,),), 1, 1, 8)
    assert len(new_base) == 5
    assert new_rows == ((0, 1, -1, 1, -1),)
    from fractions import Fraction as Q

    # box members keep |X1| <= 8 and |Y1| <= 8 with the appended signs
    assert new_base[1].eval_at((Q(0), Q(0))) == 8
    assert new_base[2].eval_at((Q(0), Q(0))) == -8


def test_atlas_command_quadric(tmp_path, capsys):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    out = str(tmp_path / "report.json")
    csv = str(tmp_path / "cells.csv")
    code = main(["atlas", problem, "--json", out, "--dump-csv", csv])
    assert code == 0
    table = capsys.readouterr().out
    assert "distinct signatures: 3" in table
    data = json.loads(open(out).read())
    assert [f["b0"] for f in data["fibers"]] == [2, 1, 0]
    rows = open(csv).read().strip().splitlines()
    assert rows[0] == "left,right,sample,b0"
    assert len(rows) == 4


def test_atlas_json_is_deterministic(tmp_path):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["atlas", problem, "--json", out1]) == 0
    assert main(["atlas", problem, "--json", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_atlas_malformed_file_exits_2(tmp_path, capsys):
    problem = _write(tmp_path, "bad.txt", "vars m=1 n=1\npoly X1 +\n")
    assert main(["atlas", problem]) == 2
    assert "line 2" in capsys.readouterr().err


def test_atlas_missing_file_exits_2(tmp_path):
    assert main(["atlas", str(tmp_path / "absent.txt")]) == 2


def test_atlas_unsupported_mode_exits_2(tmp_path, capsys):
    text = "vars m=1 n=2\npoly X1 - Y1*Y2\nsigma 0\n"
    problem = _write(tmp_path, "n2.txt", text)
    assert main(["atlas", problem, "--mode", "exact"]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_atlas_formula_input(tmp_path):
    text = (
        "vars m=1 n=1\n"
        "poly X1^2 + Y1 - 1\n"
        "formula X1^2 + Y1 - 1 = 0\n"
    )
    problem = _write(tmp_path, "f.txt", text)
    assert main(["atlas", problem]) == 0


def test_bounds_command(capsys):
    assert main(["bounds", "main", "m=2", "n=1", "s=1", "d=2", "c=1"]) == 0
    assert "value=64" in capsys.readouterr().out
    assert main(["bounds", "metric", "M=2", "d=2", "m=2", "c=1"]) == 0
    assert "value=16" in capsys.readouterr().out
    assert main(["bounds", "count", "s=2", "m=1", "scheme=pprime_paper"]) == 0
    assert "value=8" in capsys.readouterr().out


def test_bounds_unknown_name_exits_2(capsys):
    assert main(["bounds", "nosuch", "m=1"]) == 2
    assert "unknown bound" in capsys.readouterr().err


def test_bounds_bad_params_exit_2(capsys):
    assert main(["bounds", "main", "m=x"]) == 2
    assert main(["bounds", "main", "m"]) == 2
    assert main(["bounds", "main", "m=1"]) == 2  # missing parameters


def test_bounds_json(tmp_path):
    out = str(tmp_path / "b.json")
    assert main(["bounds", "additive", "m=1", "a=1", "c=1",
                 "--json", out]) == 0
    data = json.loads(open(out).read())
    assert data["value"] == "65536"


def test_lift_command(tmp_path, capsys):
    problem = _write(tmp_path, "cube.txt", "poly (X1+1)^3\nformula X1 > 0\n")
    out = str(tmp_path / "lift.json")
    assert main(["lift", problem, "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "Y1 - X1 - 1 = 0" in stdout
    data = json.loads(open(out).read())
    assert data["a"] == 1 and data["verified"] is True


def test_lift_zero_steps_passthrough(tmp_path, capsys):
    problem = _write(tmp_path, "mono.txt", "poly X1^5\nformula X1 >= 0\n")
    assert main(["lift", problem]) == 0
    assert "a=0" in capsys.readouterr().out


def test_lift_syntax_error_exits_2(tmp_path):
    problem = _write(tmp_path, "bad.txt", "poly X1 + + 1\n")
    assert main(["lift", problem]) == 2


def test_atlas_out_of_range_delta_or_grid_res_exits_2(tmp_path, capsys):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    for flags in (["--delta", "2"], ["--delta", "0"],
                  ["--mode", "grid", "--grid-res", "0"]):
        assert main(["atlas", problem, *flags]) == 2
        assert "bad option value" in capsys.readouterr().err
    for options in ("option delta=3\n",
                    "option mode=grid\noption grid_res=-1/16\n"):
        problem = _write(tmp_path, "opt.txt", QUADRIC + options)
        assert main(["atlas", problem]) == 2
        assert "bad option value" in capsys.readouterr().err


def test_bounds_value_too_long_to_print_exits_2(tmp_path, capsys):
    out = tmp_path / "b.json"
    argv = ["bounds", "fewnomial", "m=3", "r=3", "c=2", "--json", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "value has 104977 bits, too large to print in decimal" in err
    assert not out.exists()


def test_atlas_nonpositive_omega_exits_2(tmp_path, capsys):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    for omega in ("0", "-4"):
        assert main(["atlas", problem, "--boxed", "--omega", omega]) == 2
        assert "omega must be positive" in capsys.readouterr().err
        boxed = _write(tmp_path, "opt.txt",
                       QUADRIC + f"option boxed=1\noption omega={omega}\n")
        assert main(["atlas", boxed]) == 2
        assert "omega must be positive" in capsys.readouterr().err
