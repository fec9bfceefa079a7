"""Command-line interface: parsing, exit codes, deterministic output."""
import json
import sys
import time
from pathlib import Path

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
    assert main(["atlas", problem]) == 2
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


def test_bounds_count_has_no_constant(tmp_path, capsys):
    """A count is exact: its line and JSON show no c, and c is refused."""
    out = tmp_path / "count.json"
    argv = ["bounds", "count", "s=2", "m=1", "scheme=pprime_paper"]
    assert main(argv + ["--json", str(out)]) == 0
    assert capsys.readouterr().out == (
        "count  count_family[pprime_paper]  [m=1 s=2 scheme=pprime_paper]"
        "  value=8\n")
    assert "c" not in json.loads(out.read_text())
    assert main(argv + ["c=3"]) == 2
    assert "'c'" in capsys.readouterr().err


def test_bounds_unknown_name_exits_2(capsys):
    assert main(["bounds", "nosuch", "m=1"]) == 2
    assert "unknown bound" in capsys.readouterr().err


def test_bounds_bad_params_exit_2(capsys):
    assert main(["bounds", "main", "m=x"]) == 2
    assert main(["bounds", "main", "m"]) == 2
    assert main(["bounds", "main", "m=1"]) == 2  # missing parameters
    capsys.readouterr()
    # a parameter given twice is refused, not read over the first
    assert main(["bounds", "main", "m=2", "m=3", "n=1", "s=1", "d=2"]) == 2
    assert capsys.readouterr() == ("", "error: parameter 'm' given twice\n")


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


def test_atlas_out_of_range_delta_exits_2(tmp_path, capsys):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    for flags in (["--delta", "2"], ["--delta", "0"]):
        assert main(["atlas", problem, *flags]) == 2
        assert "bad option value" in capsys.readouterr().err
    problem = _write(tmp_path, "opt.txt", QUADRIC + "option delta=3\n")
    assert main(["atlas", problem]) == 2
    assert "bad option value" in capsys.readouterr().err


def test_atlas_bad_option_value_names_the_option_and_cause(tmp_path, capsys):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    for flags, message in (
            (["--delta", "1/0"], "delta: zero denominator in 1/0"),
            (["--delta", "abc"], "delta: Invalid literal for Fraction: 'abc'")):
        assert main(["atlas", problem, *flags]) == 2
        assert f"error: bad option value: {message}\n" == capsys.readouterr().err
    for option, message in (
            ("delta=1/0", "delta: zero denominator in 1/0"),
            ("omega=1/2", "omega: invalid literal for int() with base 10: '1/2'")):
        opt = _write(tmp_path, "opt.txt", QUADRIC + f"option {option}\n")
        assert main(["atlas", opt]) == 2
        assert f"error: bad option value: {message}\n" == capsys.readouterr().err


def test_atlas_cell_ends_too_long_to_print_exits_2(tmp_path, capsys):
    """At delta = 2^-1100 the twolines cell ends have more decimal digits
    than str() converts: refused before anything is printed or written."""
    twolines = str(Path(__file__).resolve().parents[1] / "problems" / "twolines.txt")
    out, csv = tmp_path / "t.json", tmp_path / "t.csv"
    argv = ["atlas", twolines, "--delta", f"1/{2 ** 1100}",
            "--json", str(out), "--dump-csv", str(csv)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("bits, too large to print in decimal (delta's denominator has "
            "1101 bits)") in captured.err
    assert not out.exists() and not csv.exists()


def test_bounds_value_too_long_to_print_exits_2(tmp_path, capsys):
    out = tmp_path / "b.json"
    argv = ["bounds", "fewnomial", "m=3", "r=3", "c=2", "--json", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "value has 104977 bits, too large to print in decimal" in err
    assert not out.exists()


def test_bounds_refused_from_the_exponent_form_exits_2(tmp_path, capsys):
    """metric M=5 d=5 m=5 c=5 has about 6e17 bits: refused before it is
    evaluated."""
    out = tmp_path / "b.json"
    start = time.process_time()
    argv = ["bounds", "metric", "M=5", "d=5", "m=5", "c=5", "--json", str(out)]
    assert main(argv) == 2
    assert time.process_time() - start < 1
    err = capsys.readouterr().err
    assert ("value has at least 596046447753906251 bits, too large to print "
            "in decimal: metric M^(d^(c m)) [M=5 c=5 d=5 m=5]") in err
    assert not out.exists()
    # 3^(2^13) has 12984 bits but only 3909 digits: it still prints
    assert main(["bounds", "metric", "M=3", "d=2", "m=13"]) == 0
    assert "value=37784933609751067409" in capsys.readouterr().out


def test_bounds_count_cut_off_and_refused(capsys):
    """The count sums stop at l = 2 s^2, and a count too large to print
    is refused from a lower bound on its bit length, before summing."""
    start = time.process_time()
    assert main(["bounds", "count", "s=1", "m=100000000", "scheme=zsets"]) == 0
    assert "value=4" in capsys.readouterr().out
    assert main(["bounds", "count", "s=1000", "m=100000", "scheme=minors_paper"]) == 2
    assert time.process_time() - start < 1
    assert ("value has at least 300001 bits, too large to print in decimal: "
            "count count_family[minors_paper]") in capsys.readouterr().err


def test_bounds_refusal_without_an_int_digit_limit(capsys):
    """With the interpreter's int-to-decimal limit switched off the
    refusal still uses the default limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.process_time()
        assert main(["bounds", "metric", "M=5", "d=5", "m=5", "c=5"]) == 2
        assert time.process_time() - start < 1
    finally:
        sys.set_int_max_str_digits(saved)
    assert "too large to print in decimal" in capsys.readouterr().err


def test_atlas_nonpositive_omega_exits_2(tmp_path, capsys):
    problem = _write(tmp_path, "q.txt", QUADRIC)
    for omega in ("0", "-4"):
        assert main(["atlas", problem, "--boxed", "--omega", omega]) == 2
        assert "omega must be positive" in capsys.readouterr().err
        boxed = _write(tmp_path, "opt.txt",
                       QUADRIC + f"option boxed=1\noption omega={omega}\n")
        assert main(["atlas", boxed]) == 2
        assert "omega must be positive" in capsys.readouterr().err


def test_atlas_refine_rounds_is_an_unknown_option(tmp_path, capsys):
    opt = _write(tmp_path, "opt.txt", QUADRIC + "option refine_rounds=3\n")
    assert main(["atlas", opt]) == 2
    assert capsys.readouterr().err == "error: line 4: unknown option 'refine_rounds'\n"
    with pytest.raises(SystemExit) as exc:
        main(["atlas", opt, "--refine-rounds", "3"])
    assert exc.value.code == 2


def test_atlas_planar_fiber_census_exits_2(tmp_path, capsys):
    """m = 2 is refused before any run: there is no exact count of a
    planar fiber."""
    text = "vars m=2 n=1\npoly X1^2 + X2^2 + Y1 - 1\nsigma 0\n"
    problem = _write(tmp_path, "circle.txt", text)
    start = time.process_time()
    assert main(["atlas", problem]) == 2
    assert time.process_time() - start < 1
    err = capsys.readouterr().err
    assert "unsupported mode" in err
    assert "exact planar fiber count" in err


def test_atlas_without_fiber_variable_exits_2(tmp_path, capsys):
    """m = 0 is refused before any run, named for what it is: there is
    no fiber variable."""
    problem = _write(tmp_path, "m0.txt", "vars m=0 n=1\npoly Y1 - 1\nsigma 0\n")
    assert main(["atlas", problem]) == 2
    err = capsys.readouterr().err
    assert "unsupported mode" in err
    assert "m = 0" in err and "no fiber variable" in err
    assert "planar" not in err


def test_atlas_grid_mode_flag_and_options_exit_2(tmp_path, capsys):
    """A census counts fibers only by the exact sweep: --mode is no flag,
    and mode and grid_res are unknown options, refused with their line."""
    problem = _write(tmp_path, "q.txt", QUADRIC)
    with pytest.raises(SystemExit) as exc:
        main(["atlas", problem, "--mode", "grid"])
    assert exc.value.code == 2
    capsys.readouterr()
    for option in ("mode=grid", "grid_res=1/4"):
        opt = _write(tmp_path, "opt.txt", QUADRIC + f"option {option}\n")
        assert main(["atlas", opt]) == 2
        name = option.partition("=")[0]
        assert f"error: line 4: unknown option {name!r}\n" == capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("vars m=abc n=1\npoly X1\nsigma 0\n",
     "line 1: vars m must be an integer >= 0, got 'abc'"),
    ("vars m=-1 n=1\npoly Y1\nsigma 0\n",
     "line 1: vars m must be an integer >= 0, got '-1'"),
    ("vars m=1 n=1\npoly X1 + 1/0\nsigma 0\n",
     "line 2: zero denominator in 1/0 (at position 5)"),
    ("vars m=1 n=1\npoly X1\nformula X1 + 1/0 > 0\n",
     "zero denominator in 1/0 (at position 5)"),
    (QUADRIC + "option detla=1/128\n", "line 4: unknown option 'detla'"),
    (QUADRIC + "option boxed=maybe\n", "line 4: boxed must be one of"),
    # the failing character, not the whitespace before it
    ("vars m=1 n=1\npoly X1 + Z\nsigma 0\n",
     "line 2: unexpected character 'Z' (at position 5)"),
    ("vars m=1 n=1\npoly X1 ? 2\nsigma 0\n",
     "line 2: unexpected character '?' (at position 3)"),
    # a formula error names its line and the cause inside the parentheses,
    # with its position in the whole formula
    ("vars m=1 n=1\npoly X1\nformula (X1 > 0) and (X1 + 1/0 > 0)\n",
     "line 3: zero denominator in 1/0 (at position 19)"),
    ("vars m=1 n=1\npoly X1\nformula (X1 > 0) and (X1 + Z > 0)\n",
     "line 3: unexpected character 'Z' (at position 19)"),
    # ... or the cause in a parenthesised polynomial, which got further
    ("vars m=1 n=1\npoly X1\nformula (X1 + 1)*(X1 + 1/0) > 0\n",
     "line 3: zero denominator in 1/0 (at position 15)"),
    # nothing to count: no sign condition and no formula, or an empty one
    ("vars m=1 n=1\npoly X1 - Y1\n", "line 1: no sigma rows and no formula line"),
    ("vars m=1 n=1\npoly X1 - Y1\nformula\n", "line 3: empty formula"),
    # the first failing token in text order, also in a formula line
    ("vars m=1 n=1\npoly X1^2 + Y1 - 1\nformula X1^2 + Y1 - 1 => 0\n",
     "line 3: atom right-hand side must be 0 (at position 15)"),
    ("vars m=1 n=1\npoly X1 2 + Z\nsigma 0\n",
     "line 2: trailing input '2' (at position 3)"),
    ("vars m=1 n=1\npoly X1 + X3\nsigma 0\n",
     "line 2: variable X3 not in ring with m=1 (at position 5)"),
    ("vars m=1 n=1\npoly X1\nformula X1 + Y2 > 0\n",
     "line 3: variable Y2 not in ring with n=1 (at position 5)"),
    # single-use lines are refused when repeated, not read over
    ("vars m=1 n=1\npoly X1^2 + Y1 - 1\nformula X1^2 + Y1 - 1 = 0\n"
     "formula X1^2 + Y1 - 1 > 0\n", "line 4: repeated formula line (the first is line 3)"),
    ("vars m=1 n=1\nvars m=1 n=2\npoly X1 - Y1\nsigma 0\n",
     "line 2: repeated vars line (the first is line 1)"),
    (QUADRIC + "option delta=1/32\noption delta=1/16\n", "line 5: repeated option 'delta'"),
], ids=["m-not-integer", "m-negative", "poly-zero-denominator",
        "formula-zero-denominator", "unknown-option", "boxed-not-boolean",
        "poly-bad-character", "poly-bad-operator", "formula-parenthesised-cause",
        "formula-parenthesised-bad-character", "formula-parenthesised-polynomial",
        "no-sigma-no-formula", "empty-formula", "formula-relation", "poly-text-order",
        "poly-variable", "formula-variable", "repeated-formula", "repeated-vars",
        "repeated-option"])
def test_atlas_malformed_problem_exits_2(tmp_path, capsys, text, message):
    problem = _write(tmp_path, "bad.txt", text)
    assert main(["atlas", problem]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_lift_formula_error_names_its_line(tmp_path, capsys):
    problem = _write(tmp_path, "bad.txt",
                     "poly X1\nformula (X1 > 0) and (X1 + 1/0 > 0)\n")
    assert main(["lift", problem]) == 2
    err = capsys.readouterr().err
    assert "line 2: zero denominator in 1/0 (at position 19)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("poly X0 + 1\n", "error: line 1: bad variable name 'X0' (at position 0)"),
    ("poly X1 + 1\npoly X1 + Y1\n",
     "error: line 2: only X variables allowed, got Y1 (at position 5)"),
])
def test_lift_bad_variable_names_its_line(tmp_path, capsys, text, message):
    problem = _write(tmp_path, "bad.txt", text)
    assert main(["lift", problem]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_lift_zero_denominator_exits_2(tmp_path, capsys):
    problem = _write(tmp_path, "bad.txt", "poly 1/0 + X1\n")
    assert main(["lift", problem]) == 2
    err = capsys.readouterr().err
    assert "zero denominator in 1/0 (at position 0)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("atlas", "--json"), ("atlas", "--dump-csv"), ("bounds", "--json"),
    ("lift", "--json"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, command, flag):
    inputs = {
        "atlas": [_write(tmp_path, "q.txt", QUADRIC)],
        "bounds": ["main", "m=2", "n=1", "s=1", "d=2", "c=1"],
        "lift": [_write(tmp_path, "cube.txt", "poly (X1+1)^3\nformula X1 > 0\n")],
    }
    target = str(tmp_path / "absent" / "out")
    assert main([command, *inputs[command], flag, target]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {target}: No such file or directory" in err
    assert "Traceback" not in err



@pytest.mark.parametrize("text, message", [
    ("poly (X1+1)^3\nformula X1 > 0\nformula X1 < 0\n",
     "line 3: repeated formula line (the first is line 2)"),
    ("poly (X1+1)^3\nvars m=1\nvars m=2\n",
     "line 3: repeated vars line (the first is line 2)"),
    ("", "line 1: no poly lines"),
    ("poly X1\nsigma 0\n", "line 2: unknown directive 'sigma'"),
    ("poly X1\nformula X2 > 0\n",
     "line 2: variable X2 not in ring with m=1 (at position 0)"),
], ids=["repeated-formula", "repeated-vars", "no-poly", "unknown-directive",
        "formula-variable"])
def test_lift_malformed_file_exits_2(tmp_path, capsys, text, message):
    """A lift file is read by the same directive loop as a problem file:
    a second formula or vars line is refused, not read over the first."""
    problem = _write(tmp_path, "bad.txt", text)
    assert main(["lift", problem]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
