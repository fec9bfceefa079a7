"""Straight-line programs and the trinomial lift."""
import dataclasses
import re
from fractions import Fraction as Q

import pytest

from conftest import SLP_CORPUS
from fiberatlas.polycore import ParseError, Polynomial, Ring, parse_polynomial
from fiberatlas import slp
from fiberatlas.semialg import And, Atom, Or
from fiberatlas.slp import (
    LiftedSystem,
    SLPProgram,
    SLPStep,
    expand,
    lift,
    parse_slp,
    verify_lift,
)


def _direct(text, m):
    return parse_polynomial(text, Ring(m, 0))


def test_corpus_round_trip():
    for text in SLP_CORPUS:
        prog = parse_slp(text)
        assert expand(prog) == _direct(text, prog.m), text


def test_witness_counts():
    assert parse_slp("(X1+1)^3").a == 1
    assert parse_slp("X1^5 * X2").a == 0
    assert parse_slp("(X1+1)*(X1-1)").a == 2


def test_absorption_of_like_monomials():
    assert parse_slp("2*X1 + 3*X1").a == 0
    assert parse_slp("X1 - X1").a == 0
    assert parse_slp("5*X1^4 - 5*X1^4").a == 0


def test_step_count_bounded_by_sign_tokens():
    for text in SLP_CORPUS:
        tokens = len(re.findall(r"[+-]", text))
        assert parse_slp(text).a <= tokens, text


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_slp("X1 +")
    with pytest.raises(ParseError):
        parse_slp("X1^-1")
    with pytest.raises(ParseError):
        parse_slp("Y1 + 1")
    with pytest.raises(ParseError, match="bad variable name 'X0'"):
        parse_slp("X0 + 1")
    with pytest.raises(ParseError, match="X2 not in ring with m=1"):
        parse_slp("X2 + 1", m=1)
    with pytest.raises(ParseError, match=r"got Y1 \(at position 5\)"):
        parse_slp("X1 + Y1")


def test_parse_refuses_a_variable_at_its_own_token():
    """A Y variable fails where it stands, before the parse reaches the
    later syntax error."""
    with pytest.raises(ParseError, match=r"got Y1 \(at position 0\)") as info:
        parse_slp("Y1 + (")
    assert info.value.pos == 0


def test_step_invariant_enforced():
    with pytest.raises(ValueError):
        SLPStep(1, (Q(1), (0,), (1,)), (Q(1), (0,), ()))


def test_expand_constant_program():
    prog = SLPProgram(1, (), (Q(5), (2,), ()))
    assert expand(prog) == _direct("5*X1^2", 1)


def test_lift_cube_example():
    prog = parse_slp("(X1+1)^3")
    fring = Ring(1, 0)
    formula = Atom(Polynomial.variable(fring, 0), ">")
    ls = lift([prog], formula)
    assert ls.m == 1 and ls.a == 1
    assert len(ls.equations) == 1
    eq = ls.equations[0]
    assert len(eq.terms) == 3
    assert eq.to_text() == "Y1 - X1 - 1"
    assert ls.rewritten_formula.poly.to_text() == "Y1^3"


def test_lift_zero_step_passthrough():
    prog = parse_slp("X1^5 * X2")
    fring = Ring(1, 0)
    formula = Atom(Polynomial.variable(fring, 0), ">=")
    ls = lift([prog], formula)
    assert ls.equations == ()
    assert ls.a == 0
    assert ls.rewritten_formula.rel == ">="


def test_lift_two_programs_disjoint_blocks():
    p1 = parse_slp("(X1+1)^3")
    p2 = parse_slp("(X1+1)*(X1-1)")
    fring = Ring(2, 0)
    formula = And((
        Atom(Polynomial.variable(fring, 0), ">"),
        Atom(Polynomial.variable(fring, 1), "<="),
    ))
    ls = lift([p1, p2], formula)
    assert ls.a == 3
    assert [name for _, _, name in ls.names] == ["Y1", "Y2", "Y3"]
    assert [k for k, _, _ in ls.names] == [1, 2, 2]
    for eq in ls.equations:
        assert len(eq.terms) <= 3


def test_lift_unknown_program_reference():
    prog = parse_slp("(X1+1)^3")
    fring = Ring(2, 0)
    formula = Atom(Polynomial.variable(fring, 1), ">")
    with pytest.raises(ValueError):
        lift([prog], formula)


def test_verify_lift_corpus_symbolic():
    for text in SLP_CORPUS:
        prog = parse_slp(text)
        fring = Ring(1, 0)
        formula = Atom(Polynomial.variable(fring, 0), ">")
        ls = lift([prog], formula)
        rep = verify_lift(ls, [prog], formula, samples=5)
        assert rep.symbolic_ok, text
        assert not rep.sample_failures, text


def test_verify_lift_sample_points_match_cube():
    prog = parse_slp("(X1+1)^3")
    fring = Ring(1, 0)
    formula = Atom(Polynomial.variable(fring, 0), ">")
    ls = lift([prog], formula)
    rep = verify_lift(ls, [prog], formula, samples=40)
    assert rep.passed
    # manual spot checks at x = 1 and x = -1
    eq = ls.equations[0]
    assert eq.eval_at((Q(1), Q(2))) == 0
    lifted = ls.rewritten_formula
    from fiberatlas.semialg import eval_formula

    assert eval_formula(lifted, (Q(1), Q(2)))
    assert not eval_formula(lifted, (Q(-1), Q(0)))


def test_lift_json_metadata():
    prog = parse_slp("(X1+1)^3")
    fring = Ring(1, 0)
    formula = Atom(Polynomial.variable(fring, 0), ">")
    ls = lift([prog], formula)
    data = ls.to_json_dict()
    assert data["m"] == 1 and data["a"] == 1
    assert data["variables"] == [{"program": 1, "step": 1, "name": "Y1"}]


def _two_program_lift():
    progs = [parse_slp("(X1+1)^3"), parse_slp("(X1 + X2)^2")]
    fring = Ring(2, 0)
    formula = And((
        Atom(Polynomial.variable(fring, 0), ">"),
        Atom(Polynomial.variable(fring, 1), "<="),
    ))
    return lift(progs, formula), progs, formula


def test_verify_lift_two_programs_of_different_m():
    ls, progs, formula = _two_program_lift()
    assert [eq.to_text() for eq in ls.equations] == [
        "Y1 - X1 - 1", "Y2 - X2 - X1"]
    assert ls.rewritten_formula.children[1].poly.to_text() == "Y2^2"
    rep = verify_lift(ls, progs, formula, samples=20)
    assert rep.symbolic_ok and not rep.sample_failures


def test_verify_lift_rejects_tampered_equation():
    ls, progs, formula = _two_program_lift()
    eqs = list(ls.equations)
    eqs[1] = eqs[1] + 1
    rep = verify_lift(dataclasses.replace(ls, equations=tuple(eqs)),
                      progs, formula, samples=20)
    assert not rep.symbolic_ok
    assert rep.sample_failures
    assert all(why == "equation violated at lift" for _, _, why in rep.sample_failures)


def test_verify_lift_rejects_flipped_relation():
    ls, progs, formula = _two_program_lift()
    first, second = ls.rewritten_formula.children
    flipped = And((first, Atom(second.poly, ">")))
    rep = verify_lift(dataclasses.replace(ls, rewritten_formula=flipped),
                      progs, formula, samples=20)
    assert not rep.symbolic_ok


def test_verify_lift_expands_once_whatever_the_samples(monkeypatch):
    side_poly = slp._side_poly
    calls = []

    def counting(*args):
        calls.append(args)
        return side_poly(*args)

    ls, progs, formula = _two_program_lift()
    monkeypatch.setattr(slp, "_side_poly", counting)
    counts = []
    for samples in (1, 40):
        calls.clear()
        assert verify_lift(ls, progs, formula, samples=samples).passed
        counts.append(len(calls))
    # two sides per step and one final monomial, per program
    assert counts == [sum(2 * p.a + 1 for p in progs)] * 2
