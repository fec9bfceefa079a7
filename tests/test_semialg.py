"""Sign conditions and negation-free formulas."""
from fractions import Fraction as Q

import pytest

from fiberatlas.polycore import Ring, parse_polynomial
from fiberatlas.semialg import (
    And,
    Atom,
    SignCondition,
    conj,
    disj,
    eval_formula,
    formula_to_text,
    level,
    negate,
    parse_formula,
    realization_formula,
    FALSE,
    TRUE,
)

R = Ring(1, 1)


def P(text):
    return parse_polynomial(text, R)


def test_sign_condition_validation():
    p = P("X1")
    SignCondition((p,), (0,))
    with pytest.raises(ValueError):
        SignCondition((p,), (0, 1))
    with pytest.raises(ValueError):
        SignCondition((p,), (2,))


def test_level_counts_zeros():
    fam = (P("X1"), P("Y1"), P("X1 + Y1"))
    assert level(SignCondition(fam, (0, 1, 0))) == 2
    assert level(SignCondition(fam, (1, -1, None))) == 0


def test_conj_disj_identities():
    a = Atom(P("X1"), ">")
    assert conj([]) == TRUE
    assert disj([]) == FALSE
    assert conj([a]) == a
    assert conj([TRUE, a]) == a
    assert disj([FALSE, a]) == a
    assert conj([FALSE, a]) == FALSE
    assert disj([TRUE, a]) == TRUE


def test_conj_flattens_nested():
    a = Atom(P("X1"), ">")
    b = Atom(P("Y1"), "<")
    c = Atom(P("X1 + Y1"), "=")
    f = conj([And((a, b)), c])
    assert isinstance(f, And)
    assert len(f.children) == 3


def test_negate_flips_relations():
    a = Atom(P("X1"), ">=")
    na = negate(a)
    for x in (Q(-1), Q(0), Q(1)):
        pt = (x, Q(0))
        assert eval_formula(a, pt) != eval_formula(na, pt)


def test_negate_de_morgan():
    a = Atom(P("X1"), ">")
    b = Atom(P("Y1"), "<=")
    f = And((a, b))
    nf = negate(f)
    for x in (Q(-1), Q(0), Q(2)):
        for y in (Q(-2), Q(0), Q(1)):
            assert eval_formula(nf, (x, y)) == (not eval_formula(f, (x, y)))


def test_realization_formula_matches_signs():
    fam = (P("X1"), P("X1 - Y1"))
    sc = SignCondition(fam, (1, 0))
    f = realization_formula(sc)
    assert eval_formula(f, (Q(2), Q(2)))
    assert not eval_formula(f, (Q(2), Q(1)))
    assert not eval_formula(f, (Q(-1), Q(-1)))


def test_formula_text_round_trip():
    texts = (
        "(X1^2 + Y1 - 1 >= 0) and (X1 - 2 < 0)",
        "(X1 = 0) or ((Y1 > 0) and (X1 + Y1 <= 0))",
        "true",
        "false",
    )
    for t in texts:
        f = parse_formula(t, R)
        again = parse_formula(formula_to_text(f), R)
        for x in (Q(-2), Q(0), Q(1), Q(3)):
            for y in (Q(-1), Q(0), Q(2)):
                assert eval_formula(f, (x, y)) == eval_formula(again, (x, y))


def test_parse_formula_rejects_garbage():
    from fiberatlas.polycore import ParseError

    with pytest.raises(ParseError):
        parse_formula("X1 >=", R)
    with pytest.raises(ParseError):
        parse_formula("X1 >= 1", R)
