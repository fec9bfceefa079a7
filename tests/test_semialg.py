"""Sign conditions and negation-free formulas."""
import random
from fractions import Fraction as Q

import pytest

from fiberatlas.perturb import simplify_shift_formula
from fiberatlas.polycore import ParseError, Polynomial, Ring, parse_polynomial
from fiberatlas.semialg import (
    And,
    Atom,
    Or,
    SignCondition,
    conj,
    disj,
    eval_formula,
    eval_signs,
    formula_to_text,
    level,
    map_atoms,
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


def test_fresh_true_and_false_act_as_the_constants():
    """TRUE and FALSE are recognised by type and empty children, so the
    fresh And(()) and Or(()) that map_atoms returns for them count too."""
    a = Atom(P("X1"), ">")
    b = Atom(P("Y1"), "<")
    keep = lambda atom: atom  # noqa: E731
    fresh = (And(()), Or(())), (map_atoms(TRUE, keep), map_atoms(FALSE, keep))
    sign_of = {a.poly: 1, b.poly: 1}.__getitem__
    for t, f in fresh:
        assert t is not TRUE and t == TRUE and f is not FALSE and f == FALSE
        assert conj([t, a]) == conj([TRUE, a]) == a
        assert conj([a, f, b]) is FALSE
        assert conj([t]) is TRUE and conj([f]) is FALSE
        assert disj([f, a]) == disj([FALSE, a]) == a
        assert disj([a, t, b]) is TRUE
        assert disj([t]) is TRUE and disj([f]) is FALSE
        assert eval_signs(t, sign_of) is True and eval_signs(f, sign_of) is False
        assert eval_signs(And((a, t)), sign_of) and not eval_signs(Or((b, f)), sign_of)
        assert formula_to_text(t) == "true" and formula_to_text(f) == "false"
        for formula, expect in (
            (t, TRUE), (f, FALSE),
            (And((a, Or((a, b)), t)), a),  # a decides the Or, t drops out
            (And((a, Or((a, b)), f)), FALSE),
            (Or((b, t)), TRUE), (Or((b, f)), b),
        ):
            assert simplify_shift_formula(formula) is expect


def test_eval_signs_asks_only_for_the_atoms_it_needs():
    a = Atom(P("X1"), ">")
    b = Atom(P("Y1"), "<")
    c = Atom(P("X1 + Y1"), "=")
    signs = {a.poly: 1, b.poly: 1, c.poly: 0}
    asked = []

    def sign_of(p):
        asked.append(p)
        return signs[p]

    for formula, value, needed in (
        (Or((a, b, c)), True, [a]),  # a holds: the Or is decided
        (And((b, a, c)), False, [b]),  # b fails: the And is decided
        (And((a, Or((b, c)), b)), False, [a, b, c, b]),
        (Or((And((a, b)), c)), True, [a, b, c]),
    ):
        asked.clear()
        assert eval_signs(formula, sign_of) is value
        assert asked == [atom.poly for atom in needed]
    with pytest.raises(TypeError):
        eval_signs(P("X1"), sign_of)
    with pytest.raises(TypeError):
        eval_signs(And((a, "X1 > 0")), sign_of)


def test_conj_flattens_nested():
    a = Atom(P("X1"), ">")
    b = Atom(P("Y1"), "<")
    c = Atom(P("X1 + Y1"), "=")
    f = conj([And((a, b)), c])
    assert isinstance(f, And)
    assert len(f.children) == 3


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
    with pytest.raises(ParseError):
        parse_formula("X1 >=", R)
    with pytest.raises(ParseError):
        parse_formula("X1 >= 1", R)


def test_formula_errors_name_the_first_failing_token():
    """A formula line reads on the polynomial tokens: each error is at the
    first token in text order that fails, quoted as written."""
    for text, message in (
        ("X1^2 + Y1 - 1 => 0", "atom right-hand side must be 0 (at position 15)"),
        ("X1^2 + > 0", "unexpected token '>' (at position 7)"),
        ("X1 > 0 or or X1 < 0", "unexpected token 'or' (at position 10)"),
        ("(X1 > 0) (X1 < 0)", "trailing input '(' (at position 9)"),
        # a later bad character does not mask an earlier syntax error
        ("X1 2 > 0 and X1 + Z > 0", "expected a relation, found '2' (at position 3)"),
        ("(X1 > 0 and X1 < 0", "expected ')', found end of input (at position 18)"),
        ("X1 > 0 andY1 > 0", "unexpected character 'a' (at position 7)"),
        # a variable outside the ring fails at its own token, whichever
        # reading of a parenthesis gets there
        ("X1 + Y2 > 0", "variable Y2 not in ring with n=1 (at position 5)"),
        ("(X1 + Y2 > 0) or (X1 < 0)", "variable Y2 not in ring with n=1 (at position 6)"),
        ("X0 > 0", "bad variable name 'X0' (at position 0)"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_formula(text, R)
        assert str(exc.value) == message, text


def _random_poly(rng):
    terms = {(i, j): Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
             for i in range(3) for j in range(2) if rng.random() < 0.4}
    return Polynomial(R, terms)


def _random_formula(rng, depth):
    """A random negation-free formula, and a text for it with redundant
    parentheses, polynomial factors in parentheses and tight spacing."""
    if depth == 0 or rng.random() < 0.3:
        a, b = _random_poly(rng), _random_poly(rng)
        rel = rng.choice(("<", ">", "=", "<=", ">="))
        if rng.random() < 0.5:
            text = f"({a.to_text()})*({b.to_text()}) {rel} 0"
            poly = a * b
        else:
            text, poly = f"{a.to_text()} {rel} 0", a
        return Atom(poly, rel), rng.choice((text, f"({text})", f"(({text}))"))
    kind = rng.choice((And, Or))
    parts = [_random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    texts = []
    for child, text in parts:
        # an `or` inside an `and` needs its parentheses
        if isinstance(child, Or) or rng.random() < 0.5:
            text = f"({text})"
        texts.append(text)
    texts.append("true" if kind is And else "false")  # absorbed
    text = texts[0]
    for t in texts[1:]:
        # `0and` and `or(` need no space; `andY1` or `ortrue` would
        # not be a connective
        left = "" if text[-1] in "0)" and rng.random() < 0.5 else " "
        right = "" if t[0] == "(" and rng.random() < 0.5 else " "
        text += left + ("and" if kind is And else "or") + right + t
    return (conj if kind is And else disj)(f for f, _ in parts), text


def test_parse_formula_round_trip_seeded():
    rng = random.Random(19)
    for _ in range(150):
        f, text = _random_formula(rng, 3)
        assert parse_formula(formula_to_text(f), R) == f
        assert parse_formula(text, R) == f, text
    with pytest.raises(ParseError):
        parse_formula("X1 > 0 andY1 < 0", R)
