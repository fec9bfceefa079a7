"""Perturbation ladder, thickenings, closed rewrite, genericity."""
import random
from fractions import Fraction as Q

import pytest

from fiberatlas.perturb import (
    EpsilonLadder,
    WitnessError,
    build_ladder,
    check_rank_genericity,
    construct_S_prime,
    construct_S_prime_raw,
    sigma_minus,
    sigma_plus,
    simplify_shift_formula,
    _rewrite_closed,
    _shifts,
)
from fiberatlas.polycore import Polynomial, Ring, parse_polynomial
from fiberatlas.semialg import (
    FALSE,
    SignCondition,
    atoms_of,
    eval_formula,
    formula_to_text,
)

R = Ring(1, 1)


def P(text, ring=R):
    return parse_polynomial(text, ring)


def test_ladder_values_strictly_decrease():
    for s in (1, 2, 3):
        ladder = build_ladder(s, Q(1, 64))
        chain = ladder.chain()
        assert len(chain) == 2 * s * s
        for a, b in zip(chain, chain[1:]):
            assert a > b


def test_ladder_exponent_formula():
    ladder = build_ladder(2, Q(1, 64))
    assert ladder.exponent(1, 1) == (2 * 2 - 1) * 2 + 1
    assert ladder.value(2, 1) == Q(1, 64) ** 5
    with pytest.raises(IndexError):
        ladder.exponent(5, 1)


def test_ladder_rejects_bad_delta():
    with pytest.raises(ValueError):
        EpsilonLadder(1, Q(2))
    with pytest.raises(ValueError):
        EpsilonLadder(1, Q(0))


def test_thickenings_contain_the_realization():
    base = (P("X1^2 + Y1 - 1"),)
    ladder = build_ladder(1, Q(1, 64))
    sc = SignCondition(base, (0,))
    plus = sigma_plus(sc, ladder)
    minus = sigma_minus(sc, ladder)
    for x in (Q(0), Q(1), Q(-2)):
        witness = (x, 1 - x * x)  # on the parabola
        assert eval_formula(plus, witness)
        assert eval_formula(minus, witness)


def test_sigma_minus_level0_is_strict():
    base = (P("X1 - Y1"),)
    ladder = build_ladder(1, Q(1, 64))
    f = sigma_minus(SignCondition(base, (1,)), ladder)
    assert not eval_formula(f, (Q(0), Q(0)))
    assert eval_formula(f, (Q(1), Q(0)))


def test_quadric_s_prime_text():
    base = (P("X1^2 + Y1 - 1"),)
    ladder = build_ladder(1, Q(1, 64))
    text = formula_to_text(
        construct_S_prime([SignCondition(base, (0,))], base, ladder).formula
    )
    assert text == ("(X1^2 + Y1 - 63/64 >= 0) and (X1^2 + Y1 - 65/64 <= 0)")


def test_pure_sign_s_prime_text():
    base = (P("X1^2 + Y1 - 1"),)
    ladder = build_ladder(1, Q(1, 64))
    up = construct_S_prime([SignCondition(base, (1,))], base, ladder)
    down = construct_S_prime([SignCondition(base, (-1,))], base, ladder)
    assert formula_to_text(up.formula) == "X1^2 + Y1 - 65/64 >= 0"
    assert formula_to_text(down.formula) == "X1^2 + Y1 - 63/64 <= 0"


def test_s_prime_atoms_with_equal_polynomials_share_one_object():
    base = (P("X1^2 - 2*Y1"), P("X1 - 1"), P("X1 + 3"), P("X1 - Y1 - 2"))
    sigma = [SignCondition(base, (-1, -1, 1, -1)), SignCondition(base, (0, 1, 1, 0))]
    ladder = build_ladder(4, Q(1, 64))
    for formula in (construct_S_prime(sigma, base, ladder).formula,
                    construct_S_prime_raw(sigma, base, ladder)):
        polys = [a.poly for a in atoms_of(formula)]
        objects = {}
        for p in polys:
            objects.setdefault(p, set()).add(id(p))
        assert len(objects) < len(polys)  # some polynomial is in several atoms
        assert all(len(ids) == 1 for ids in objects.values())


def test_empty_sigma_set_is_false():
    base = (P("X1^2 + Y1 - 1"),)
    ladder = build_ladder(1, Q(1, 64))
    assert construct_S_prime([], base, ladder).formula == FALSE


def test_mismatched_family_raises():
    base = (P("X1^2 + Y1 - 1"),)
    other = (P("X1"),)
    ladder = build_ladder(1, Q(1, 64))
    with pytest.raises(ValueError):
        construct_S_prime([SignCondition(other, (0,))], base, ladder)


def _random_family(rng, ring, s):
    polys = []
    for _ in range(s):
        terms = {}
        for _ in range(3):
            e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            c = Q(rng.randint(-3, 3))
            if c:
                terms[e] = terms.get(e, Q(0)) + c
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            terms = {(0,) * ring.nvars: Q(1)}
        polys.append(Polynomial(ring, terms))
    return tuple(polys)


def _random_sigma(rng, base):
    out = []
    for _ in range(rng.randint(1, 2)):
        out.append(SignCondition(
            base, tuple(rng.choice((-1, 0, 1)) for _ in base)))
    return out


def test_simplification_preserves_membership():
    rng = random.Random(23)
    ring = Ring(2, 1)
    for _ in range(15):
        base = _random_family(rng, ring, 2)
        ladder = build_ladder(2, Q(1, 64))
        sigma = _random_sigma(rng, base)
        raw = _rewrite_closed(
            construct_S_prime_raw(sigma, base, ladder), base, _shifts(base, ladder))
        simplified = simplify_shift_formula(raw)
        for _ in range(30):
            pt = tuple(Q(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                       for _ in range(ring.nvars))
            assert eval_formula(raw, pt) == eval_formula(simplified, pt)


def test_closed_rewrite_agrees_at_small_delta():
    """Raw and closed formulas agree at generic points once delta is far
    below every base-member value at the point."""
    rng = random.Random(41)
    ring = Ring(1, 1)
    for _ in range(10):
        base = _random_family(rng, ring, 2)
        sigma = _random_sigma(rng, base)
        pts = []
        while len(pts) < 20:
            pt = tuple(Q(rng.randint(-6, 6), rng.choice((1, 3, 5)))
                       for _ in range(ring.nvars))
            if all(p.eval_at(pt) != 0 for p in base):
                pts.append(pt)
        delta = Q(1, 64)
        stable = False
        for _ in range(3):
            ok = True
            for d in (delta, delta * delta):
                ladder = build_ladder(2, d)
                raw = construct_S_prime_raw(sigma, base, ladder)
                closed = construct_S_prime(sigma, base, ladder).formula
                for pt in pts:
                    if eval_formula(raw, pt) != eval_formula(closed, pt):
                        ok = False
            if ok:
                stable = True
                break
            delta = delta * delta
        assert stable


def test_genericity_pass_on_parabola_witness():
    ladder = build_ladder(1, Q(1, 64))
    e = ladder.value(1, 1)
    member = P("X1^2 + Y1 - 1") - e
    sc = SignCondition((member,), (0,))
    report = check_rank_genericity(sc, [(Q(1), e)], R)
    assert report.ok and report.checked == 1


def test_genericity_flags_degenerate_gradient():
    member = P("X1^2")
    sc = SignCondition((member,), (0,))
    report = check_rank_genericity(sc, [(Q(0), Q(5))], R)
    assert not report.ok
    assert report.failures[0][1] == 0  # observed rank


def test_genericity_rejects_off_stratum_witness():
    member = P("X1")
    sc = SignCondition((member,), (0,))
    with pytest.raises(WitnessError):
        check_rank_genericity(sc, [(Q(1), Q(0))], R)


def test_genericity_level0_vacuous():
    sc = SignCondition((P("X1"),), (1,))
    report = check_rank_genericity(sc, [(Q(1), Q(0))], R)
    assert report.ok
