"""Perturbation ladder, thickenings, closed rewrite, genericity."""
import hashlib
import random
from fractions import Fraction as Q
from pathlib import Path

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
    all_sign_vectors,
    _REMOVAL,
    _Atoms,
    _level_induction,
    _member_atoms,
    _thickening,
)
from fiberatlas.cli import boxed_problem, parse_problem_file, sigma_from_formula
from fiberatlas.polycore import Polynomial, Ring, parse_polynomial
from fiberatlas.semialg import (
    FALSE,
    Atom,
    Or,
    SignCondition,
    atoms_of,
    disj,
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


def test_removal_is_the_complement_of_the_open_thickening():
    """The level induction removes each open thickening as an Or of
    flipped atoms; that Or holds exactly where sigma_minus fails."""
    base = (P("X1^2 + Y1 - 1"), P("X1 - Y1"))
    ladder = build_ladder(2, Q(1, 4))
    atoms = _Atoms(base, ladder, rewrite=False)
    xs = [Q(k, 4) for k in range(-8, 9, 3)]
    pts = ([(x, y) for x in xs for y in xs]
           + [(x, 1 - x * x) for x in xs] + [(x, x) for x in xs])  # on each member
    for ell in range(3):
        removal = _member_atoms(atoms, 2 * ell - 1, _REMOVAL)
        for vec in all_sign_vectors(2, ell):
            minus = sigma_minus(SignCondition(base, vec), ladder)
            removed = disj(_thickening(vec, removal))
            held = [eval_formula(minus, pt) for pt in pts]
            assert 0 < sum(held) < len(pts) or ell == 2  # both sides are sampled
            for pt, h in zip(pts, held):
                assert eval_formula(removed, pt) is not h


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
        atoms = list(atoms_of(formula))
        polys = {}
        objects = {}
        for a in atoms:
            polys.setdefault(a.poly, set()).add(id(a.poly))
            objects.setdefault((a.poly, a.rel), set()).add(id(a))
        assert len(polys) < len(atoms)  # some polynomial is in several atoms
        assert len(objects) < len(atoms)  # some atom is in several places
        assert all(len(ids) == 1 for ids in polys.values())
        assert all(len(ids) == 1 for ids in objects.values())


# sha256 of formula_to_text of S'.  The member order of the formula fixes
# the cells, so its text must not change when its construction does.
# "one core" has a repeated member and one that is another plus eps(2, 1),
# so the closed rewrite meets a shifted polynomial equal to a member.
FAMILIES = {
    "family": (("X1^2 - 2*Y1", "X1 - 1", "X1 + 3", "X1 - Y1 - 2"), [(-1, -1, 1, -1)]),
    "one core": (("X1 - Y1", "X1 - Y1 + 1/67108864", "X1 - Y1"),
                 [(0, 1, 0), (-1, 0, -1), (1, 1, 1)]),
}
S_PRIME_SHA256 = {
    ("family", Q(1, 64)): "3e3f203b6292d9041a085190d03dafb7a3b80bad1035c8f3a52740e0002019e4",
    ("family", Q(1, 4096)): "e47fa7f947b46ba13ed0f881e6ac00b57785f25fa16e5187902160da9573106a",
    ("one core", Q(1, 4)): "5d7c31b47c0bea71cd50f0ce448722457cd94f5e6f083d10007a4db6f41c03f1",
    ("boxed twolines", Q(1, 64)): "0317f1ba2e2bc2b58595f05288812dfacc3f9b9849140171157499d26403f242",
}


def _s_prime_sha256(name, delta):
    if name in FAMILIES:
        members, rows = FAMILIES[name]
        base = tuple(P(t) for t in members)
    else:
        text = (Path(__file__).resolve().parents[1] / "problems" / "twolines.txt").read_text()
        pf = parse_problem_file(text)
        base, rows = boxed_problem(pf.polys, sigma_from_formula(pf.formula, pf.polys),
                                   pf.m, pf.n, 4)
    sigma = [SignCondition(base, row) for row in rows]
    formula = construct_S_prime(sigma, base, build_ladder(len(base), delta)).formula
    return hashlib.sha256(formula_to_text(formula).encode()).hexdigest()


@pytest.mark.parametrize("name, delta", sorted(S_PRIME_SHA256))
def test_large_s_prime_text_is_pinned(name, delta):
    assert _s_prime_sha256(name, delta) == S_PRIME_SHA256[name, delta]


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
        raw = _level_induction(sigma, _Atoms(base, ladder, rewrite=True))  # closed, unpruned
        simplified = simplify_shift_formula(raw)
        for _ in range(30):
            pt = tuple(Q(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                       for _ in range(ring.nvars))
            assert eval_formula(raw, pt) == eval_formula(simplified, pt)


def test_simplify_keeps_a_flat_or_of_atoms_as_the_same_object():
    """Nothing to prune and nothing to flatten: no `or` is rebuilt."""
    formula = Or((Atom(P("X1 - Y1"), ">"), Atom(P("X1 + 1"), "<"), Atom(P("X1"), "=")))
    assert simplify_shift_formula(formula) is formula


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
