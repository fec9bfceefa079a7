"""Exact m = 1 fiber b0 against a golden corpus and an independent count.

tests/golden/fiber_b0.json holds a seeded corpus of (formula, y, b0)
cases whose b0 was computed by the earlier exact fiber_b0 (coprime basis
of all atom polynomials, root isolation by bisection, signs sampled
between roots).  The corpus covers cores of degree 1 to 4 with several
thresholds each, thresholds equal to a critical value (double roots,
also at irrational critical points), delta-close thresholds, roots
shared across cores, exact rational roots, constant atoms, Y1 in the
atoms, and and/or formulas over every relation.  Regenerate it with

    PYTHONPATH=<src of the reference fiber_b0> python tests/test_fiber_b0.py

The property test checks single-atom formulas against a count built
from Sturm-Tarski queries over Fraction coefficients, which shares no
code with fiber_b0.
"""
import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberatlas import atlas
from fiberatlas.atlas import FiberPlan, fiber_b0, grid_b0
from fiberatlas.polycore import (
    Polynomial,
    Ring,
    parse_polynomial,
    univariate_to_poly,
)
from fiberatlas.semialg import RELATIONS, Atom, And, Or, formula_to_text, parse_formula

R = Ring(1, 1)


def primitive_signed(coeffs):
    """coeffs without trailing zeros, scaled by the positive rational
    that makes them coprime integers, so every sign is kept."""
    coeffs = [Q(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


GOLDEN = Path(__file__).resolve().parent / "golden" / "fiber_b0.json"

# cores (zero constant term) with thresholds of interest: critical
# values, values that give shared or rational roots, values in between
CORES = (
    ("X1", ("0", "1", "-1", "1/2", "2", "-2")),
    ("X1^2", ("0", "1", "2", "1/4", "-1")),
    ("X1^2 - 2*X1", ("-1", "0", "3", "-3/4")),
    ("X1^3", ("0", "1", "8", "-1")),
    ("X1^3 - 3*X1", ("2", "-2", "0", "1")),
    ("X1^3 - X1", ("0", "1/3", "-1/3")),
    ("X1^3 + X1", ("0", "2", "-10")),
    ("X1^3 - 6*X1^2 + 12*X1", ("8", "0", "9")),
    ("X1^4 - 2*X1^2", ("0", "-1", "3", "-1/2")),
    ("X1^4 - 4*X1^2", ("-4", "0", "5", "-3")),
    ("X1^4 + X1", ("0", "1", "-1/4")),
    ("X1^4 - X1^3 - X1^2", ("0", "-1", "1")),
)
SHIFTS = (Q(0), Q(0), Q(0), Q(1, 64), Q(-1, 64), Q(1, 4096), Q(-1, 4096),
          Q(1, 2 ** 40), Q(-1, 2 ** 40))
LEADS = (Q(1), Q(1), Q(-1), Q(2), Q(-3), Q(1, 2))
Y_VALUES = (Q(0), Q(1), Q(-1, 2), Q(3))


def _atom(rng, core, threshold, y):
    """lead * (core - threshold), rewritten so Y1 appears in some atoms
    and the value at Y1 = y is unchanged."""
    X, Y = Polynomial.variable(R, 0), Polynomial.variable(R, 1)
    lead = rng.choice(LEADS)
    poly = parse_polynomial(core, R)
    if rng.random() < 0.1:  # the core itself depends on Y1
        poly = poly + (Y - y) * X
    poly = poly * lead - lead * threshold
    if rng.random() < 0.3:
        k = rng.choice((1, -2))
        poly = poly + k * (Y - y)
    return Atom(poly, rng.choice(RELATIONS))


def _constant_atom(rng, y):
    Y = Polynomial.variable(R, 1)
    return Atom(Y - y + rng.choice((0, 0, 1, -2)), rng.choice(RELATIONS))


def _tree(rng, atoms):
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randrange(1, len(atoms))
    kind = rng.choice((And, Or))
    return kind((_tree(rng, atoms[:cut]), _tree(rng, atoms[cut:])))


def corpus(count=300, seed=2024):
    """Seeded (formula text, y) cases."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        y = rng.choice(Y_VALUES)
        atoms = []
        for core, thresholds in rng.sample(CORES, rng.randint(1, 3)):
            for t in rng.sample(thresholds, rng.randint(1, 3)):
                atoms.append(_atom(rng, core, Q(t) + rng.choice(SHIFTS), y))
        if rng.random() < 0.15:
            atoms.append(_constant_atom(rng, y))
        rng.shuffle(atoms)
        atoms = atoms[:rng.randint(1, 5)]
        cases.append((formula_to_text(_tree(rng, atoms)), y))
    return cases


def test_fiber_b0_matches_golden_corpus():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 300
    wrong = [
        (case["formula"], case["y"], case["b0"], got)
        for case in cases
        if (got := fiber_b0(parse_formula(case["formula"], R), Q(case["y"]), 1).b0)
        != case["b0"]
    ]
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("text, y, b0", [
    ("(X1 - 1 = 0) and (X1^2 - 1 = 0)", 0, 1),
    ("(X1 - 1 = 0) and (X1^2 - 1 = 0) and (X1^3 - 1 = 0)", 0, 1),
    ("(X1 - Y1 = 0) and (X1^2 - Y1 = 0)", 1, 1),
    ("(X1 - Y1 = 0) and (X1^2 - Y1 = 0)", 4, 0),
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
    ("(X1^3 - 3*X1 + 2 = 0) and (X1 + 2 = 0)", 0, 1),
    ("(X1^3 - 3*X1 + 2 = 0) and (X1 - 1 = 0)", 0, 1),
    # shared irrational roots +-sqrt(2): simple in both, double in one
    ("(X1^2 - 2 = 0) and (X1^3 - 2*X1 = 0)", 0, 2),
    ("(X1^2 - 2 = 0) and (X1^4 - 4*X1^2 + 4 = 0)", 0, 2),
    ("(X1^2 - 2 >= 0) and (X1^4 - 4*X1^2 + 4 <= 0)", 0, 2),
    # one core, thresholds 1/3, -1/2 and 1/2 of different denominators
    ("((X1 - 1/3 <= 0) and (2*X1 + 1 >= 0)) or (X1 - 1/2 >= 0)", 0, 2),
    ("(X1 - 1/3 = 0) or (2*X1 + 1 = 0) or (X1 - 1/2 = 0)", 0, 3),
    ("(X1 - 1/2 > 0) and (X1 - 1/3 < 0)", 0, 0),
    ("(X1^2 - 1/9 >= 0) and (3*X1^2 - 1 <= 0)", 0, 2),
    ("(X1^2 - 1/4 > 0) and (3*X1^2 - 1 < 0) and (9*X1^2 - 1 > 0)", 0, 2),
    # one atom written twice, up to a negative or scaled factor
    ("(X1 - 1/3 >= 0) and (1 - 3*X1 >= 0)", 0, 1),
    ("(X1 - 1/3 > 0) or (2 - 6*X1 > 0)", 0, 2),
    # X1 and Y1*X1 meet in the core X1 at y = 2: one root at 1/2 for both
    ("(X1 - 1/2 >= 0) and (Y1*X1 - 1 <= 0)", 2, 1),
    ("(X1 - 1/2 > 0) or (Y1*X1 - 1 < 0)", 2, 2),
    # the lead of (Y1 - 1)*X1^2 + X1 vanishes at y = 1: the core is X1
    ("((Y1 - 1)*X1^2 + X1 - 1 > 0) and (X1 - 2 < 0)", 1, 1),
    ("((Y1 - 1)*X1^2 + X1 - 1 >= 0) and (3 - 3*X1 >= 0)", 1, 1),
    # the X1-part of Y1*X1^2 - 2*Y1*X1 vanishes at y = 0: a constant
    ("(Y1*X1^2 - 2*Y1*X1 + 1 > 0) and (X1^2 - 1 < 0)", 0, 1),
    ("(Y1*X1^2 - 2*Y1*X1 - 1 > 0) or (X1^2 - 1 < 0)", 0, 1),
    ("(Y1*X1^2 - 2*Y1*X1 = 0) and (X1^2 - 2*X1 - 3 = 0)", 0, 2),
])
def test_roots_shared_across_cores_are_one_point(text, y, b0):
    assert fiber_b0(parse_formula(text, R), Q(y), 1).b0 == b0


def test_one_plan_for_every_fiber_matches_fresh_plans():
    """A plan reused across fibers, its truth memo already warm, gives
    the b0 of a fresh plan at every y."""
    for text, _ in corpus():
        formula = parse_formula(text, R)
        plan = FiberPlan(formula)
        for y in Y_VALUES:
            assert fiber_b0(plan, y, 1).b0 == fiber_b0(FiberPlan(formula), y, 1).b0


def test_plan_indexes_a_shared_atom_once():
    """One Atom object held twice gives one indexed Atom object."""
    shared = Atom(parse_polynomial("X1^2 + Y1 - 1", R), "<=")
    plan = FiberPlan(And((Or((shared, Atom(parse_polynomial("X1", R), ">"))), shared)))
    first, second = plan.indexed.children[0].children[0], plan.indexed.children[1]
    assert first is second
    assert first == Atom(0, "<=")


# -- independent count for one atom: Sturm-Tarski over Fractions ------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _mul(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return out


def _divmod(a, b):
    a, q = _trim(a), [Q(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        k, c = len(a) - len(b), a[-1] / b[-1]
        q[k] = c
        a = _trim([x - c * b[i - k] if i >= k else x for i, x in enumerate(a)])
    return _trim(q), a


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _sign(x):
    return (x > 0) - (x < 0)


def _tarski_query(r, q):
    """#{q = 0, r > 0} - #{q = 0, r < 0} over the real roots of q, by the
    signed remainder sequence of q and q' * r."""
    seq = [_trim(q), _trim(_mul(_deriv(q), r))]
    while seq[-1]:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    seq.pop()

    def variations(at_minus_inf):
        signs = [_sign(p[-1]) * (-1 if at_minus_inf and len(p) % 2 == 0 else 1)
                 for p in seq]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(True) - variations(False)


def _sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _yun(p):
    """Yun's square-free factors (i, f_i) with p = lead * prod f_i^i."""
    a = _gcd(p, _deriv(p))
    b = _divmod(p, a)[0]
    d = _sub(_divmod(_deriv(p), a)[0], _deriv(b))
    factors, i = [], 1
    while len(b) > 1:
        a = _gcd(b, d)
        factors.append((i, a))
        b = _divmod(b, a)[0]
        d = _sub(_divmod(d, a)[0], _deriv(b))
        i += 1
    return factors


def _b0_positive(p, closed):
    """Components of {p > 0} (or {p >= 0} when closed) for nonconstant p."""
    factors = _yun(p)
    odd = [Q(1)]
    for i, f in factors:
        if i % 2:
            odd = _mul(odd, f)
    blocks = _tarski_query([Q(1)], odd) + 1  # signs alternate at odd roots
    start = _sign(p[-1]) * (-1 if len(p) % 2 == 0 else 1)
    positive_blocks = (blocks + 1) // 2 if start > 0 else blocks // 2
    # at a root of even multiplicity p keeps the sign of p / f^i on both sides
    touch = 0
    for i, f in factors:
        if i % 2 == 0 and len(f) > 1:
            rest = _divmod(p, _power(f, i))[0]
            roots = _tarski_query([Q(1)], f)
            pos = (roots + _tarski_query(rest, f)) // 2
            touch += roots - pos if closed else pos
    return positive_blocks + touch


def _power(f, k):
    out = [Q(1)]
    for _ in range(k):
        out = _mul(out, f)
    return out


def reference_b0(coeffs, rel):
    """b0 of {x : p(x) rel 0} for the ascending Fraction coefficients."""
    p = _trim(coeffs)
    if len(p) <= 1:
        return int(_sign(p[0] if p else 0) in {
            "<": (-1,), ">": (1,), "=": (0,), "<=": (-1, 0), ">=": (0, 1)}[rel])
    if rel == "=":
        return _tarski_query([Q(1)], p)
    if rel in ("<", "<="):
        p = [-c for c in p]
    return _b0_positive(p, closed=rel in ("<=", ">="))


_factor = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(-4, 4)),  # a*x + b
    st.tuples(st.just(1), st.integers(-3, 3), st.integers(-3, 3)),  # x^2 + b*x + c
)


@settings(max_examples=150, deadline=None)
@given(
    factors=st.lists(st.tuples(_factor, st.integers(1, 3)), max_size=2),
    lead=st.sampled_from((1, -1, 2, -3)),
    extra=st.lists(st.integers(-5, 5), max_size=4),
    rel=st.sampled_from(RELATIONS),
)
def test_single_atom_b0_matches_sturm_tarski_count(factors, lead, extra, rel):
    coeffs = [Q(lead)]
    for factor, mult in factors:
        low_first = [Q(c) for c in reversed(factor)]
        for _ in range(mult):
            coeffs = _mul(coeffs, low_first)
    if extra:  # a dense factor: simple, generic roots
        coeffs = _mul(coeffs, [Q(c) for c in extra] + [Q(1)])
    atom = Atom(univariate_to_poly(R, 0, coeffs), rel)
    assert fiber_b0(atom, Q(0), 1).b0 == reference_b0(coeffs, rel)


def test_reference_b0_on_hand_cases():
    x2 = [Q(0), Q(0), Q(1)]  # x^2
    assert reference_b0(x2, ">") == 2
    assert reference_b0(x2, ">=") == 1
    assert reference_b0(x2, "<=") == 1
    assert reference_b0(x2, "<") == 0
    cubic = [Q(0), Q(1), Q(-2), Q(1)]  # x (x - 1)^2
    assert reference_b0(cubic, ">") == 2
    assert reference_b0(cubic, "<=") == 2
    assert reference_b0(cubic, "=") == 2


def _write_golden():
    cases = [{"formula": text, "y": str(y),
              "b0": fiber_b0(parse_formula(text, R), y, 1).b0}
             for text, y in corpus()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    _write_golden()


# rationals with delta-ladder denominators 64^k, as in the atoms of S'
_ladder_q = st.builds(lambda n, d, k: Q(n, d * 64 ** k),
                      st.integers(-40, 40), st.integers(1, 12), st.integers(0, 3))
_terms = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                         _ladder_q, max_size=6)


@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(_terms, min_size=1, max_size=4), y=_ladder_q)
def test_plan_coefficients_match_substitution(atoms, y):
    """The plan's integer coefficients at Y1 = y are those of the atom
    polynomial with y substituted, made primitive by a positive factor."""
    polys = [Polynomial(R, terms) for terms in atoms]
    plan = FiberPlan(Or(tuple(Atom(p, "<=") for p in polys + polys[:1])))
    distinct = []
    for p in polys:
        if p not in distinct:
            distinct.append(p)
    assert plan.polys == distinct
    assert plan.coeffs_at(y) == [
        primitive_signed([c.constant_value()
                          for c in p.substitute({1: y}).coeffs_in(0)])
        for p in distinct]


def _counting(monkeypatch, name):
    """Count the calls fiberatlas.atlas makes to its function `name`."""
    calls = []
    fn = getattr(atlas, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(atlas, name, counted)
    return calls


@pytest.mark.parametrize("text, gcds, b0", [
    # critical points +-sqrt(2/3); every enclosure of K - T there excludes 0
    ("(X1^3 - 2*X1 - 5 > 0) or (X1^3 - 2*X1 + 7 < 0)", 0, 2),
    # K - T = (X1^2 - 2)^2 vanishes at both irrational critical points:
    # one gcd serves the two
    ("X1^4 - 4*X1^2 + 4 = 0", 1, 2),
    ("(X1^4 - 4*X1^2 + 4 <= 0) or (X1^4 - 4*X1^2 - 5 > 0)", 1, 4),
])
def test_core_asks_for_a_gcd_only_where_a_sign_test_cannot_decide(monkeypatch, text, gcds, b0):
    calls = _counting(monkeypatch, "ugcd_int")
    assert fiber_b0(parse_formula(text, R), Q(0), 1).b0 == b0
    assert len(calls) == gcds


@pytest.mark.parametrize("core, thresholds, square_free_calls", [
    # K' = 12 (X1 - 1)^2 (X1 + 1): isolation meets the double root at 1
    ("3*X1^4 - 4*X1^3 - 6*X1^2 + 12*X1", (-11, -4, 5, 9), 1),
    # K' = 15 (X1^2 + 1)^2: its multiple roots are not real
    ("3*X1^5 + 10*X1^3 + 15*X1", (-28, 0, 5, 28), 0),
])
def test_core_is_made_square_free_only_at_a_multiple_real_critical_point(
        monkeypatch, core, thresholds, square_free_calls):
    """b0 of one atom K - T rel 0 against the grid oracle, and the
    Sturm-Tarski count for every relation, at several thresholds.  For
    the first core, -11 is its minimum and 5 its value at the double
    critical point X1 = 1."""
    calls = _counting(monkeypatch, "usquarefree_int")
    for t in thresholds:
        poly = parse_polynomial(f"{core} - ({t})", R)
        coeffs = [c.constant_value() for c in poly.coeffs_in(0)]
        for rel in RELATIONS:
            atom = Atom(poly, rel)
            b0 = fiber_b0(atom, Q(0), 1).b0
            assert b0 == reference_b0(coeffs, rel), (t, rel)
            if rel != "=":  # a grid misses irrational isolated points
                assert b0 == grid_b0(atom, Q(0), Q(1, 256), box_radius=4), (t, rel)
    assert len(calls) == square_free_calls * len(thresholds) * len(RELATIONS)


# -- atoms grouped by their X1-part -----------------------------------

# X1-parts as (alpha, beta) in Y1: the part alpha * X1^2 + beta * X1.
# Each atom is r * (part(X1) - part(x0)), so its roots at Y1 = y are x0
# and, where alpha(y) != 0, -x0 - beta(y) / alpha(y).  At every sample
# in _GROUP_YS that ratio is a multiple of 1/4, so with x0 a multiple of
# 1/4 every root is one, and a grid of pitch 1/8 sees every piece of the
# sweep.  Y1 - 1 vanishes at y = 1 (a vanished lead, or a vanished
# X1-part), Y1 at y = 0; X1 and Y1 * X1 meet in the core X1, X1^2 and
# (Y1 - 1) * X1^2 in X1^2, X1^2 - 2*X1 and its Y1 multiple in one core.
_GROUP_PARTS = (
    ("0", "1"), ("0", "Y1"), ("1", "0"), ("Y1 - 1", "0"), ("Y1 - 1", "1"),
    ("1", "-2"), ("Y1", "-2*Y1"), ("Y1 - 1", "Y1 - 1"),
)
_GROUP_YS = (Q(0), Q(1), Q(2), Q(-1), Q(1, 2), Q(3), Q(5))
_x0 = st.builds(lambda n: Q(n, 4), st.integers(-8, 8))
_factor_q = st.sampled_from((Q(1), Q(-1), Q(3), Q(-2), Q(1, 2), Q(-1, 3), Q(1, 64), Q(-3, 64)))


def _group_atom(part, r, x0, w, rel):
    """r * (part(X1) - part(x0)) + w * prod(Y1 - y) over the samples y at
    which part's X1-part does not vanish: so where it vanishes, the atom
    is the constant it has there, and elsewhere w adds nothing."""
    alpha, beta = (parse_polynomial(c, R) for c in part)
    X = Polynomial.variable(R, 0)
    poly = (alpha * (X * X - x0 * x0) + beta * (X - x0)) * r
    gone = [y for y in _GROUP_YS
            if alpha.substitute({1: y}).is_zero() and beta.substitute({1: y}).is_zero()]
    if gone:
        tail = Polynomial.constant(R, w)
        for y in _GROUP_YS:
            if y not in gone:
                tail = tail * (Polynomial.variable(R, 1) - y)
        poly = poly + tail
    return Atom(poly, rel)


_group_atoms = st.lists(
    st.builds(_group_atom, st.sampled_from(_GROUP_PARTS), _factor_q, _x0,
              st.sampled_from((0, 1, -2)), st.sampled_from(RELATIONS)),
    min_size=1, max_size=6)


@settings(max_examples=120, deadline=None)
@given(atoms=_group_atoms, shape=st.randoms(use_true_random=False),
       ys=st.lists(st.sampled_from(_GROUP_YS), min_size=1, max_size=8))
def test_grouped_atoms_one_plan_matches_fresh_plans_and_grid(atoms, shape, ys):
    """Atoms that share X1-parts up to rational factors of either sign,
    at samples where a lead or a whole X1-part vanishes and where two
    groups meet in one core: one plan over every sample gives the b0 of
    a fresh plan per sample, and the grid's b0 when no atom is an
    equation.  The plan's coefficients are those of substitution."""
    formula = _tree(shape, atoms)
    plan = FiberPlan(formula)
    exact = any(a.rel == "=" for a in atoms)
    for y in ys:
        assert plan.coeffs_at(y) == [
            primitive_signed([c.constant_value()
                              for c in p.substitute({1: y}).coeffs_in(0)])
            for p in plan.polys], y
        b0 = fiber_b0(plan, y, 1).b0
        assert b0 == fiber_b0(FiberPlan(formula), y, 1).b0, y
        if not exact:
            assert b0 == grid_b0(plan, y, Q(1, 8), box_radius=8), y


def test_plan_keeps_the_cores_free_of_y1_and_only_those(monkeypatch):
    """A plan isolates the critical points of a core whose X1-part has no
    Y1 once for all of its fibers, of a core whose X1-part has Y1 once
    per fiber, and a new plan starts with none."""
    calls = _counting(monkeypatch, "isolate_int_roots")
    ys = [Q(k, 3) for k in range(1, 7)]
    # cores X1^2 (twice, up to -1/2), X1 (three atoms) and X1^3 - 3*X1
    free = parse_formula(
        "((X1^2 - Y1 < 0) and (X1 - 1 > 0)) or ((1 - X1^2/2 + Y1 >= 0)"
        " and (2*X1 - Y1 - 2 <= 0) and (X1^3 - 3*X1 + Y1 > 0)) or (X1 + 1/64 = 0)", R)
    plan = FiberPlan(free)
    b0s = [fiber_b0(plan, y, 1).b0 for y in ys]
    assert len(calls) == 3
    assert [fiber_b0(FiberPlan(free), y, 1).b0 for y in ys] == b0s
    assert len(calls) == 3 + 3 * len(ys)
    calls.clear()
    # the core of Y1*X1^2 + X1 changes with y, and is made again when a
    # sample comes back
    plan = FiberPlan(parse_formula("(Y1*X1^2 + X1 - 1 < 0) or (X1^2 - 4 = 0)", R))
    for y in ys + ys:
        fiber_b0(plan, y, 1)
    assert len(calls) == 1 + 2 * len(ys)
