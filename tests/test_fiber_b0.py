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
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberatlas.atlas import fiber_b0
from fiberatlas.polycore import Polynomial, Ring, parse_polynomial, univariate_to_poly
from fiberatlas.semialg import RELATIONS, Atom, And, Or, formula_to_text, parse_formula

R = Ring(1, 1)
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
])
def test_roots_shared_across_cores_are_one_point(text, y, b0):
    assert fiber_b0(parse_formula(text, R), Q(y), 1).b0 == b0


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
