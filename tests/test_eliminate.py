"""Projection to the parameter line and discriminant assembly."""
import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from conftest import BUNDLED

from fiberatlas import eliminate, polycore
from fiberatlas.critical import CriticalSystem, enumerate_strata, systems_for_strata
from fiberatlas.eliminate import (
    DegenerateEliminationError,
    UnsupportedModeError,
    _combine_residuals,
    _eliminate_vars,
    assemble_G,
    project_system,
)
from fiberatlas.perturb import build_ladder, construct_S_prime
from fiberatlas.polycore import (
    Polynomial,
    Ring,
    int_coeffs,
    integer_table,
    parse_polynomial,
    resultant,
    sign_int_at,
    univariate_coeffs,
)
from fiberatlas.semialg import SignCondition, atoms_of

R = Ring(1, 1)


def P(text, ring=R):
    return parse_polynomial(text, ring)


def _quadric_systems(delta=Q(1, 64)):
    base = (P("X1^2 + Y1 - 1"),)
    ladder = build_ladder(1, delta)
    closed = construct_S_prime([SignCondition(base, (0,))], base, ladder)
    members = []
    for atom in atoms_of(closed.formula):
        if atom.poly not in members:
            members.append(atom.poly)
    strata = enumerate_strata(members, base, 2)
    return systems_for_strata(strata, 1), base[0].ring


def T(text):
    """The primitive integer term table of a polynomial text."""
    return integer_table(P(text))


def test_eliminate_vars_resultant_path():
    # 2*X1 enters as X1: res(X1^2 + Y1 - 1, X1) = Y1 - 1 needs no scale
    polys = [P("X1^2 + Y1 - 1"), P("2*X1")]
    residuals = _eliminate_vars(polys, 1)
    assert residuals == [{(0, 1): 1, (0, 0): -1}]
    assert residuals == [T("4*Y1 - 4")]


def test_eliminate_single_holder_dropped():
    # only one polynomial carries X1: dropping it keeps a superset
    residuals = _eliminate_vars([P("X1^2 + Y1"), P("Y1 - 2")], 1)
    assert residuals == [T("Y1 - 2")]


def test_combine_residuals_gcd():
    residuals = [T("(Y1 - 1)*(Y1 - 2)"), T("(Y1 - 1)*(Y1 + 3)")]
    combined = _combine_residuals(residuals)
    assert combined is not None
    assert sign_int_at(combined, (1, 1)) == 0
    assert len(combined) == 2  # degree 1


def test_combine_residuals_inconsistent():
    assert _combine_residuals([T("3")]) is None
    assert _combine_residuals([T("Y1 - 1"), T("Y1 - 2")]) is None


def test_combine_residuals_degenerate_raises():
    with pytest.raises(DegenerateEliminationError):
        _combine_residuals([T("0")])


def test_project_quadric_critical_value():
    systems, ring = _quadric_systems()
    projections = []
    for cs in systems:
        projections.extend(project_system(cs, 1))
    roots = set()
    for p in projections:
        for y in ((63, 64), (65, 64)):
            if sign_int_at(p, y) == 0:
                roots.add(y)
    assert roots == {(63, 64), (65, 64)}


def test_project_rejects_unsupported_modes():
    systems, _ = _quadric_systems()
    with pytest.raises(UnsupportedModeError):
        project_system(systems[0], 4)


def test_assemble_quadric_discriminant():
    systems, ring = _quadric_systems()
    G = assemble_G(systems, ring, 1)
    assert len(G.roots) == 2
    (lo1, hi1, _), (lo2, hi2, _) = G.roots
    assert lo1 <= Q(63, 64) <= hi1
    assert lo2 <= Q(65, 64) <= hi2
    assert hi1 < lo2 or (hi1 == lo2 and lo1 == hi1 != lo2)


def test_assemble_empty_systems():
    G = assemble_G([], Ring(1, 1), 1)
    assert G.roots == ()
    assert G.defining == ()


def test_roots_refer_to_vanishing_defining_polys():
    systems, ring = _quadric_systems()
    G = assemble_G(systems, ring, 1)
    for lo, hi, idx in G.roots:
        p = G.defining[idx]
        vals = [p.eval_at((Q(0), lo)), p.eval_at((Q(0), hi))]
        assert any(v == 0 for v in vals) or vals[0] * vals[1] < 0


SEXTIC = (  # a census-elim sextic: a degree-20 discriminant at delta = 1/64
    "X1^6 - 12288*X1^5*Y1^2 + 192*X1^5*Y1 + 8192*X1^4*Y1^2 + 192*X1^4*Y1"
    " - 3*X1^4 - 8192*X1^3*Y1^2 - 64*X1^3*Y1 + 3*X1^3 + 4096*X1^2*Y1^2"
    " + 3*X1^2 - 12288*X1*Y1^2 - 128*X1*Y1 - X1 + 4096*Y1^2 + 64*Y1 + 1"
)


def _systems_of(base, sigma):
    closed = construct_S_prime([SignCondition(base, s) for s in sigma], base,
                               build_ladder(len(base), Q(1, 64)))
    members = []
    for atom in atoms_of(closed.formula):
        if atom.poly not in members:
            members.append(atom.poly)
    return systems_for_strata(enumerate_strata(members, base, 2), 1)


def _c2(*texts):
    active = tuple(P(t) for t in texts)
    return CriticalSystem(SignCondition(active, (0,) * len(active)), active, (), "C2")


@pytest.mark.parametrize("name", ["quadric", "twolines", "sextic", "shared root",
                                  "shared irrational root", "root shared by three"])
def test_each_root_belongs_to_the_first_defining_poly_vanishing_there(name):
    """Every root interval holds a root of its defining polynomial, a
    point where it vanishes or an interval over which it changes sign,
    and every earlier defining polynomial has one nonzero sign at both
    of its ends."""
    if name == "shared root":  # Y1 - 1 and Y1^2 - 1 share the root 1
        systems = [_c2("X1 - Y1", "X1 - 1"), _c2("X1 - Y1", "X1^2 - 1")]
    elif name == "shared irrational root":  # both vanish at +-sqrt(2)
        systems = [_c2("X1 - Y1", "(X1^2 - 2)*(X1 - 3)"), _c2("X1 - Y1", "X1^2 - 2")]
    elif name == "root shared by three":  # all three vanish at 1
        systems = [_c2("X1 - Y1", "(X1 - 1)*(X1 + 2)"), _c2("X1 - Y1", "X1^2 - 1"),
                   _c2("X1 - Y1", "X1 - 1")]
    elif name == "sextic":
        systems = _systems_of((P(SEXTIC),), ((0,),))
    else:
        example = next(e for e in BUNDLED if e.name == name)
        systems = _systems_of(example.base, example.sigma)
    G = assemble_G(systems, R, 1)
    assert G.roots
    for lo, hi, idx in G.roots:
        ends = [[p.eval_at((Q(0), x)) for x in (lo, hi)] for p in G.defining]
        if lo == hi:
            assert ends[idx][0] == 0
        else:
            assert ends[idx][0] * ends[idx][1] < 0
        for a, b in ends[:idx]:
            assert a * b > 0


def test_circle_systems_project_to_its_critical_values():
    """m = 2: the active equation and both Jacobian minors are eliminated
    as one system, so the thickened circle X1^2 + X2^2 + Y1 - 1 = 0
    projects to its critical values 63/64 and 65/64."""
    ring = Ring(2, 1)
    base = (parse_polynomial("X1^2 + X2^2 + Y1 - 1", ring),)
    closed = construct_S_prime([SignCondition(base, (0,))], base,
                               build_ladder(1, Q(1, 64)))
    members = []
    for atom in atoms_of(closed.formula):
        if atom.poly not in members:
            members.append(atom.poly)
    systems = systems_for_strata(enumerate_strata(members, base, 3), 2)
    roots = set()
    for cs in systems:
        for p in project_system(cs, 2):
            for y in ((63, 64), (65, 64)):
                if sign_int_at(p, y) == 0:
                    roots.add(y)
    assert roots == {(63, 64), (65, 64)}


def _polynomial_elimination(polys, m):
    """The elimination over Polynomials: `resultant` of the members
    themselves, as _eliminate_vars took it before its integer tables."""
    current = [p for p in polys if not p.is_zero()]
    for var in range(m):
        holding = [p for p in current if p.degree_in(var) > 0]
        current = [p for p in current if p.degree_in(var) == 0]
        if len(holding) > 1:
            pivot = min(holding, key=lambda p: p.degree_in(var))
            current += [resultant(pivot, p, var) for p in holding if p is not pivot]
    return current


def _random_system(rng, m, count, terms, top):
    """`count` members in X1..Xm, Y1 with `terms` random terms of
    exponents up to `top` and coefficients in [-9, 9]/64^(0..2)."""
    ring = Ring(m, 1)
    polys = []
    while len(polys) < count:
        p = Polynomial(ring, {
            tuple(rng.randint(0, top) for _ in range(m + 1)):
            Q(rng.randint(-9, 9), 64 ** rng.randint(0, 2)) for _ in range(terms)})
        if not p.is_zero():
            polys.append(p)
    return polys


def _wide_pair(rng, bits):
    """A pair in X1, Y1 with `bits`-bit coefficients: degree 4 and 3 in
    X1 and 3 in Y1, so its packed size is above _PACK_CUTOFF."""
    def member(dx):
        return Polynomial(R, {(i, j): Q(rng.randint(-(1 << bits), 1 << bits), 1 + rng.randint(0, 3))
                              for i in range(dx + 1) for j in range(4)})
    return [member(4), member(3)]


# leading coefficients in X1 that vanish at the interpolation nodes Y1 = 0,
# 1 and 2, with coefficients too wide for the pair to be packed
VANISHING = (
    f"Y1*(Y1 - 2)*X1^3 + {3 << 200}*Y1^2*X1 - {5 << 190}",
    f"(Y1 - 1)*X1^2 - {7 << 210}*X1 + Y1^3 + {1 << 205}",
)


def _systems():
    rng = random.Random(26)
    out = []
    for m, count, terms, top in ((1, 3, 5, 3), (2, 3, 5, 2), (3, 4, 4, 1)):
        out += [(_random_system(rng, m, count, terms, top), m) for _ in range(6)]
    out += [(_wide_pair(rng, 300), 1) for _ in range(2)]
    out.append(([P(t) for t in VANISHING], 1))
    return out


def test_integer_elimination_equals_the_polynomial_path(monkeypatch):
    """Each residual of _eliminate_vars is the primitive part of the
    resultants over Polynomials, on seeded m = 1, 2 and 3 systems.  They
    take the packed leaf, the evaluation path above _PACK_CUTOFF and with
    two variables left, and leaves whose formal leading coefficient
    vanishes at an interpolation node."""
    seen = {"packed": 0, "above cutoff": 0, "two left": 0, "vanishing": 0}
    packed, interpolate, leaf = (polycore._resultant_packed, polycore._interpolate,
                                 polycore._resultant_leaf)

    def counted_packed(*args):
        seen["packed"] += 1
        return packed(*args)

    def counted_interpolate(values, y):
        # values hold another variable where two were left after `var`
        two = any(any(mono) for v in values for mono in v)
        seen["two left" if two else "above cutoff"] += 1
        return interpolate(values, y)

    def counted_leaf(f, g):
        seen["vanishing"] += not f[-1] or not g[-1]
        return leaf(f, g)

    monkeypatch.setattr(polycore, "_resultant_packed", counted_packed)
    monkeypatch.setattr(polycore, "_interpolate", counted_interpolate)
    monkeypatch.setattr(polycore, "_resultant_leaf", counted_leaf)
    compared = 0
    for polys, m in _systems():
        expected = [int_coeffs(r) for r in _polynomial_elimination(polys, m)]
        assert [univariate_coeffs(t) for t in _eliminate_vars(polys, m)] == expected
        compared += sum(len(p) > 1 for p in expected)
    assert compared >= 10
    assert all(seen.values()), seen


def test_assemble_converts_each_member_once_and_forms_no_fraction(monkeypatch):
    """assemble_G on a census-fiber family converts each distinct
    polynomial of its systems to an integer term table once, and never
    goes through the Fraction helpers of the Polynomial path."""
    base = (P("X1^2 - 2*Y1"), P("X1 - 2"), P("X1 + 1"), P("X1 - Y1 - 1"))
    systems = _systems_of(base, ((-1, -1, 1, -1),))
    converted = []
    convert = eliminate.integer_table

    def counted(p):
        converted.append(id(p))
        return convert(p)

    def forbidden(*args):
        raise AssertionError("a Fraction helper of the Polynomial path was called")

    monkeypatch.setattr(eliminate, "integer_table", counted)
    monkeypatch.setattr(polycore, "_integer_terms", forbidden)
    monkeypatch.setattr(polycore, "int_coeffs", forbidden)
    monkeypatch.setattr(eliminate, "int_coeffs", forbidden, raising=False)
    G = assemble_G(systems, R, 1)
    assert G.roots
    expected = set()
    for cs in systems:
        minors = [q for q in cs.minors if not q.is_zero()]
        if not any(q.is_constant() for q in minors):
            expected.update(id(p) for p in (*cs.active, *minors))
    assert len(converted) == len(set(converted)) == len(expected)
    assert set(converted) == expected
    assert len(systems) > 2 * len(expected) / 3  # members are shared


def test_assemble_normalises_each_eliminant_once_and_builds_defining_on_request(monkeypatch):
    """assemble_G on a census-fiber family makes each eliminant primitive
    once, where its resultant is taken, and carries that list unchanged to
    root isolation: no further primitive part, and no Polynomial until
    `defining` is read, which is then the basis as Polynomials in Y1."""
    base = (P("X1^2 - 2*Y1"), P("X1 - 2"), P("X1 + 1"), P("X1 - Y1 - 1"))
    systems = _systems_of(base, ((-1, -1, 1, -1),))
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((eliminate, "resultant"), (eliminate, "primitive_table"),
                         (polycore, "_primitive_int"), (eliminate, "univariate_to_poly")):
        count(module, name)
    G = assemble_G(systems, R, 1)
    assert G.roots and calls["resultant"] > 0
    assert calls["primitive_table"] == calls["resultant"]
    assert calls["_primitive_int"] == calls["univariate_to_poly"] == 0
    assert len(G.basis) > 1 and max(map(len, G.basis)) > 2  # degree 2 is tested
    defining = G.defining
    assert calls["univariate_to_poly"] == len(G.basis)
    assert defining == tuple(polycore.univariate_to_poly(R, 1, p) for p in G.basis)
    assert G.defining is defining
