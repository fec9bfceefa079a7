"""Strata, projection to the parameter line and discriminant assembly."""
import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from conftest import BUNDLED

from fiberatlas import eliminate, polycore
from fiberatlas.eliminate import (
    assemble_G,
    enumerate_strata,
    project_system,
    systems_for_strata,
)
from fiberatlas.perturb import build_ladder, construct_S_prime
from fiberatlas.polycore import (
    Polynomial,
    Ring,
    int_coeffs,
    integer_resultant,
    integer_table,
    parse_polynomial,
    primitive_table,
    resultant,
    sign_int_at,
    ugcd_int,
    univariate_coeffs,
    usquarefree_int,
)
from fiberatlas.semialg import SignCondition, atoms_of

R = Ring(1, 1)


def P(text, ring=R):
    return parse_polynomial(text, ring)


def _members(base, s, delta=Q(1, 64)):
    """Every shifted member P_j -/+ eps(i, j), ordered by j, then i, then
    the sign of the shift."""
    ladder = build_ladder(s, delta)
    return [p + sign * ladder.value(i, j)
            for j, p in enumerate(base, start=1)
            for i in range(1, 2 * s + 1)
            for sign in (-1, 1)]


def _closed_members(base, sigma):
    """The distinct atom polynomials of S' at delta = 1/64, in order."""
    closed = construct_S_prime([SignCondition(base, s) for s in sigma], base,
                               build_ladder(len(base), Q(1, 64)))
    members = []
    for atom in atoms_of(closed.formula):
        if atom.poly not in members:
            members.append(atom.poly)
    return members


def _systems_of(base, sigma):
    members = _closed_members(base, sigma)
    return systems_for_strata(enumerate_strata(members, base), members)


def _quadric_systems():
    return _systems_of((P("X1^2 + Y1 - 1"),), ((0,),)), R


# -- strata and their systems ------------------------------------------

def test_enumerate_strata_detects_shifts():
    """Members 0 and 3 shift the same base polynomial and never vanish
    together; X1*Y1 shifts none and pairs with every member."""
    base = (P("X1^2 + Y1 - 1"), P("X1 - Y1"))
    members = [base[0] - Q(1, 64), base[1] + Q(1, 4096), P("X1*Y1"), base[0] + Q(1, 64)]
    pairs = {z for z in enumerate_strata(members, base) if len(z) == 2}
    assert pairs == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_level1_zero_selection_count_s1():
    # one base group with four shifted members: four level-1 selections
    # and no pair
    base = (P("X1^2 + Y1 - 1"),)
    assert enumerate_strata(_members(base, 1), base) == [(3,), (2,), (1,), (0,)]


def test_no_two_zeros_in_one_base_group():
    base = (P("X1^2 + Y1 - 1"), P("X1 - Y1"))
    members = _members(base, 2)
    strata = enumerate_strata(members, base)
    assert {len(z) for z in strata} == {1, 2}
    for zeros in strata:
        groups = [i // 8 for i in zeros]  # 8 shifted members per base polynomial
        assert len(groups) == len(set(groups))


def test_strata_sorted_by_sign_vector_with_none_before_zero():
    """The strata come in increasing order of their sign vectors over the
    members, None (unconstrained) before 0, and each pairs its two zero
    members or its one with that member's X1-derivative."""
    base = (P("X1^2 + Y1 - 1"), P("Y1 - 2"))
    members = _members(base, 2)
    strata = enumerate_strata(members, base)
    keys = [tuple(0 if i in zeros else -2 for i in range(len(members)))
            for zeros in strata]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len(strata) == 16 + 8 * 8  # 16 members, 8 per base polynomial
    systems = systems_for_strata(strata, members)
    for zeros, pair in zip(strata, systems):
        p = members[zeros[0]]
        assert pair == ((p, members[zeros[1]]) if len(zeros) == 2
                        else (p, p.derivative(0)))


# -- projection of one system ------------------------------------------

def test_eliminate_vars_resultant_path():
    # 2*X1 enters as X1: res(X1, X1^2 + Y1 - 1) = Y1 - 1 needs no scale
    assert project_system((P("X1^2 + Y1 - 1"), P("2*X1")), {}) == [[-1, 1]]


def test_eliminate_single_holder_dropped():
    # only one polynomial carries X1: dropping it keeps a superset
    assert project_system((P("X1^2 + Y1"), P("Y1 - 2")), {}) == [[-2, 1]]
    assert project_system((P("2*Y1 - 4"), P("X1^2 + Y1")), {}) == [[-2, 1]]


def test_combine_residuals_gcd():
    pair = (P("(Y1 - 1)*(Y1 - 2)"), P("(Y1 - 1)*(Y1 + 3)"))
    assert project_system(pair, {}) == [[-1, 1]]


def test_combine_residuals_inconsistent():
    assert project_system((P("3"), P("Y1")), {}) == []
    assert project_system((P("Y1 - 1"), P("Y1 - 2")), {}) == []
    # linear in X1 with a constant lead: the derivative is a nonzero constant
    p = P("X1 + Y1^2")
    assert project_system((p, p.derivative(0)), {}) == []


def test_combine_residuals_shared_factor():
    """A pair whose resultant vanishes identically projects to its first
    nonzero principal subresultant coefficient: the meeting points of the
    cofactors and the roots of the common factor's lead."""
    for texts, expected in (
            (("(X1 - Y1)*(X1 - 1)", "(X1 - Y1)*(X1 + Y1)"), [[1, 1]]),  # -1
            (("X1*(X1 - Y1)", "X1*(X1 + Y1)"), [[0, 1]]),
            (("(Y1*X1 - 1)*(X1 - 2)", "(Y1*X1 - 1)*(X1 + 3)"), [[0, 0, 1]]),  # lc(h)
            (("Y1*X1 - 1", "(Y1*X1 - 1)*(X1 + 1)"), [[0, 1]]),  # a linear h
            (("X1 - Y1", "2*X1 - 2*Y1"), [])):
        assert project_system(_pair(*texts), {}) == expected, texts


def test_project_quadric_critical_value():
    systems, ring = _quadric_systems()
    tables = {}
    projections = []
    for pair in systems:
        projections.extend(project_system(pair, tables))
    roots = set()
    for p in projections:
        for y in ((63, 64), (65, 64)):
            if sign_int_at(p, y) == 0:
                roots.add(y)
    assert roots == {(63, 64), (65, 64)}


def test_assemble_quadric_discriminant():
    systems, ring = _quadric_systems()
    G = assemble_G(systems, ring)
    assert len(G.roots) == 2
    (lo1, hi1, _), (lo2, hi2, _) = G.roots
    assert lo1 <= Q(63, 64) <= hi1
    assert lo2 <= Q(65, 64) <= hi2
    assert hi1 < lo2 or (hi1 == lo2 and lo1 == hi1 != lo2)


def test_assemble_empty_systems():
    G = assemble_G([], Ring(1, 1))
    assert G.roots == ()
    assert G.defining == ()


def test_roots_refer_to_vanishing_defining_polys():
    systems, ring = _quadric_systems()
    G = assemble_G(systems, ring)
    for lo, hi, idx in G.roots:
        p = G.defining[idx]
        vals = [p.eval_at((Q(0), lo)), p.eval_at((Q(0), hi))]
        assert any(v == 0 for v in vals) or vals[0] * vals[1] < 0


# -- the same projection of the base family S itself -------------------

def _project_base(*texts):
    base = tuple(P(t) for t in texts)
    return assemble_G(systems_for_strata(enumerate_strata(base, base), base), R)


@pytest.mark.parametrize("texts, roots", [
    (("X1 - 1", "X1 - 2", "X1 - Y1"), [1, 2]),  # twolines
    (("X1^2 + Y1 - 1",), [1]),  # quadric
    (("Y1*X1 - 1",), [0]),  # a leading coefficient that vanishes at 0
])
def test_projection_of_the_base_family_gives_its_rational_sections(texts, roots):
    """Run on S itself, with no perturbation, the projection's roots are
    exactly the points where the family degenerates."""
    G = _project_base(*texts)
    assert [(lo, hi) for lo, hi, _ in G.roots] == [(Q(r), Q(r)) for r in roots]


def test_projection_of_the_base_family_gives_its_irrational_sections():
    # X1^2 - Y1^2 + 2 has a double root in X1 at Y1 = -sqrt(2) and sqrt(2)
    G = _project_base("X1^2 - Y1^2 + 2")
    assert G.basis == ([-2, 0, 1],)
    assert [k for _, _, k in G.roots] == [0, 0]
    assert G.roots[0][1] < 0 < G.roots[1][0]


def test_projection_of_a_base_member_that_is_not_square_free():
    """The discriminant of (X1^2 + Y1)^2 vanishes identically; its first
    nonzero principal subresultant coefficient keeps the one section,
    Y1 = 0, where the double roots +-sqrt(-Y1) meet."""
    G = _project_base("(X1^2 + Y1)^2")
    assert G.basis == ([0, 1],)
    assert [(lo, hi) for lo, hi, _ in G.roots] == [(Q(0), Q(0))]


SEXTIC = (  # a census-elim sextic: a degree-20 discriminant at delta = 1/64
    "X1^6 - 12288*X1^5*Y1^2 + 192*X1^5*Y1 + 8192*X1^4*Y1^2 + 192*X1^4*Y1"
    " - 3*X1^4 - 8192*X1^3*Y1^2 - 64*X1^3*Y1 + 3*X1^3 + 4096*X1^2*Y1^2"
    " + 3*X1^2 - 12288*X1*Y1^2 - 128*X1*Y1 - X1 + 4096*Y1^2 + 64*Y1 + 1"
)


def _pair(*texts):
    return tuple(P(t) for t in texts)


def _random_in_x1(rng, dx, dy):
    """A polynomial of degree dx in X1 and at most dy in Y1 with
    coefficients in [-4, 4]/(1..3) and a nonzero lead in X1."""
    terms = {(i, j): Q(rng.randint(-4, 4), rng.randint(1, 3))
             for i in range(dx) for j in range(dy + 1)}
    terms[(dx, rng.randint(0, dy))] = Q(rng.choice((-3, -1, 1, 2)))
    return Polynomial(R, terms)


def test_shared_factor_keeps_the_cofactors_meeting_points_and_its_leads_roots():
    """On seeded pairs (h*u, h*v), whose resultant vanishes identically,
    the eliminant vanishes at every root of resultant(u, v) and of
    lc(h): the square-free part of each divides it.  One h is the
    census-elim sextic, whose pairs are packed above _PACK_CUTOFF."""
    rng = random.Random(30)
    hs = [P(SEXTIC)] + [_random_in_x1(rng, rng.randint(1, 2), 2) for _ in range(7)]
    checked = 0
    for h in hs:
        u, v = (_random_in_x1(rng, rng.randint(1, 2), rng.randint(0, 2)) for _ in "uv")
        assert resultant(h * u, h * v, 0).is_zero()
        out = project_system((h * u, h * v), {})
        eliminant = out[0] if out else [1]
        for r in (int_coeffs(resultant(u, v, 0)), int_coeffs(h.coeffs_in(0)[-1])):
            if len(r) > 1:
                sf = usquarefree_int(r)
                assert ugcd_int(eliminant, sf) == sf, (h, u, v)
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["quadric", "twolines", "sextic", "shared root",
                                  "shared irrational root", "root shared by three"])
def test_each_root_belongs_to_the_first_defining_poly_vanishing_there(name):
    """Every root interval holds a root of its defining polynomial, a
    point where it vanishes or an interval over which it changes sign,
    and every earlier defining polynomial has one nonzero sign at both
    of its ends."""
    if name == "shared root":  # Y1 - 1 and Y1^2 - 1 share the root 1
        systems = [_pair("X1 - Y1", "X1 - 1"), _pair("X1 - Y1", "X1^2 - 1")]
    elif name == "shared irrational root":  # both vanish at +-sqrt(2)
        systems = [_pair("X1 - Y1", "(X1^2 - 2)*(X1 - 3)"), _pair("X1 - Y1", "X1^2 - 2")]
    elif name == "root shared by three":  # all three vanish at 1
        systems = [_pair("X1 - Y1", "(X1 - 1)*(X1 + 2)"), _pair("X1 - Y1", "X1^2 - 1"),
                   _pair("X1 - Y1", "X1 - 1")]
    elif name == "sextic":
        systems = _systems_of((P(SEXTIC),), ((0,),))
    else:
        example = next(e for e in BUNDLED if e.name == name)
        systems = _systems_of(example.base, example.sigma)
    G = assemble_G(systems, R)
    assert G.roots
    for lo, hi, idx in G.roots:
        ends = [[p.eval_at((Q(0), x)) for x in (lo, hi)] for p in G.defining]
        if lo == hi:
            assert ends[idx][0] == 0
        else:
            assert ends[idx][0] * ends[idx][1] < 0
        for a, b in ends[:idx]:
            assert a * b > 0


def _polynomial_elimination(polys, m):
    """Eliminate X1..Xm by iterated resultants over Polynomials: at each
    variable, the member of least positive degree is the pivot of a
    resultant with each other member that holds it, a member that alone
    holds it is dropped, and the members free of it are kept."""
    current = [p for p in polys if not p.is_zero()]
    for var in range(m):
        holding = [p for p in current if p.degree_in(var) > 0]
        current = [p for p in current if p.degree_in(var) == 0]
        if len(holding) > 1:
            pivot = min(holding, key=lambda p: p.degree_in(var))
            current += [resultant(pivot, p, var) for p in holding if p is not pivot]
    return current


def _integer_elimination(polys, m):
    """_polynomial_elimination over primitive integer term tables, each
    resultant taken by integer_resultant and made primitive."""
    def degree(t, var):
        return max((mono[var] for mono in t), default=0)

    current = [t for t in map(integer_table, polys) if t]
    for var in range(m):
        holding = [t for t in current if degree(t, var) > 0]
        current = [t for t in current if degree(t, var) == 0]
        if len(holding) > 1:
            pivot = min(holding, key=lambda t: degree(t, var))
            current += [primitive_table(integer_resultant(pivot, t, var))
                        for t in holding if t is not pivot]
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
    """Iterated integer resultants, each made primitive, equal the
    primitive parts of the resultants over Polynomials, on seeded m = 1,
    2 and 3 systems.  They
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
        assert [univariate_coeffs(t) for t in _integer_elimination(polys, m)] == expected
        compared += sum(len(p) > 1 for p in expected)
    assert compared >= 10
    assert all(seen.values()), seen


def test_assemble_converts_each_member_once_and_forms_no_fraction(monkeypatch):
    """assemble_G on a census-fiber family converts each distinct
    polynomial of its pairs to an integer term table once, and never
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
    G = assemble_G(systems, R)
    assert G.roots
    expected = {id(p) for pair in systems for p in pair}
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
    G = assemble_G(systems, R)
    assert G.roots and calls["resultant"] > 0
    assert calls["primitive_table"] == calls["resultant"]
    assert calls["_primitive_int"] == calls["univariate_to_poly"] == 0
    assert len(G.basis) > 1 and max(map(len, G.basis)) > 2  # degree 2 is tested
    defining = G.defining
    assert calls["univariate_to_poly"] == len(G.basis)
    assert defining == tuple(polycore.univariate_to_poly(R, 1, p) for p in G.basis)
    assert G.defining is defining
