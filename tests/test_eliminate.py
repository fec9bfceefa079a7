"""Projection to the parameter line and discriminant assembly."""
from fractions import Fraction as Q

import pytest
from conftest import BUNDLED

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
from fiberatlas.polycore import Ring, parse_polynomial, sign_int_at
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


def test_eliminate_vars_resultant_path():
    polys = [P("X1^2 + Y1 - 1"), P("2*X1")]
    residuals = _eliminate_vars(polys, 1)
    assert len(residuals) == 1
    assert residuals[0] == P("4*Y1 - 4")


def test_eliminate_single_holder_dropped():
    # only one polynomial carries X1: dropping it keeps a superset
    residuals = _eliminate_vars([P("X1^2 + Y1"), P("Y1 - 2")], 1)
    assert residuals == [P("Y1 - 2")]


def test_combine_residuals_gcd():
    residuals = [P("(Y1 - 1)*(Y1 - 2)"), P("(Y1 - 1)*(Y1 + 3)")]
    combined = _combine_residuals(residuals)
    assert combined is not None
    assert sign_int_at(combined, (1, 1)) == 0
    assert len(combined) == 2  # degree 1


def test_combine_residuals_inconsistent():
    assert _combine_residuals([P("3")]) is None
    assert _combine_residuals([P("Y1 - 1"), P("Y1 - 2")]) is None


def test_combine_residuals_degenerate_raises():
    with pytest.raises(DegenerateEliminationError):
        _combine_residuals([P("0")])


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
