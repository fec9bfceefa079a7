"""Critical-point systems over perturbed strata."""
from fractions import Fraction as Q
from math import comb

import pytest

from fiberatlas.critical import (
    base_index_map,
    critical_system,
    enumerate_strata,
    systems_for_strata,
)
from fiberatlas.perturb import build_ladder
from fiberatlas.polycore import Ring, parse_polynomial
from fiberatlas.semialg import SignCondition, level

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


def test_base_index_map_detects_shifts():
    base = (P("X1^2 + Y1 - 1"), P("X1 - Y1"))
    members = [base[0] - Q(1, 64), base[1] + Q(1, 4096), P("X1*Y1")]
    assert base_index_map(members, base) == [0, 1, None]


def test_level1_zero_selection_count_s1():
    base = (P("X1^2 + Y1 - 1"),)
    members = _members(base, 1)
    strata = enumerate_strata(members, base, 1)
    level1 = [s for s in strata if level(s) == 1]
    # one base group with four shifted members: four level-1 selections
    assert len(level1) == 4
    assert all(len(s.zero_indices()) == 1 for s in level1)


def test_max_level_zero_gives_only_level0():
    base = (P("X1^2 + Y1 - 1"),)
    members = _members(base, 1)
    strata = enumerate_strata(members, base, 0)
    assert all(level(s) == 0 for s in strata)


def test_no_two_zeros_in_one_base_group():
    base = (P("X1^2 + Y1 - 1"), P("X1 - Y1"))
    members = _members(base, 2)
    idx = base_index_map(members, base)
    for sc in enumerate_strata(members, base, 2):
        zero_groups = [idx[i] for i in sc.zero_indices()]
        assert len(zero_groups) == len(set(zero_groups))


def test_critical_system_minor_count():
    ring = Ring(2, 1)
    base = (parse_polynomial("X1^2 + X2^2 + Y1 - 1", ring),)
    members = _members(base, 1)
    sc = SignCondition(tuple(members), (0,) + (None,) * 3)
    cs = critical_system(sc, 2)
    assert cs.kind == "C1"
    assert len(cs.minors) == comb(2, 1)


def test_critical_system_c2_above_m():
    ring = Ring(1, 1)
    base = (parse_polynomial("X1 - 1", ring),
            parse_polynomial("Y1 - 1", ring))
    members = _members(base, 2)
    idx = base_index_map(members, base)
    i0 = idx.index(0)
    i1 = idx.index(1)
    signs = [None] * len(members)
    signs[i0] = 0
    signs[i1] = 0
    sc = SignCondition(tuple(members), tuple(signs))
    cs = critical_system(sc, 1)
    assert cs.kind == "C2"
    assert cs.minors == ()


def test_level0_has_no_critical_system():
    base = (P("X1"),)
    members = _members(base, 1)
    sc = SignCondition(tuple(members), (None,) * len(members))
    with pytest.raises(ValueError):
        critical_system(sc, 1)


def test_systems_for_strata_sorted_and_skips_level0():
    base = (P("X1^2 + Y1 - 1"),)
    members = _members(base, 1)
    strata = enumerate_strata(members, base, 2)
    systems = systems_for_strata(strata, 1)
    assert all(level(cs.stratum) >= 1 for cs in systems)
    keys = [tuple(-2 if v is None else v for v in cs.stratum.signs)
            for cs in systems]
    assert keys == sorted(keys)
