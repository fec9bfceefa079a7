"""Critical-point systems per stratum of the perturbed family.

A stratum of level l <= m contributes its active equations together with
the C(m, l) determinants of the l x l submatrices of the Jacobian with
respect to the fiber variables X1..Xm (kind C1).  Strata of level > m are
collected with their equations only (kind C2): their projections are
low-dimensional outright.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .polycore import determinant
from .semialg import SignCondition, level


@dataclass(frozen=True)
class CriticalSystem:
    stratum: SignCondition
    active: tuple  # zero-signed members, as equations
    minors: tuple  # Jacobian minor determinants (kind C1 only)
    kind: str  # "C1" or "C2"


def base_index_map(members, base):
    """Map each member polynomial to the index of the base polynomial it
    shifts (member - base constant), or None if it shifts none of them."""
    out = []
    for q in members:
        found = None
        for j, p in enumerate(base):
            if (q - p).is_constant():
                found = j
                break
        out.append(found)
    return out


def enumerate_strata(members, base, max_level: int):
    """Zero-selection representatives of all strata of level <= max_level.

    Two members shifting the same base polynomial can never vanish
    together (their constant shifts differ), so selections pick at most
    one member per base index.  Non-zero entries are left unconstrained
    (None): the critical system depends only on the zero set.  Level 0 is
    represented by the single all-unconstrained condition.
    """
    members = tuple(members)
    owner = base_index_map(members, base)
    out = [SignCondition(members, (None,) * len(members))]
    by_owner = {}
    for idx, j in enumerate(owner):
        by_owner.setdefault(j if j is not None else ("solo", idx), []).append(idx)
    groups = list(by_owner.values())
    for ell in range(1, max_level + 1):
        if ell > len(groups):
            break
        for chosen_groups in combinations(range(len(groups)), ell):
            for picks in product(*(groups[g] for g in chosen_groups)):
                vec = [None] * len(members)
                for idx in picks:
                    vec[idx] = 0
                out.append(SignCondition(members, tuple(vec)))
    return out


def critical_system(sc: SignCondition, m: int) -> CriticalSystem:
    """Active equations plus the C(m, l) Jacobian minors in the X variables."""
    ell = level(sc)
    if ell == 0:
        raise ValueError("level-0 stratum has no critical-point notion")
    active = tuple(p for p, s in zip(sc.family, sc.signs) if s == 0)
    if ell > m:
        return CriticalSystem(sc, active, (), "C2")
    jac = [[p.derivative(i) for i in range(m)] for p in active]
    minors = tuple(determinant([[row[c] for c in cols] for row in jac])
                   for cols in combinations(range(m), ell))
    return CriticalSystem(sc, active, minors, "C1")


def systems_for_strata(strata, m: int):
    """Critical systems for all positive-level strata, in deterministic
    (lexicographic sign vector) order."""
    keyed = sorted(
        (s for s in strata if level(s) >= 1),
        key=lambda s: tuple(-2 if v is None else v for v in s.signs),
    )
    return [critical_system(s, m) for s in keyed]
