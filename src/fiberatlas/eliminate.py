"""Projection of critical loci to the parameter line.

The exact pipeline is restricted to one parameter variable (n = 1) and at
most three fiber variables.  Iterated resultants eliminate X1 upward;
dropping a constraint only enlarges the projection, so the output is a
superset description: extra roots split cells but never merge distinct
fiber types.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .critical import CriticalSystem
from .polycore import (
    Ring,
    coprime_basis,
    int_coeffs,
    isolate_basis_roots,
    q_text,
    resultant,
    square_free_part,
    udivides_int,
    ugcd_int,
    univariate_to_poly,
)


class DegenerateEliminationError(ValueError):
    """Every eliminant of a system vanished identically; the caller
    should refine delta and rebuild the perturbed family."""


class UnsupportedModeError(ValueError):
    pass


@dataclass(frozen=True)
class DiscriminantSet:
    defining: tuple  # square-free univariate polynomials in Y1
    roots: tuple  # (lo, hi, defining index) sorted, pairwise disjoint
    mode: str

    def to_json_dict(self):
        return {
            "defining": [p.to_text() for p in self.defining],
            "roots": [
                {"lo": q_text(lo), "hi": q_text(hi), "poly": idx}
                for lo, hi, idx in self.roots
            ],
            "mode": self.mode,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _eliminate_vars(polys, m: int):
    """Eliminate X1..Xm from a polynomial system by iterated resultants.

    Returns the residual polynomials in the Y variables only.  A variable
    carried by a single system member is eliminated by dropping that
    member (superset semantics).
    """
    current = [p for p in polys if not p.is_zero()]
    for var in range(m):
        holding = [p for p in current if p.degree_in(var) > 0]
        rest = [p for p in current if p.degree_in(var) == 0]
        if not holding:
            current = rest
            continue
        if len(holding) == 1:
            current = rest
            continue
        pivot = min(holding, key=lambda p: p.degree_in(var))
        current = rest + [
            resultant(pivot, p, var) for p in holding if p is not pivot
        ]
    return current


def _combine_residuals(residuals, ring: Ring, m: int):
    """Reduce the residual Y-polynomials to at most one by univariate gcd.

    Returns None for an inconsistent system (a nonzero-constant residual
    or a constant gcd) and raises if everything vanished identically.
    """
    nonzero = [p for p in residuals if not p.is_zero()]
    if not nonzero:
        raise DegenerateEliminationError("all eliminants vanish identically")
    for p in nonzero:
        if p.is_constant():
            return None
    var, g = int_coeffs(nonzero[0])
    for p in nonzero[1:]:
        _, c = int_coeffs(p)
        g = ugcd_int(g, c)
        if len(g) == 1:
            return None
    return univariate_to_poly(ring, m, g)


def project_system(cs: CriticalSystem, m: int, n: int):
    """Eliminants in the Y variables whose roots contain the projection
    of the system's solution set.

    Minor handling: each minor is eliminated jointly with the active
    equations; the per-minor eliminants are combined by gcd, falling back
    to their product when the gcd is constant.  A nonzero-constant minor
    makes the rank-deficiency conjunction empty; an identically zero
    minor is trivially satisfied and dropped.
    """
    if n != 1:
        raise UnsupportedModeError("exact projection requires n = 1")
    if m > 3:
        raise UnsupportedModeError("exact projection requires m <= 3")
    ring = cs.active[0].ring
    if cs.kind == "C2":
        branches = [list(cs.active)]
    else:
        minors = [q for q in cs.minors if not q.is_zero()]
        for q in minors:
            if q.is_constant():
                return []
        if not minors:
            branches = [list(cs.active)]
        else:
            branches = [list(cs.active) + [q] for q in minors]
    eliminants = []
    for branch in branches:
        residuals = _eliminate_vars(branch, m)
        combined = _combine_residuals(residuals, ring, m)
        if combined is None:
            # this branch is inconsistent; the conjunction over all
            # minors is then empty for C1 with a single branch, but with
            # several branches the remaining ones may still contribute
            continue
        eliminants.append(combined)
    if not eliminants:
        return []
    if len(eliminants) == 1:
        return eliminants
    var, g = int_coeffs(eliminants[0])
    for p in eliminants[1:]:
        _, c = int_coeffs(p)
        g = ugcd_int(g, c)
        if len(g) == 1:
            break
    if len(g) > 1:
        return [univariate_to_poly(ring, m, g)]
    prod = eliminants[0]
    for p in eliminants[1:]:
        prod = prod * p
    return [prod]


def assemble_G(systems, ring: Ring, m: int, n: int = 1) -> DiscriminantSet:
    """Union of all projected root sets: square-freed, merged, isolated,
    sorted, with intervals refined until pairwise disjoint."""
    if n != 1:
        raise UnsupportedModeError("exact discriminant assembly requires n = 1")
    defining = []
    for cs in systems:
        for p in project_system(cs, m, n):
            if p.is_constant():
                continue
            sf = square_free_part(p)
            if sf.is_constant():
                continue
            if sf not in defining:
                defining.append(sf)
    if not defining:
        return DiscriminantSet((), (), "exact-n1")
    int_defining = [int_coeffs(p)[1] for p in defining]
    basis = coprime_basis(int_defining)
    # every basis member divides some defining polynomial; its owner is
    # the first one it divides
    owner = {
        tuple(bp): next((i for i, dc in enumerate(int_defining)
                         if udivides_int(bp, dc)), 0)
        for bp in basis
    }
    roots = []
    for lo, hi, bp in isolate_basis_roots(basis):
        roots.append((lo, hi, owner[tuple(bp)]))
    return DiscriminantSet(tuple(defining), tuple(roots), "exact-n1")
