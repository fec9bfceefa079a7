"""Projection of critical loci to the parameter line.

The exact pipeline is restricted to one parameter variable (n = 1) and at
most three fiber variables.  Iterated resultants eliminate X1 upward;
dropping a constraint only enlarges the projection, so the output is a
superset description: extra roots split cells but never merge distinct
fiber types.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .critical import CriticalSystem
from .polycore import (
    Ring,
    int_coeffs,
    isolate_basis_roots,
    resultant,
    square_free_part,
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
    roots: tuple  # (lo, hi, defining index), Fraction ends, sorted, disjoint


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

    X1..Xm are eliminated from the active equations and every nonzero
    Jacobian minor as one system, since the Jacobian is rank-deficient
    where all of its minors vanish.  A nonzero-constant minor makes that
    conjunction empty; an identically zero minor is trivially satisfied
    and dropped.
    """
    if n != 1:
        raise UnsupportedModeError("exact projection requires n = 1")
    if m > 3:
        raise UnsupportedModeError("exact projection requires m <= 3")
    minors = [q for q in cs.minors if not q.is_zero()]
    if any(q.is_constant() for q in minors):
        return []
    residuals = _eliminate_vars(list(cs.active) + minors, m)
    combined = _combine_residuals(residuals, cs.active[0].ring, m)
    return [] if combined is None else [combined]


def assemble_G(systems, ring: Ring, m: int, n: int = 1) -> DiscriminantSet:
    """Union of all projected root sets: square-freed, deduplicated,
    isolated, sorted, with intervals refined until pairwise disjoint.
    Each root is attributed to the first defining polynomial vanishing
    there."""
    if n != 1:
        raise UnsupportedModeError("exact discriminant assembly requires n = 1")
    defining = tuple(dict.fromkeys(
        square_free_part(p) for cs in systems for p in project_system(cs, m, n)))
    roots = isolate_basis_roots([int_coeffs(p)[1] for p in defining])
    return DiscriminantSet(defining, tuple((Fraction(*lo), Fraction(*hi), k)
                                           for lo, hi, k in roots))
