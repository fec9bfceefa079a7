"""Projection of critical loci to the parameter line.

The exact pipeline is restricted to one parameter variable and at most
three fiber variables.  `atlas.run_atlas` refuses n != 1 before any run,
so every eliminant here is univariate in Y1 and is kept as a primitive
integer coefficient list.  Iterated resultants eliminate X1 upward;
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
    ugcd_int,
    univariate_to_poly,
    usquarefree_int,
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


def _combine_residuals(residuals):
    """Reduce the residual Y1-polynomials to one primitive integer
    coefficient list by univariate gcd.

    Returns None for an inconsistent system (a nonzero-constant residual
    or a constant gcd) and raises if everything vanished identically.
    """
    nonzero = [p for p in residuals if not p.is_zero()]
    if not nonzero:
        raise DegenerateEliminationError("all eliminants vanish identically")
    for p in nonzero:
        if p.is_constant():
            return None
    g = int_coeffs(nonzero[0])
    for p in nonzero[1:]:
        g = ugcd_int(g, int_coeffs(p))
        if len(g) == 1:
            return None
    return g


def project_system(cs: CriticalSystem, m: int):
    """Eliminants in Y1, as integer coefficient lists, whose roots
    contain the projection of the system's solution set: [] or [g].

    X1..Xm are eliminated from the active equations and every nonzero
    Jacobian minor as one system, since the Jacobian is rank-deficient
    where all of its minors vanish.  A nonzero-constant minor makes that
    conjunction empty; an identically zero minor is trivially satisfied
    and dropped.
    """
    if m > 3:
        raise UnsupportedModeError("exact projection requires m <= 3")
    minors = [q for q in cs.minors if not q.is_zero()]
    if any(q.is_constant() for q in minors):
        return []
    combined = _combine_residuals(_eliminate_vars(list(cs.active) + minors, m))
    return [] if combined is None else [combined]


def assemble_G(systems, ring: Ring, m: int) -> DiscriminantSet:
    """Union of all projected root sets: square-freed, deduplicated,
    isolated, sorted, with intervals refined until pairwise disjoint.
    Each root is attributed to the first defining polynomial vanishing
    there."""
    basis = [list(p) for p in dict.fromkeys(
        tuple(usquarefree_int(g)) for cs in systems for g in project_system(cs, m))]
    roots = isolate_basis_roots(basis)
    return DiscriminantSet(tuple(univariate_to_poly(ring, m, p) for p in basis),
                           tuple((Fraction(*lo), Fraction(*hi), k)
                                 for lo, hi, k in roots))
