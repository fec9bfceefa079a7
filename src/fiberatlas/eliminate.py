"""Projection of critical loci to the parameter line.

The exact pipeline is restricted to one parameter variable and at most
three fiber variables.  `atlas.run_atlas` refuses n != 1 before any run,
so every eliminant here is univariate in Y1 and is kept as a primitive
integer coefficient list.  The polynomials of the systems enter as
primitive integer term tables, each resultant is made primitive once
and carried as that list to root isolation, and no Fraction is formed
before the DiscriminantSet.  Iterated resultants eliminate X1 upward;
dropping a constraint only enlarges the projection, so the output is a
superset description: extra roots split cells but never merge distinct
fiber types.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .critical import CriticalSystem
from .polycore import (
    Ring,
    integer_table,
    isolate_basis_roots,
    primitive_table,
    ugcd_primitive,
    univariate_coeffs,
    univariate_to_poly,
    usquarefree_primitive,
)
# called by this name, which benchmark/tracing.py times
from .polycore import integer_resultant as resultant


class DegenerateEliminationError(ValueError):
    """Every eliminant of a system vanished identically; the caller
    should refine delta and rebuild the perturbed family."""


class UnsupportedModeError(ValueError):
    pass


@dataclass(frozen=True)
class DiscriminantSet:
    basis: tuple  # square-free primitive integer coefficient lists in Y1
    roots: tuple  # (lo, hi, basis index), Fraction ends, sorted, disjoint
    ring: Ring = None  # of `defining`, the basis as Polynomials, built when read

    @cached_property
    def defining(self):
        return tuple(univariate_to_poly(self.ring, self.ring.m, p) for p in self.basis)


def _eliminate_vars(polys, m: int, tables=None):
    """Eliminate X1..Xm from a polynomial system by iterated resultants
    of integer term tables.

    `tables` maps id(p) to the primitive integer term table of p and is
    filled as polys are converted, so a polynomial that several systems
    share is converted once.  Returns the residuals in the Y variables
    only, as primitive integer term tables.  A variable carried by a
    single system member is eliminated by dropping that member (superset
    semantics).
    """
    if tables is None:
        tables = {}
    current = []
    for p in polys:
        t = tables.get(id(p))
        if t is None:
            t = tables[id(p)] = integer_table(p)
        if t:
            current.append(t)
    for var in range(m):
        degrees = [max((mono[var] for mono in t), default=0) for t in current]
        holding = [(d, t) for d, t in zip(degrees, current) if d]
        rest = [t for d, t in zip(degrees, current) if not d]
        if len(holding) < 2:
            current = rest
            continue
        _, pivot = min(holding, key=lambda dt: dt[0])
        current = rest + [primitive_table(resultant(pivot, t, var))
                          for _, t in holding if t is not pivot]
    return current


def _combine_residuals(residuals):
    """Reduce the residual term tables in Y1, each primitive already, to
    one primitive integer coefficient list with positive lead by gcd;
    a single residual is only laid out (univariate_coeffs).

    Returns None for an inconsistent system (a nonzero-constant residual
    or a constant gcd) and raises if everything vanished identically.
    """
    nonzero = [t for t in residuals if t]
    if not nonzero:
        raise DegenerateEliminationError("all eliminants vanish identically")
    g = None
    for t in nonzero:
        p = univariate_coeffs(t)
        g = p if g is None else ugcd_primitive(g, p)
        if len(g) == 1:  # a nonzero constant residual or a constant gcd
            return None
    return g


def project_system(cs: CriticalSystem, m: int, tables=None):
    """Eliminants in Y1, as integer coefficient lists, whose roots
    contain the projection of the system's solution set: [] or [g].

    X1..Xm are eliminated from the active equations and every nonzero
    Jacobian minor as one system, since the Jacobian is rank-deficient
    where all of its minors vanish.  A nonzero-constant minor makes that
    conjunction empty; an identically zero minor is trivially satisfied
    and dropped.  `tables` is _eliminate_vars' record of converted
    polynomials, shared by the systems of one assemble_G call.
    """
    if m > 3:
        raise UnsupportedModeError("exact projection requires m <= 3")
    minors = [q for q in cs.minors if not q.is_zero()]
    if any(q.is_constant() for q in minors):
        return []
    combined = _combine_residuals(
        _eliminate_vars((*cs.active, *minors), m, tables))
    return [] if combined is None else [combined]


def assemble_G(systems, ring: Ring, m: int) -> DiscriminantSet:
    """Union of all projected root sets: square-freed, deduplicated,
    isolated, sorted, with intervals refined until pairwise disjoint.
    Each root is attributed to the first basis polynomial vanishing
    there."""
    tables = {}  # members are shared by many systems: convert each once
    basis = list({tuple(p): p for p in (
        usquarefree_primitive(g) for cs in systems
        for g in project_system(cs, m, tables))}.values())
    roots = isolate_basis_roots(basis)
    return DiscriminantSet(tuple(basis),
                           tuple((Fraction(*lo), Fraction(*hi), k) for lo, hi, k in roots),
                           ring)
