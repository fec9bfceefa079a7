"""Projection of the perturbed family to the parameter line.

`atlas.run_atlas` refuses any m or n other than 1 before a run, with
`atlas.UnsupportedModeError`, so the projection is the Collins
projection in one fiber variable (Collins 1975; Basu-Pollack-Roy,
Algorithms in Real Algebraic Geometry, ch. 11).
A stratum is the zero set of one or two members.  One member P gives
the system (P, dP/dX1), whose X1-resultant is the discriminant times
the leading coefficient; two members P, Q give their pair resultant.  A
member free of X1 is kept as it is.  A pair resultant that vanishes
identically gives way to the first nonzero principal subresultant
coefficient, so no projection fails.

Every eliminant is univariate in Y1 and is kept as a primitive integer
coefficient list.  The members enter as primitive integer term tables,
each resultant is made primitive once and carried as that list to root
isolation, and no Fraction is formed before the DiscriminantSet.  The
roots of the eliminants contain the projection of every stratum, so
extra roots split cells but never merge distinct fiber types.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .polycore import (
    Ring,
    integer_psc,
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


@dataclass(frozen=True)
class DiscriminantSet:
    basis: tuple  # square-free primitive integer coefficient lists in Y1
    roots: tuple  # (lo, hi, basis index), Fraction ends, sorted, disjoint
    ring: Ring = None  # of `defining`, the basis as Polynomials, built when read

    @cached_property
    def defining(self):
        return tuple(univariate_to_poly(self.ring, self.ring.m, p) for p in self.basis)


def enumerate_strata(members, base):
    """The zero sets of the strata of levels 1 and 2, as tuples of
    indices into members, in increasing order of their sign vectors with
    None (unconstrained) before 0: every (i,) and every (i, j) with
    i < j, for i from the last member down, each (i,) followed by its
    (i, j) for j from the last down.

    Two members that shift the same base polynomial by different
    constants never vanish together, so no pair of them is listed.
    """
    owner = [next((j for j, p in enumerate(base) if (q - p).is_constant()), None)
             for q in members]
    out = []
    for i in reversed(range(len(members))):
        out.append((i,))
        out.extend((i, j) for j in reversed(range(i + 1, len(members)))
                   if owner[i] is None or owner[i] != owner[j])
    return out


def systems_for_strata(strata, members):
    """The pair of polynomials each stratum projects: (P, dP/dX1) for a
    zero set {P}, (P, Q) for {P, Q}."""
    out = []
    for zeros in strata:
        p = members[zeros[0]]
        out.append((p, members[zeros[1]]) if len(zeros) == 2 else (p, p.derivative(0)))
    return out


def project_system(pair, tables):
    """Eliminants in Y1, as integer coefficient lists, whose roots
    contain the projection of the common zeros of the pair: [] or [g].

    Two members of positive degree in X1 give one X1-resultant, taken
    with the member of lower degree (the first on a tie) as pivot, or
    where it vanishes identically their first nonzero principal
    subresultant coefficient (integer_psc).  Otherwise the members free
    of X1 are kept and any other is dropped, which only enlarges the
    projection; a zero member (a constant base polynomial shifted by its
    own value) adds nothing.  The residuals are reduced by gcd to one
    primitive list with positive lead; a nonzero-constant residual or
    gcd makes the pair inconsistent, and [] is returned.  `tables` maps
    id(p) to the primitive integer term table of p and is filled as the
    pair is converted, so a member that several pairs share is converted
    once.
    """
    held = []
    for p in pair:
        t = tables.get(id(p))
        if t is None:
            t = tables[id(p)] = integer_table(p)
        if t:
            held.append(t)
    residuals = [t for t in held if not any(mono[0] for mono in t)]
    if not residuals and len(held) == 2:
        f, g = held
        if max(mono[0] for mono in g) < max(mono[0] for mono in f):
            f, g = g, f
        residuals = [primitive_table(resultant(f, g, 0) or integer_psc(f, g, 0))]
    g = None
    for t in residuals:
        p = univariate_coeffs(t)
        g = p if g is None else ugcd_primitive(g, p)
        if len(g) == 1:  # a nonzero constant residual or a constant gcd
            return []
    return [] if g is None else [g]


def assemble_G(systems, ring: Ring) -> DiscriminantSet:
    """Union of all projected root sets: square-freed, deduplicated,
    isolated, sorted, with intervals refined until pairwise disjoint.
    Each root is attributed to the first basis polynomial vanishing
    there."""
    tables = {}  # members are shared by many systems: convert each once
    basis = list({tuple(p): p for p in (
        usquarefree_primitive(g) for pair in systems
        for g in project_system(pair, tables))}.values())
    roots = isolate_basis_roots(basis)
    return DiscriminantSet(tuple(basis),
                           tuple((Fraction(*lo), Fraction(*hi), k) for lo, hi, k in roots),
                           ring)
