"""Cells of the parameter line, one exact sample per cell, and fiber
invariants per sample.

The pipeline: perturb the family, build critical systems per stratum,
project them to the parameter line, cut the line at the projected roots,
probe one fiber per cell.  A rerun at delta squared checks that the cell
count and the multiset of component counts have stabilized.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cmp_to_key
from itertools import product
from math import gcd

from .critical import enumerate_strata, systems_for_strata
from .eliminate import (
    DegenerateEliminationError,
    DiscriminantSet,
    assemble_G,
)
from .perturb import build_ladder, construct_S_prime
from .polycore import (
    isolate_int_roots,
    primitive_signed,
    q_text,
    refine_interval,
    sign_int_at,
    ugcd_int,
    usquarefree_int,
)
# fiber_b0 no longer calls these two; they stay importable from this
# module because benchmark/tracing.py times them here by name.
from .polycore import coprime_basis, isolate_basis_roots  # noqa: F401
from .semialg import Atom, atom_polys, atoms_of, eval_formula, eval_signs, map_atoms


@dataclass(frozen=True)
class ParameterCell:
    """An open interval of the parameter line; None stands for an
    unbounded end."""

    left: object  # Q or None
    right: object  # Q or None
    sample: Q

    def contains(self, y) -> bool:
        if self.left is not None and not self.left < y:
            return False
        if self.right is not None and not y < self.right:
            return False
        return True

    def to_json_dict(self):
        return {
            "left": q_text(self.left),
            "right": q_text(self.right),
            "sample": q_text(self.sample),
        }


@dataclass(frozen=True)
class FiberReport:
    sample: Q
    b0: int
    method: str  # "exact-univariate" or "grid-oracle"
    resolution: object = None  # positive Q in grid mode

    def to_json_dict(self):
        out = {"sample": q_text(self.sample), "b0": self.b0, "method": self.method}
        if self.resolution is not None:
            out["resolution"] = q_text(self.resolution)
        return out


@dataclass(frozen=True)
class AtlasReport:
    cells: tuple
    fibers: tuple
    distinct_signatures: int
    delta_used: Q
    stabilization: bool

    def to_json_dict(self):
        return {
            "cells": [c.to_json_dict() for c in self.cells],
            "fibers": [f.to_json_dict() for f in self.fibers],
            "distinct_signatures": self.distinct_signatures,
            "delta_used": q_text(self.delta_used),
            "stabilization": self.stabilization,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_table(self) -> str:
        lines = ["cell".ljust(24) + "sample".ljust(12) + "b0  method"]
        for c, f in zip(self.cells, self.fibers):
            lo = "-inf" if c.left is None else str(c.left)
            hi = "+inf" if c.right is None else str(c.right)
            lines.append(
                f"({lo}, {hi})".ljust(24)
                + str(c.sample).ljust(12)
                + f"{f.b0}   {f.method}"
            )
        lines.append(
            f"distinct signatures: {self.distinct_signatures}"
            f"  delta: {self.delta_used}  stabilized: {self.stabilization}"
        )
        return "\n".join(lines)


def components_complement(G: DiscriminantSet):
    """k isolated roots yield k+1 open cells; samples are midpoints
    between consecutive root-interval hulls, hull +/- 1 at the ends."""
    for (a, b, _), (c, d, _) in zip(G.roots, G.roots[1:]):
        if b >= c:
            raise ValueError("overlapping root intervals; refine upstream")
    if not G.roots:
        return [ParameterCell(None, None, Q(0))]
    cells = []
    first_lo = G.roots[0][0]
    cells.append(ParameterCell(None, first_lo, first_lo - 1))
    for (a, b, _), (c, d, _) in zip(G.roots, G.roots[1:]):
        cells.append(ParameterCell(b, c, (b + c) / 2))
    last_hi = G.roots[-1][1]
    cells.append(ParameterCell(last_hi, None, last_hi + 1))
    return cells


def interior_points(cell: ParameterCell, count: int):
    """`count` distinct rationals strictly inside the cell."""
    if count < 1:
        raise ValueError("count must be positive")
    if cell.left is None and cell.right is None:
        return [cell.sample + k for k in range(count)]
    if cell.left is None:
        return [cell.right - Q(1, k + 1) for k in range(1, count + 1)]
    if cell.right is None:
        return [cell.left + Q(1, k + 1) for k in range(1, count + 1)]
    width = cell.right - cell.left
    return [cell.left + width * k / (count + 1) for k in range(1, count + 1)]


# -- fiber component counting ------------------------------------------

def _int_coeffs_of(polys):
    """Sign-faithful integer coefficients of each univariate atom
    polynomial; None for a constant."""
    return {
        p: None if p.is_constant()
        else primitive_signed([c.constant_value() for c in p.coeffs_in(0)])
        for p in polys
    }


def _signs_at_x(int_of, x):
    """Sign of every atom polynomial at the rational x."""
    signs = {}
    for p, coeffs in int_of.items():
        if coeffs is None:
            v = p.constant_value()
            signs[p] = (v > 0) - (v < 0)
        else:
            signs[p] = sign_int_at(coeffs, x)
    return signs


class _Core:
    """A core polynomial K of a fiber: integer coefficients, zero constant
    term, positive leading coefficient.  Its critical points (the real
    roots of K') are isolated once; K is strictly monotone on each piece
    between consecutive ones, so on a piece the roots of K - T for several
    thresholds T come in the order of the thresholds."""

    def __init__(self, K):
        dK = [i * c for i, c in enumerate(K)][1:]
        self.even = len(K) % 2 == 1  # even degree: K -> +oo at -oo
        self.q = usquarefree_int(dK)
        # refined in place; a root at a critical point shares its interval
        self.crit = [list(iv) for iv in isolate_int_roots(self.q)]
        if self.crit:
            gaps = ([self.crit[0][0] - 1]
                    + [(a[1] + b[0]) / 2 for a, b in zip(self.crit, self.crit[1:])]
                    + [self.crit[-1][1] + 1])
        else:
            gaps = [Q(0)]
        self.rising = [sign_int_at(dK, x) > 0 for x in gaps]

    def _refine_crit(self, i):
        self.crit[i][:] = refine_interval(self.q, *self.crit[i])

    def _value_sign(self, i, P, g):
        """Sign of K(c) - T at the i-th critical point c, where P is a
        positive multiple of K - T and g = gcd(P, q): K(c) = T exactly
        when g vanishes at c.  Otherwise refine c's interval until an
        interval enclosure of P over it excludes 0."""
        lo, hi = self.crit[i]
        if lo == hi:
            return sign_int_at(P, lo)
        if len(g) > 1 and sign_int_at(g, lo) != sign_int_at(g, hi):
            return 0
        while True:
            s = _sign_on(P, lo, hi)
            if s:
                return s
            self._refine_crit(i)
            lo, hi = self.crit[i]
            if lo == hi:
                return sign_int_at(P, lo)

    def _piece_interval(self, j, P):
        """Isolating interval of the one root of P on piece j, where P is
        nonzero at both ends and changes sign."""
        if len(P) == 2:
            x = Q(-P[0], P[1])
            return [x, x]
        bound = 2 + max(abs(c) for c in P[:-1]) // abs(P[-1])  # Cauchy
        last = len(self.crit)
        while True:
            lo = self.crit[j - 1][1] if j else Q(-bound)
            hi = self.crit[j][0] if j < last else Q(bound)
            sl, sh = sign_int_at(P, lo), sign_int_at(P, hi)
            if sl == 0:
                return [lo, lo]
            if sh == 0:
                return [hi, hi]
            if sl != sh:
                return [lo, hi]
            # the root lies inside a neighbouring critical interval
            for i in (j - 1, j):
                if 0 <= i < last:
                    self._refine_crit(i)

    def crossings(self, entries):
        """The real roots of K - T over the thresholds T of `entries`
        (T -> (P, atom polynomials)), sorted, as _Root objects."""
        ts = sorted(entries)
        irrational = any(lo != hi for lo, hi in self.crit)
        value_signs = {}  # sign of K - T at -oo, at each critical point, at +oo
        for t in ts:
            P = entries[t][0]
            g = ugcd_int(P, self.q) if irrational else []
            value_signs[t] = ([1 if self.even else -1]
                              + [self._value_sign(i, P, g) for i in range(len(self.crit))]
                              + [1])
        out = []
        for j, up in enumerate(self.rising):
            on_piece = [t for t in ts if value_signs[t][j] * value_signs[t][j + 1] < 0]
            for t in (on_piece if up else reversed(on_piece)):
                P, polys = entries[t]
                out.append(_Root(self, P, polys, self._piece_interval(j, P), P, True))
            if j < len(self.crit):
                for t in ts:
                    if value_signs[t][j + 1] == 0:
                        P, polys = entries[t]
                        flips = up == self.rising[j + 1]
                        out.append(_Root(self, P, polys, self.crit[j], self.q, flips))
        return out


def _sign_on(p, lo, hi):
    """Sign p takes on all of [lo, hi], or 0 when the interval Horner
    enclosure of p over [lo, hi] contains 0.  Integer arithmetic on
    d^deg * p(X/d), X in [d*lo, d*hi]."""
    d = lo.denominator * hi.denominator
    A, B = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    a = b = p[-1]
    pw = 1
    for c in reversed(p[:-1]):
        pw *= d
        prods = (a * A, a * B, b * A, b * B)
        a, b = min(prods) + c * pw, max(prods) + c * pw
    return 1 if a > 0 else -1 if b < 0 else 0


class _Root:
    """A root of the atom polynomials `polys` (all positive or negative
    multiples of P = core - T).  It is the one root of `refiner` in the
    interval `iv`: a point, or an open interval with `refiner` nonzero at
    both ends.  `flips` when the root has odd multiplicity."""

    __slots__ = ("core", "P", "polys", "iv", "refiner", "flips")

    def __init__(self, core, P, polys, iv, refiner, flips):
        self.core, self.P, self.polys = core, P, polys
        self.iv, self.refiner, self.flips = iv, refiner, flips

    def cut(self, t):
        """Shrink the interval to the side of the rational t, which lies
        strictly inside it, that holds the root."""
        s = sign_int_at(self.refiner, t)
        if s == 0:
            self.iv[:] = [t, t]
        elif s == sign_int_at(self.refiner, self.iv[0]):
            self.iv[0] = t
        else:
            self.iv[1] = t


def _compare(x, y):
    """-1, 0 or 1 as the root x lies left of, at or right of the root y
    of another core.  A point root cuts the other interval at itself;
    two open intervals are cut at the midpoint of their overlap until
    disjoint, unless the square-free gcd of the two atom polynomials
    changes sign over the overlap: each interval holds one root of its
    polynomial, so that root is both x and y."""
    g = None
    while True:
        (a, b), (c, d) = x.iv, y.iv
        if b < c or b == c and (a < b or c < d):
            return -1
        if d < a or d == a and (c < d or a < b):
            return 1
        if a == b:
            if c == d:
                return 0
            y.cut(a)
        elif c == d:
            x.cut(c)
        else:
            lo, hi = max(a, c), min(b, d)
            if g is None:
                g = usquarefree_int(ugcd_int(x.P, y.P))
            if len(g) > 1 and sign_int_at(g, lo) != sign_int_at(g, hi):
                return 0
            t = (lo + hi) / 2
            x.cut(t)
            y.cut(t)


def _fiber_roots(int_of):
    """Every real root of the nonconstant atom polynomials, sorted, as a
    list of events: the _Root objects (one per core) at that point.
    Each atom polynomial is written as lead * (core - T) with T rational;
    the cores' sorted root lists are merged, comparing only roots of
    distinct cores."""
    by_core = {}
    for p, c in int_of.items():
        if c is None:
            continue
        s = 1 if c[-1] > 0 else -1
        g = gcd(*c[1:])
        K = (0,) + tuple(s * v // g for v in c[1:])
        entry = by_core.setdefault(K, {}).setdefault(
            Q(-s * c[0], g), ([s * v for v in c], []))
        entry[1].append(p)
    merged = heapq.merge(
        *(_Core(list(K)).crossings(entries) for K, entries in by_core.items()),
        key=cmp_to_key(_compare))
    events = []
    for r in merged:
        if events and events[-1][0].core is not r.core \
                and _compare(events[-1][0], r) == 0:
            events[-1].append(r)
        else:
            events.append([r])
    return events


def fiber_b0(formula, y, m: int, mode: str = "exact",
             resolution=Q(1, 1024), box_radius=16) -> FiberReport:
    """Number of connected components of the fiber over y.

    Exact mode (m = 1 only): sweep the X-line through the sorted real
    roots of the substituted atom polynomials.  Every atom's sign is
    known at -oo; at a root its atoms are 0, and after it they change
    sign when the root has odd multiplicity.  Evaluate the formula on
    each open gap and at each root, count maximal runs of true pieces.
    Grid mode: sample on a regular grid of the stated resolution and
    count components by adjacency.
    """
    y = Q(y)
    if mode == "grid":
        return _fiber_b0_grid(formula, y, m, Q(resolution), box_radius)
    if m != 1:
        raise ValueError("exact fiber counting requires m = 1")
    restricted = map_atoms(
        formula, lambda a: Atom(a.poly.substitute({m: y}), a.rel))
    int_of = _int_coeffs_of(atom_polys(restricted))
    signs = {}
    for p, c in int_of.items():
        if c is None:
            v = p.constant_value()
            signs[p] = (v > 0) - (v < 0)
        else:  # sign at -oo: lead sign times (-1)^degree
            signs[p] = (1 if c[-1] > 0 else -1) * (1 if len(c) % 2 else -1)
    # alternating sequence: open piece, root, open piece, ..., open piece
    truths = [eval_signs(restricted, signs.__getitem__)]
    for event in _fiber_roots(int_of):
        zero = {p for r in event for p in r.polys}
        truths.append(eval_signs(
            restricted, lambda p: 0 if p in zero else signs[p]))
        for r in event:
            if r.flips:
                for p in r.polys:
                    signs[p] = -signs[p]
        truths.append(eval_signs(restricted, signs.__getitem__))
    b0 = 0
    prev = False
    for t in truths:
        if t and not prev:
            b0 += 1
        prev = t
    return FiberReport(y, b0, "exact-univariate")


def _fiber_b0_grid(formula, y, m, resolution, box_radius):
    """Grid oracle: regular samples at the given resolution, components
    by axis adjacency (union-find for m >= 2, run counting for m = 1)."""
    restricted = map_atoms(
        formula, lambda a: Atom(a.poly.substitute({m: y}), a.rel))
    step = Q(resolution)
    n_steps = int(2 * box_radius / step)
    if m == 1:
        int_of = _int_coeffs_of(atom_polys(restricted))
        b0 = 0
        prev = False
        for k in range(n_steps + 1):
            x = -box_radius + k * step
            t = eval_signs(restricted, _signs_at_x(int_of, x).__getitem__)
            if t and not prev:
                b0 += 1
            prev = t
        return FiberReport(y, b0, "grid-oracle", step)
    # m >= 2: union-find over the grid
    atom = next(atoms_of(restricted), None)
    if atom is None:
        truth = eval_signs(restricted, {}.__getitem__)
        return FiberReport(y, 1 if truth else 0, "grid-oracle", step)
    pad = (Q(0),) * (atom.poly.ring.nvars - m)
    coords = [-box_radius + k * step for k in range(n_steps + 1)]
    true_cells = {}
    for idx in product(range(len(coords)), repeat=m):
        pt = tuple(coords[i] for i in idx)
        if eval_formula(restricted, pt + pad):
            true_cells[idx] = idx
    parent = {c: c for c in true_cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for idx in true_cells:
        for axis in range(m):
            nb = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:]
            if nb in true_cells:
                ra, rb = find(idx), find(nb)
                if ra != rb:
                    parent[ra] = rb
    b0 = len({find(c) for c in true_cells})
    return FiberReport(y, b0, "grid-oracle", step)


# -- the end-to-end pipeline -------------------------------------------

def _single_run(base, sigma_set, m, n, delta, fiber_mode, grid_res):
    ring = base[0].ring
    ladder = build_ladder(len(base), delta)
    closed = construct_S_prime(sigma_set, base, ladder)
    members = atom_polys(closed.formula)
    strata = enumerate_strata(members, base, m + n) if members else []
    systems = systems_for_strata(strata, m) if strata else []
    G = assemble_G(systems, ring, m, n)
    cells = components_complement(G)
    mode = "grid" if m != 1 else fiber_mode
    fibers = [
        fiber_b0(closed.formula, cell.sample, m, mode, grid_res)
        for cell in cells
    ]
    return tuple(cells), tuple(fibers)


def run_atlas(base, sigma_set, m: int, n: int = 1, delta=Q(1, 64),
              refine_rounds: int = 3, fiber_mode: str = "exact",
              grid_res=Q(1, 1024)) -> AtlasReport:
    """Full pipeline with a stabilization rerun at delta squared.

    Degenerate eliminations trigger a delta refinement; after
    refine_rounds the last report is returned with stabilization False.
    """
    base = tuple(base)
    if not base:
        raise ValueError("empty base family")
    delta = Q(delta)
    last = None
    for _ in range(max(refine_rounds, 1)):
        try:
            cells, fibers = _single_run(
                base, sigma_set, m, n, delta, fiber_mode, grid_res
            )
            cells2, fibers2 = _single_run(
                base, sigma_set, m, n, delta ** 2, fiber_mode, grid_res
            )
        except DegenerateEliminationError:
            delta = delta ** 2
            last = None
            continue
        stable = len(cells) == len(cells2) and sorted(
            f.b0 for f in fibers
        ) == sorted(f.b0 for f in fibers2)
        report = AtlasReport(
            cells,
            fibers,
            len({f.b0 for f in fibers}),
            delta,
            stable,
        )
        if stable:
            return report
        last = report
        delta = delta ** 2
    if last is None:
        raise DegenerateEliminationError(
            "elimination stayed degenerate through all refinement rounds"
        )
    return last
