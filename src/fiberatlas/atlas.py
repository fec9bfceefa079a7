"""Cells of the parameter line, one exact sample per cell, and fiber
invariants per sample.

The pipeline: perturb the family, list the strata of one and two
vanishing members, project each to the parameter line by one resultant
in X1 (eliminate), cut the line at the projected roots, probe one fiber
per cell.  A rerun at delta squared checks that the cell count and the
multiset of component counts have stabilized.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul

from .eliminate import (
    DiscriminantSet,
    assemble_G,
    enumerate_strata,
    systems_for_strata,
)
from .perturb import build_ladder, construct_S_prime
from .polycore import (
    NotSquareFreeError,
    bisect_interval,
    integer_table,
    isolate_int_roots,
    q_cmp,
    q_mid,
    q_text,
    same_root,
    sign_int_at,
    ugcd_int,
    usquarefree_int,
)
# fiber_b0 no longer calls these two; they stay importable from this
# module because benchmark/tracing.py times them here by name.
from .polycore import coprime_basis, isolate_basis_roots  # noqa: F401
from .semialg import Atom, eval_signs, map_atoms


class UnsupportedModeError(ValueError):
    """A fiber or census this module does not count."""


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
    method: str  # "exact-univariate"

    def to_json_dict(self):
        return {"sample": q_text(self.sample), "b0": self.b0, "method": self.method}


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
        # every field ends in a space, so a field wider than its column
        # is not run together with the next one
        lines = ["cell".ljust(23) + " " + "sample".ljust(11) + " " + "b0  method"]
        for c, f in zip(self.cells, self.fibers):
            lo = "-inf" if c.left is None else str(c.left)
            hi = "+inf" if c.right is None else str(c.right)
            lines.append(
                f"({lo}, {hi})".ljust(23) + " "
                + str(c.sample).ljust(11) + " "
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

class FiberPlan:
    """A formula compiled once for all of its fibers over Y1 = y.

    `polys` are its distinct atom polynomials in first-seen order, and
    `indexed` is the formula with each atom polynomial replaced by its
    index there, so `eval_signs(indexed, signs.__getitem__)` evaluates it
    over a list of signs; `truth` memoises that per sign vector for the
    life of the plan.  For m = 1, the first `split_at` builds `groups`:
    each atom's integer table (`_int_table`) cut into its X1-part (rows
    i >= 1) and its constant row, with the atoms whose X1-parts are equal
    up to a nonzero integer factor in one group, keyed by the primitive
    X1-part; the atoms constant in X1 form a group of their own.  `cores`
    has a key for the core of each X1-part free of Y1, and keeps its
    _Core there for the life of the plan once it is made.
    """

    def __init__(self, formula):
        index = {}
        made = {}  # id(atom): its indexed atom, once per shared atom object

        def indexed(a):
            b = made.get(id(a))
            if b is None:
                b = made[id(a)] = Atom(index.setdefault(a.poly, len(index)), a.rel)
            return b

        self.formula = formula
        self.indexed = map_atoms(formula, indexed)
        self.polys = list(index)
        self.groups = None
        self.cores = {}
        self.truths = {}

    def truth(self, signs):
        """The formula's value when atom polynomial k has sign signs[k]."""
        key = tuple(signs)
        t = self.truths.get(key)
        if t is None:
            t = self.truths[key] = eval_signs(self.indexed, key.__getitem__)
        return t

    def _compile(self):
        """groups: (rows, K, members) per X1-part.  rows are the primitive
        X1-part's rows in Y1, of one width, with the last nonzero entry of
        the top row positive; K is its core when no row has Y1, else None;
        members are (k, f, row0, d0): atom k's X1-part is f * rows and
        its constant row is row0, of Y1-degree d0."""
        tables = [_int_table(p) for p in self.polys]
        self.y_degree = max((len(t[0]) for t in tables), default=1) - 1
        groups = {}
        for k, (row0, *part) in enumerate(tables):
            while len(row0) > 1 and row0[-1] == 0:
                row0.pop()
            f, K = 0, None
            if part:
                width = 1 + max(j for row in part for j, v in enumerate(row) if v)
                f = gcd(*(v for row in part for v in row))
                if next(v for v in reversed(part[-1]) if v) < 0:
                    f = -f
                part = [tuple(v // f for v in row[:width]) for row in part]
                if width == 1:
                    K = (0,) + tuple(row[0] for row in part)
            group = groups.get(key := tuple(part))
            if group is None:
                group = groups[key] = (key, K, [])
                if K is not None:
                    self.cores[K] = None
            group[2].append((k, f, tuple(row0), len(row0) - 1))
        self.groups = list(groups.values())

    def split_at(self, y):
        """The atoms at Y1 = y as (signs, cores).  signs[k] is atom k's
        sign as X1 -> -oo, so its sign where it is constant in X1.  cores
        maps each core K (integers, K[0] = 0, primitive, positive lead)
        to {T: atoms}, with atom k under T = (num, den), in lowest terms
        and den > 0, when it is lead * (K - num/den) for a rational lead.
        Each group's X1-part is evaluated once, then each atom's constant
        row, and one gcd per atom reduces T."""
        if self.groups is None:
            self._compile()
        a, b = y.numerator, y.denominator
        bp = [b ** d for d in range(self.y_degree + 1)]
        # weights[d][j] = a^j * b^(d - j), so that b^d * row(y) is
        # sum(map(mul, row, weights[d])) for a row of Y1-degree d
        weights = [[a ** j * bp[d - j] for j in range(d + 1)]
                   for d in range(self.y_degree + 1)]

        signs = [0] * len(self.polys)
        cores = {}
        for rows, K, members in self.groups:
            g = bD = 1
            if K is None and rows:  # the X1-part has Y1
                D = len(rows[0]) - 1
                raw = [0] + [sum(map(mul, row, weights[D])) for row in rows]
                while raw[-1] == 0 and len(raw) > 1:
                    raw.pop()
                if len(raw) > 1:
                    g = gcd(*raw) if raw[-1] > 0 else -gcd(*raw)
                    K = tuple(v // g for v in raw)
                    bD = bp[D]
            if K is None:  # constant in X1 at y
                for k, _, row0, d0 in members:
                    c = sum(map(mul, row0, weights[d0]))
                    signs[k] = (c > 0) - (c < 0)
                continue
            by_t = cores.setdefault(K, {})
            at_minus_oo = 1 if len(K) % 2 else -1  # (-1)^degree
            for k, f, row0, d0 in members:
                # b^(D + d0) times atom k at y is A * K + B, with D the
                # Y1-degree of rows (0 when free of Y1)
                A = f * g * bp[d0]
                B = sum(map(mul, row0, weights[d0])) * bD
                h = gcd(A, B)
                if A > 0:
                    T = (-B // h, A // h)
                    signs[k] = at_minus_oo
                else:
                    T = (B // h, -A // h)
                    signs[k] = -at_minus_oo
                atoms = by_t.get(T)
                if atoms is None:
                    by_t[T] = [k]
                else:
                    atoms.append(k)
        return signs, cores

    def coeffs_at(self, y):
        """Per atom, its coefficients in X1 at Y1 = y as primitive integers
        scaled by a positive factor, so signs agree everywhere: the
        nonzero constants become [1] or [-1], the zero polynomial []."""
        signs, cores = self.split_at(y)
        out = [[s] if s else [] for s in signs]
        for K, by_t in cores.items():
            odd = len(K) % 2 == 0
            for T, atoms in by_t.items():
                P = _threshold_poly(K, T)
                for k in atoms:
                    out[k] = P if (signs[k] < 0) == odd else [-v for v in P]
        return out

    def core(self, K):
        """The _Core of K: made once per plan when K is the core of an
        X1-part free of Y1, else made anew."""
        c = self.cores.get(K)
        if c is None:
            c = _Core(list(K))
            if K in self.cores:
                self.cores[K] = c
        return c


def _threshold_poly(K, T):
    """den * K - num, for the threshold T = (num, den)."""
    num, den = T
    return [-num] + [den * v for v in K[1:]]


def _int_table(p):
    """Rows t[i][j] of the coefficients of X1^i * Y1^j in integer_table
    of the polynomial p in X1 and Y1, a positive multiple of p."""
    terms = integer_table(p)
    di = max((mono[0] for mono in terms), default=0)
    dj = max((mono[1] for mono in terms), default=0)
    rows = [[0] * (dj + 1) for _ in range(di + 1)]
    for mono, c in terms.items():
        if any(mono[2:]):
            raise ValueError(f"atom {p.to_text()} is not in X1 and Y1 only")
        rows[mono[0]][mono[1]] = c
    return rows


class _Core:
    """A core polynomial K of a fiber: integer coefficients, zero constant
    term, positive leading coefficient.  Its critical points (the real
    roots of K') are isolated once; K is strictly monotone on each piece
    between consecutive ones, so on a piece the roots of K - T for several
    thresholds T come in the order of the thresholds."""

    def __init__(self, K):
        dK = [i * c for i, c in enumerate(K)][1:]
        self.even = len(K) % 2 == 1  # even degree: K -> +oo at -oo
        # made square-free only where isolation meets a multiple real root
        content = gcd(*dK)
        self.q = [c // content for c in dK]
        try:
            crit = isolate_int_roots(self.q)
        except NotSquareFreeError:
            self.q = usquarefree_int(dK)
            crit = isolate_int_roots(self.q)
        # refined in place; a root at a critical point shares its interval
        self.crit = [list(iv) for iv in crit]
        # q's sign just right of each left end: q has positive lead, crit
        # holds its real roots and each is simple, so the sign at -oo
        # flips once at each
        self.signs = [(-1) ** (len(self.q) - 1 + i) for i in range(len(self.crit))]
        if self.crit:
            (ln, ld), (hn, hd) = self.crit[0][0], self.crit[-1][1]
            gaps = ([(ln - ld, ld)]
                    + [q_mid(a[1], b[0]) for a, b in zip(self.crit, self.crit[1:])]
                    + [(hn + hd, hd)])
        else:
            gaps = [(0, 1)]
        self.rising = [sign_int_at(dK, x) > 0 for x in gaps]

    def _refine_crit(self, i):
        self.crit[i][:] = bisect_interval(self.q, *self.crit[i], self.signs[i])

    def _value_sign(self, i, P, shared):
        """Sign of K(c) - T at the i-th critical point c, where P is a
        positive multiple of K - T: refine c's interval until an interval
        enclosure of P over it excludes 0.  Only past D refinements, D the
        bit length of P's largest coefficient plus that of q's (the depth
        rule of isolate_int_roots), is it asked whether K(c) = T, which
        holds exactly when g = gcd(P, q) changes sign on the interval, as c
        is a simple root of q.  At a census sample K(c) = T never holds,
        so there the gcd only guards termination.  g is computed on first
        need and kept in the list `shared`, which the caller passes empty
        once per P."""
        lo, hi = self.crit[i]
        depth = None
        while lo != hi:
            s = _sign_on(P, lo, hi)
            if s:
                return s
            if depth is None:
                depth = max(map(abs, P)).bit_length() + max(map(abs, self.q)).bit_length()
            if depth == 0:
                if not shared:
                    shared.append(ugcd_int(P, self.q))
                g = shared[0]
                if len(g) > 1 and sign_int_at(g, lo) != sign_int_at(g, hi):
                    return 0
            depth -= 1
            self._refine_crit(i)
            lo, hi = self.crit[i]
        return sign_int_at(P, lo)

    def _piece_interval(self, j, P):
        """Isolating interval of the one root of P on piece j, where P is
        nonzero at both ends and changes sign, and P's sign at its left
        end (0 for a point)."""
        if len(P) == 2:  # primitive with positive lead: in lowest terms
            x = (-P[0], P[1])
            return [x, x], 0
        bound = 2 + max(abs(c) for c in P[:-1]) // abs(P[-1])  # Cauchy
        last = len(self.crit)
        while True:
            lo = self.crit[j - 1][1] if j else (-bound, 1)
            hi = self.crit[j][0] if j < last else (bound, 1)
            sl, sh = sign_int_at(P, lo), sign_int_at(P, hi)
            if sl == 0:
                return [lo, lo], 0
            if sh == 0:
                return [hi, hi], 0
            if sl != sh:
                return [lo, hi], sl
            # the root lies inside a neighbouring critical interval
            for i in (j - 1, j):
                if 0 <= i < last:
                    self._refine_crit(i)

    def crossings(self, entries):
        """The real roots of K - T, sorted, as _Root objects, where
        `entries` lists (P, atom indices) by ascending distinct T."""
        if not self.crit:  # K rises on the whole line: one root per T
            return [_Root(P, atoms, *self._piece_interval(0, P), P, True)
                    for P, atoms in entries]
        value_signs = []  # sign of K - T at -oo, at each critical point, at +oo
        for P, _ in entries:
            shared = []
            value_signs.append([1 if self.even else -1]
                               + [self._value_sign(i, P, shared) for i in range(len(self.crit))]
                               + [1])
        out = []
        for j, up in enumerate(self.rising):
            on_piece = [e for e, v in zip(entries, value_signs) if v[j] * v[j + 1] < 0]
            for P, atoms in (on_piece if up else reversed(on_piece)):
                out.append(_Root(P, atoms, *self._piece_interval(j, P), P, True))
            if j < len(self.crit):
                flips = up == self.rising[j + 1]
                for (P, atoms), v in zip(entries, value_signs):
                    if v[j + 1] == 0:
                        out.append(_Root(P, atoms, self.crit[j], self.signs[j], self.q, flips))
        return out


def _sign_on(p, lo, hi):
    """Sign p takes on all of [lo, hi], or 0 when the interval Horner
    enclosure of p over [lo, hi] contains 0.  Integer arithmetic on
    d^deg * p(X/d), X in [d*lo, d*hi]."""
    (ln, ld), (hn, hd) = lo, hi
    d = ld * hd
    A, B = ln * hd, hn * ld
    a = b = p[-1]
    pw = 1
    for c in reversed(p[:-1]):
        pw *= d
        prods = (a * A, a * B, b * A, b * B)
        a, b = min(prods) + c * pw, max(prods) + c * pw
    return 1 if a > 0 else -1 if b < 0 else 0


class _Root:
    """A root of the atoms with indices `atoms`, whose polynomials are all
    positive or negative multiples of P = core - T.  It is the one root of
    `refiner` in the interval `iv`: a point, or an open interval with
    `refiner` nonzero at both ends and of sign `sign` at its left end,
    which no cut changes.  `flips` when the root has odd multiplicity."""

    __slots__ = ("P", "atoms", "iv", "sign", "refiner", "flips")

    def __init__(self, P, atoms, iv, sign, refiner, flips):
        self.P, self.atoms = P, atoms
        self.iv, self.sign, self.refiner, self.flips = iv, sign, refiner, flips

    def cut(self, t):
        """Shrink the interval to the side of the rational t, which lies
        strictly inside it, that holds the root."""
        s = sign_int_at(self.refiner, t)
        if s == 0:
            self.iv[:] = [t, t]
        elif s == self.sign:
            self.iv[0] = t
        else:
            self.iv[1] = t


def _compare(x, y):
    """-1, 0 or 1 as the root x lies left of, at or right of the root y
    of another core.  `polycore.same_root` decides a tie, with the
    square-free gcd of the two atom polynomials for two open intervals.
    Otherwise a point root cuts the other interval at itself, and two
    open intervals are cut at the midpoint of their overlap until
    disjoint."""
    g = None
    while True:
        (a, b), (c, d) = x.iv, y.iv
        if q_cmp(b, c) < 0 or b == c and (a != b or c != d):
            return -1
        if q_cmp(d, a) < 0 or d == a and (c != d or a != b):
            return 1
        if g is None and a != b and c != d:
            g = usquarefree_int(ugcd_int(x.P, y.P))
        if same_root(x.refiner, x.iv, y.refiner, y.iv, g):
            return 0
        if a == b:
            y.cut(a)
        elif c == d:
            x.cut(c)
        else:
            t = q_mid(a if q_cmp(a, c) > 0 else c, b if q_cmp(b, d) < 0 else d)
            x.cut(t)
            y.cut(t)


def _fiber_roots(plan, cores):
    """Every real root of the nonconstant atoms of `plan` at a sample,
    given as the `cores` that `FiberPlan.split_at` returns, sorted, as a
    list of events: the _Root objects (one per core) at that point.
    Each core's sorted roots are merged into the events of the cores
    before it, one `_compare` per step, so only roots of distinct cores
    are compared and no pair twice; a root equal to an event joins it."""
    events = []
    for K, by_t in cores.items():
        L = lcm(*(den for _, den in by_t))
        ts = sorted(by_t, key=lambda t: t[0] * (L // t[1]))
        roots = plan.core(K).crossings([(_threshold_poly(K, t), by_t[t]) for t in ts])
        merged = []
        i = 0
        for r in roots:
            while i < len(events) and (c := _compare(events[i][0], r)) < 0:
                merged.append(events[i])
                i += 1
            if i < len(events) and c == 0:
                events[i].append(r)
                merged.append(events[i])
                i += 1
            else:
                merged.append([r])
        merged += events[i:]
        events = merged
    return events


def fiber_b0(formula, y, m: int) -> FiberReport:
    """Number of connected components of the fiber over y of `formula`,
    a formula or its FiberPlan.

    Only m = 1 is counted; any other m is refused.  Sweep the X-line
    through the sorted real roots of the substituted atom polynomials.
    Every atom's sign is known at -oo; at a root its atoms are 0, and
    after it they change sign when the root has odd multiplicity.
    Evaluate the formula on each open gap and at each root, in place on
    one sign list, and count maximal runs of true pieces as they come.
    """
    if m != 1:
        raise UnsupportedModeError(f"m = {m}: fibers are counted for m = 1 only")
    y = Q(y)
    plan = formula if isinstance(formula, FiberPlan) else FiberPlan(formula)
    signs, cores = plan.split_at(y)
    # alternating sequence: open piece, root, open piece, ..., open piece
    prev = plan.truth(signs)
    b0 = int(prev)
    for event in _fiber_roots(plan, cores):
        cut = [(k, signs[k], r.flips) for r in event for k in r.atoms]
        for k, _, _ in cut:
            signs[k] = 0
        at = plan.truth(signs)
        for k, s, flips in cut:
            signs[k] = -s if flips else s
        after = plan.truth(signs)
        b0 += (at and not prev) + (after and not at)
        prev = after
    return FiberReport(y, b0, "exact-univariate")


# The grid oracle refuses a fiber of more samples than this.  2^20
# samples of a one-atom m = 1 fiber already take seconds, and a census
# samples one fiber per cell.
GRID_SAMPLE_CAP = 1 << 20


def grid_b0(formula, y, resolution, box_radius=16) -> int:
    """Grid oracle for m = 1, a sampling cross-check of fiber_b0 and no
    decision procedure: sample the fiber over y of `formula` (or its
    FiberPlan) on a regular grid of pitch `resolution` over
    [-box_radius, box_radius] and count runs of true samples.  Refuses
    a formula over m != 1 and a grid of more than GRID_SAMPLE_CAP
    samples."""
    plan = formula if isinstance(formula, FiberPlan) else FiberPlan(formula)
    m = plan.polys[0].ring.m if plan.polys else 1
    if m != 1:
        raise UnsupportedModeError(f"m = {m}: fibers are counted for m = 1 only")
    step = Q(resolution)
    n_steps = int(2 * box_radius / step)
    if n_steps + 1 > GRID_SAMPLE_CAP:
        raise UnsupportedModeError(
            f"a grid of pitch {step} over radius {box_radius} has "
            f"{n_steps + 1} samples per fiber, above the cap of "
            f"{GRID_SAMPLE_CAP}")
    coeffs = plan.coeffs_at(Q(y))
    b0 = 0
    prev = False
    for k in range(n_steps + 1):
        x = (k * step.numerator - box_radius * step.denominator, step.denominator)
        t = plan.truth([sign_int_at(c, x) for c in coeffs])
        if t and not prev:
            b0 += 1
        prev = t
    return b0


# -- the end-to-end pipeline -------------------------------------------

def _single_run(base, sigma_set, m, delta):
    ring = base[0].ring
    ladder = build_ladder(len(base), delta)
    closed = construct_S_prime(sigma_set, base, ladder)
    plan = FiberPlan(closed.formula)
    members = plan.polys
    strata = enumerate_strata(members, base)
    systems = systems_for_strata(strata, members)
    G = assemble_G(systems, ring)
    cells = components_complement(G)
    fibers = [fiber_b0(plan, cell.sample, m) for cell in cells]
    return tuple(cells), tuple(fibers)


# delta-squared comparisons before a run that has not stabilized is returned
REFINE_ROUNDS = 3


def run_atlas(base, sigma_set, m: int, n: int = 1, delta=Q(1, 64)) -> AtlasReport:
    """Full pipeline with a stabilization rerun at delta squared.

    The run at delta is compared with the run at delta squared; where
    the cell count or the multiset of b0 differs, the next of at most
    REFINE_ROUNDS rounds compares the delta-squared run with the run at
    its square, and the last report is returned with stabilization
    False.  Only m = 1 fibers over one parameter (n = 1) are counted
    exactly, so any other m or n is refused before the first run.
    """
    base = tuple(base)
    if not base:
        raise ValueError("empty base family")
    if m != 1:
        why = ("there is no fiber variable" if m == 0 else
               "an exact planar fiber count (m >= 2) is not implemented")
        raise UnsupportedModeError(
            f"m = {m}: fibers are counted for m = 1 only; {why}")
    if n != 1:
        raise UnsupportedModeError(
            f"n = {n}: the census cuts one parameter line, so it needs n = 1")
    delta = Q(delta)
    cells, fibers = _single_run(base, sigma_set, m, delta)
    for _ in range(REFINE_ROUNDS):
        cells2, fibers2 = _single_run(base, sigma_set, m, delta ** 2)
        stable = (len(cells) == len(cells2)
                  and sorted(f.b0 for f in fibers) == sorted(f.b0 for f in fibers2))
        report = AtlasReport(cells, fibers, len({f.b0 for f in fibers}), delta, stable)
        if stable:
            break
        delta, cells, fibers = delta ** 2, cells2, fibers2
    return report
