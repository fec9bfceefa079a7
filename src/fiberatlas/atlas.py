"""Cells of the parameter line, one exact sample per cell, and fiber
invariants per sample.

The pipeline: perturb the family, build critical systems per stratum,
project them to the parameter line, cut the line at the projected roots,
probe one fiber per cell.  A rerun at delta squared checks that the cell
count and the multiset of component counts have stabilized.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product

from .critical import enumerate_strata, systems_for_strata
from .eliminate import (
    DegenerateEliminationError,
    DiscriminantSet,
    assemble_G,
)
from .perturb import build_ladder, construct_S_prime
from .polycore import (
    coprime_basis,
    isolate_basis_roots,
    primitive_signed,
    q_text,
    sign_int_at,
    ugcd_int,
    usquarefree_int,
)
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


def fiber_b0(formula, y, m: int, mode: str = "exact",
             resolution=Q(1, 1024), box_radius=16) -> FiberReport:
    """Number of connected components of the fiber over y.

    Exact mode (m = 1 only): cut the X-line at the real roots of the
    substituted atom polynomials, evaluate the formula piecewise, count
    maximal runs of true pieces.  Grid mode: sample on a regular grid of
    the stated resolution and count components by adjacency.
    """
    y = Q(y)
    if mode == "grid":
        return _fiber_b0_grid(formula, y, m, Q(resolution), box_radius)
    if m != 1:
        raise ValueError("exact fiber counting requires m = 1")
    restricted = map_atoms(
        formula, lambda a: Atom(a.poly.substitute({m: y}), a.rel))
    int_of = _int_coeffs_of(atom_polys(restricted))
    polys = [p for p, coeffs in int_of.items() if coeffs is not None]
    sf_of = {p: usquarefree_int(int_of[p]) for p in polys}
    basis = coprime_basis([int_of[p] for p in polys])
    breakpoints = isolate_basis_roots(basis)
    # which polynomials vanish at which breakpoint: every root of an atom
    # polynomial is a breakpoint, so a gcd with the basis member plus a
    # sign change over the isolating interval decides vanishing exactly
    gcd_cache = {}
    vanishing = []
    for lo, hi, bp in breakpoints:
        at_root = set()
        for p in polys:
            h = gcd_cache.get((bp, p))
            if h is None:
                h = gcd_cache[bp, p] = ugcd_int(list(bp), sf_of[p])
            if len(h) <= 1:
                continue
            if lo == hi:
                if sign_int_at(h, lo) == 0:
                    at_root.add(p)
            else:
                a = sign_int_at(h, lo)
                b = sign_int_at(h, hi)
                if a != 0 and b != 0 and a != b:
                    at_root.add(p)
        vanishing.append(at_root)
    truths = []
    # alternating sequence: open piece, root, open piece, ..., open piece
    samples = []
    if not breakpoints:
        samples.append(Q(0))
    else:
        samples.append(breakpoints[0][0] - 1)
        for (a, b, _), (c, d, _) in zip(breakpoints, breakpoints[1:]):
            samples.append((b + c) / 2)
        samples.append(breakpoints[-1][1] + 1)
    for k, x in enumerate(samples):
        signs = _signs_at_x(int_of, x)
        truths.append(eval_signs(restricted, signs.__getitem__))
        if k < len(breakpoints):
            # at the root: a polynomial not vanishing there keeps the sign
            # it has on the adjacent open piece (its roots are breakpoints)
            truths.append(eval_signs(
                restricted,
                lambda p: 0 if p in vanishing[k] else signs[p]))
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
