"""Infinitesimal ladder and the closed replacement construction.

Infinitesimals are instantiated as powers of one small rational delta,
ordered exactly as the strictly descending chain
1 > eps(2s,1) > ... > eps(2s,s) > eps(2s-1,1) > ... > eps(1,s) > 0.
"For all sufficiently small" becomes a refinement loop delta -> delta^2.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import combinations, product

from .polycore import Ring
from .semialg import (
    And,
    Atom,
    FALSE,
    TRUE,
    Or,
    SignCondition,
    atoms_of,
    conj,
    disj,
    level,
)


@dataclass(frozen=True)
class EpsilonLadder:
    """eps(i, j) = delta^((2s - i) * s + j) for 1 <= i <= 2s, 1 <= j <= s."""

    s: int
    delta: Q

    def __post_init__(self):
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.s < 1:
            raise ValueError("family size must be positive")

    def exponent(self, i: int, j: int) -> int:
        if not (1 <= i <= 2 * self.s and 1 <= j <= self.s):
            raise IndexError(f"ladder index ({i}, {j}) out of range")
        return (2 * self.s - i) * self.s + j

    def value(self, i: int, j: int) -> Q:
        return self.delta ** self.exponent(i, j)

    def chain(self):
        """All 2s^2 values in descending order."""
        return [
            self.value(i, j)
            for i in range(2 * self.s, 0, -1)
            for j in range(1, self.s + 1)
        ]


def build_ladder(s: int, delta) -> EpsilonLadder:
    return EpsilonLadder(s, Q(delta))


# -- the sigma_+ / sigma_- neighborhoods -------------------------------

class _Atoms:
    """The atoms of one construction over `base`, each made once per
    polynomial and relation, so equal atoms of a construction are one
    object.  atom(j, i, sign, rel) is (P_j + sign * eps(i, j)) REL 0, or
    P_j REL 0 for sign 0.

    Each member is split once as core + constant term (_split), so every
    atom polynomial is known by its member's core and its own constant
    term: equal polynomials are found without hashing them, and `split`
    keeps each atom's pair for _prune.

    With rewrite, the closed rewrite is applied as each atom is made: a
    weak inequality on a base member, P_j >= 0 (P_j <= 0), becomes
    P_j - eps(2, j) >= 0 (P_j + eps(2, j) <= 0)."""

    def __init__(self, base, ladder: EpsilonLadder, rewrite: bool):
        self.base, self.ladder = base, ladder
        cores = {}
        self.members = [_split(p, cores) for p in base]
        self.base_index = (
            {m: j for j, m in enumerate(self.members, start=1)} if rewrite else {})
        self.polys = {}  # (core, constant term) -> polynomial
        self.made = {}  # (core, constant term, rel) -> Atom
        self.split = {}  # id(atom) -> (core, constant term)

    def atom(self, j, i, sign, rel):
        core, k = self.members[j - 1]
        c = k + sign * self.ladder.value(i, j) if sign else k
        if rel in ("<=", ">="):
            r = self.base_index.get((core, c))
            if r is not None:
                j, k = r, self.members[r - 1][1]
                e = self.ladder.value(2, r)
                c = k - e if rel == ">=" else k + e
        a = self.made.get((core, c, rel))
        if a is None:
            p = self.polys.get((core, c))
            if p is None:
                p = self.base[j - 1]
                p = self.polys[core, c] = p if c == k else p + (c - k)
            a = self.made[core, c, rel] = Atom(p, rel)
            self.split[id(a)] = (core, c)
        return a


# The relations (up, down) a thickening puts on a member of sign +1 and on
# P_j + eps, and on a member of sign -1 and on P_j - eps.  The negated
# open thickening (a removal of the level induction) flips each open one.
_CLOSED = (">=", "<=")
_OPEN = (">", "<")
_REMOVAL = ("<=", ">=")


def _member_atoms(atoms: _Atoms, i, rels):
    """For each member j, the atoms a thickening with band index i and
    relations rels puts on it, by its sign (None: unconstrained)."""
    up, down = rels
    return [
        {1: (atoms.atom(j, 0, 0, up),),
         -1: (atoms.atom(j, 0, 0, down),),
         0: (atoms.atom(j, i, 1, up), atoms.atom(j, i, -1, down)) if i > 0 else (),
         None: ()}
        for j in range(1, len(atoms.base) + 1)
    ]


def _thickening(signs, by_member):
    """The atoms of the thickening of a sign vector, in member order, from
    by_member = _member_atoms(...)."""
    return [a for table, s in zip(by_member, signs) for a in table[s]]


def sigma_plus(sc: SignCondition, ladder: EpsilonLadder):
    """Closed thickening: two-sided eps(2l, i) bands around the zero-signed
    members, weak inequalities elsewhere."""
    atoms = _Atoms(sc.family, ladder, rewrite=False)
    return conj(_thickening(sc.signs, _member_atoms(atoms, 2 * level(sc), _CLOSED)))


def sigma_minus(sc: SignCondition, ladder: EpsilonLadder):
    """Open thickening: strict eps(2l-1, i) bands, strict inequalities
    elsewhere.  Level-0 conditions give pure strict sign conjunctions."""
    atoms = _Atoms(sc.family, ladder, rewrite=False)
    return conj(_thickening(sc.signs, _member_atoms(atoms, 2 * level(sc) - 1, _OPEN)))


# -- the inductive closed replacement ----------------------------------

@dataclass(frozen=True)
class ClosedSetDescription:
    formula: object
    ladder: EpsilonLadder


def all_sign_vectors(size: int, ell: int):
    """All sign vectors over `size` members with exactly `ell` zeros."""
    for zeros in combinations(range(size), ell):
        for signs in product((-1, 1), repeat=size - ell):
            rest = iter(signs)
            yield tuple(0 if i in zeros else next(rest) for i in range(size))


def construct_S_prime(sigma_set, base, ladder: EpsilonLadder) -> ClosedSetDescription:
    """Run the level induction and rewrite the result closed.

    The level-l step removes the open thickenings of all level-l sign
    conditions outside the input set and adds the closed thickenings of
    those inside it; every bare inequality P_j >= 0 (P_j <= 0) is made
    P_j >= eps(2,j) (P_j <= -eps(2,j)) as its atom is made.
    """
    atoms = _Atoms(tuple(base), ladder, rewrite=True)
    raw = _level_induction(sigma_set, atoms)
    formula = _prune(raw, {}, _ranked(atoms.split))
    return ClosedSetDescription(formula, ladder)


def construct_S_prime_raw(sigma_set, base, ladder: EpsilonLadder):
    """The induction result before the closed rewrite (for the rewrite
    equivalence checks)."""
    return _level_induction(sigma_set, _Atoms(tuple(base), ladder, rewrite=False))


def _level_induction(sigma_set, atoms: _Atoms):
    base = atoms.base
    s = len(base)
    if atoms.ladder.s != s:
        raise ValueError("ladder size must match family size")
    sigma_set = list(sigma_set)
    for sc in sigma_set:
        if tuple(sc.family) != base:
            raise ValueError("sign condition over a different family")
    wanted = {tuple(sc.signs) for sc in sigma_set}
    formula = FALSE
    for ell in range(s + 1):
        closed = removal = None
        removals = []
        additions = []
        for vec in all_sign_vectors(s, ell):
            if vec in wanted:
                if closed is None:
                    closed = _member_atoms(atoms, 2 * ell, _CLOSED)
                additions.append(conj(_thickening(vec, closed)))
            elif formula is not FALSE:  # FALSE minus anything stays FALSE
                if removal is None:
                    removal = _member_atoms(atoms, 2 * ell - 1, _REMOVAL)
                removals.append(disj(_thickening(vec, removal)))
        formula = disj([conj([formula] + removals)] + additions)
    return formula


# -- interval pruning of shift formulas --------------------------------
#
# Every atom of an S' formula constrains the value of one base polynomial
# (atom polynomial = base + rational shift).  Within a conjunction the
# per-base constraints intersect to an interval; an empty interval kills
# the branch and dominated bounds are dropped.  This never changes the
# described set: constraints on distinct base polynomials are left alone.
#
# An interval is (lo, hi) in bound codes over the ranks b of _ranked:
# value >= b is lo = 2b, value > b is lo = 2b + 1, value <= b is hi = 2b
# and value < b is hi = 2b - 1.  The tighter bound has the larger lo or the
# smaller hi, and an interval is empty exactly when lo > hi.  The interval
# of value REL b is 2b plus the offsets _CODES[rel].  No rank is negative
# or near _FAR, so lo = -1 and hi = _FAR leave a value unbounded, and so
# does an offset of -_FAR or _FAR on its side.

_FAR = sys.maxsize
_CODES = {">=": (0, _FAR), ">": (1, _FAR), "<=": (-_FAR, 0), "<": (-_FAR, -1),
          "=": (0, 0)}


class _Iv:
    """A core's value interval, with the atom that set each end."""

    __slots__ = ("lo", "hi", "lo_atom", "hi_atom")

    def __init__(self, lo=-1, hi=_FAR, lo_atom=None, hi_atom=None):
        self.lo, self.hi, self.lo_atom, self.hi_atom = lo, hi, lo_atom, hi_atom

    def copy(self):
        return _Iv(self.lo, self.hi, self.lo_atom, self.hi_atom)

    def tighten(self, rel, b, atom) -> bool:
        lo, hi = _CODES[rel]
        lo, hi, changed = 2 * b + lo, 2 * b + hi, False
        if lo > self.lo:
            self.lo, self.lo_atom, changed = lo, atom, True
        if hi < self.hi:
            self.hi, self.hi_atom, changed = hi, atom, True
        return changed

    def empty(self) -> bool:
        return self.lo > self.hi


_UNBOUNDED = _Iv()
_ZERO = Q(0)


def _split(p, cores):
    """p = core + k with k its constant term: (the index of core in the
    dict `cores`, one index for equal cores, and k)."""
    k = p.terms.get((0,) * p.ring.nvars, _ZERO)
    return cores.setdefault(p - k if k else p, len(cores)), k


def _ranked(split):
    """{key: (core, k)} -> {key: (core, b)}: an atom p REL 0 reads
    (value of core) REL -k, and b ranks the bound -k among all of them,
    so _prune compares small integers in the order of the rationals."""
    ks = sorted({k for _, k in split.values()}, reverse=True)
    rank = {k: b for b, k in enumerate(ks)}
    return {key: (core, rank[k]) for key, (core, k) in split.items()}


def _all_satisfy(iv: _Iv, rel, b) -> bool:
    """Every value of the non-empty iv satisfies value REL b."""
    lo, hi = _CODES[rel]
    return iv.lo >= 2 * b + lo and iv.hi <= 2 * b + hi


def _none_satisfy(iv: _Iv, rel, b) -> bool:
    """No value of the non-empty iv satisfies value REL b."""
    lo, hi = _CODES[rel]
    return 2 * b + lo > iv.hi or iv.lo > 2 * b + hi


def simplify_shift_formula(formula):
    """Prune a formula whose atoms are shifts of base polynomials, using
    exact per-base interval reasoning.  Semantics-preserving."""
    cores = {}
    split = {}  # keyed by id(atom): the formula keeps every atom alive
    for a in atoms_of(formula):
        if id(a) not in split:
            split[id(a)] = _split(a.poly, cores)
    return _prune(formula, {}, _ranked(split))


def _prune(formula, ctx, splits):
    """One pruning pass: ctx maps each core to the interval its value is
    known to lie in; splits = _ranked(...) maps id(atom) to (core, bound
    rank) for every atom of the formula."""
    if isinstance(formula, Atom):
        core, b = splits[id(formula)]
        iv = ctx.get(core)
        if iv is not None:
            if _all_satisfy(iv, formula.rel, b):
                return TRUE
            if _none_satisfy(iv, formula.rel, b):
                return FALSE
        return formula
    if isinstance(formula, Or):
        pruned = []
        same = len(formula.children) > 1
        for c in formula.children:
            sc = _prune(c, ctx, splits)
            if same and (sc is not c or isinstance(c, Or)
                         or (isinstance(c, And) and not c.children)):
                same = False
            pruned.append(sc)
        # unchanged and already flat: disj would rebuild it
        return formula if same else disj(pruned)
    if isinstance(formula, And):
        children = list(formula.children)
        for _ in range(4):
            local = {}
            merged = dict(ctx)
            others = []
            progressed = False
            for c in children:
                if isinstance(c, Atom):
                    core, b = splits[id(c)]
                    iv = merged[core] = merged.get(core, _UNBOUNDED).copy()
                    if iv.tighten(c.rel, b, c):
                        local[core] = iv
                    elif core not in local:
                        # dominated by an inherited bound: drop
                        progressed = True
                else:
                    others.append(c)
            for iv in merged.values():
                if iv.empty():
                    return FALSE
            new_others = []
            for c in others:
                sc = _prune(c, merged, splits)
                if isinstance(sc, Or) and not sc.children:
                    return FALSE
                if isinstance(sc, And) and not sc.children:
                    progressed = True
                    continue
                if sc is not c and sc != c:
                    progressed = True
                new_others.append(sc)
            emitted = []
            for core, iv in local.items():
                # an end that differs from the inherited one was set here
                inherited = ctx.get(core, _UNBOUNDED)
                if iv.lo != inherited.lo:
                    emitted.append(iv.lo_atom)
                if iv.hi != inherited.hi and iv.hi_atom is not iv.lo_atom:
                    emitted.append(iv.hi_atom)
            next_children = emitted + new_others
            if not progressed and all(
                isinstance(c, (Atom, Or)) for c in next_children
            ):
                return conj(next_children)
            # a nested And or a collapsed Or may expose new atoms
            flat = []
            for c in next_children:
                if isinstance(c, And):
                    flat.extend(c.children)
                else:
                    flat.append(c)
            children = flat
        return conj(children)
    raise TypeError(f"not a formula: {formula!r}")


# -- rank genericity spot checks ---------------------------------------

@dataclass
class GenericityReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def rational_matrix_rank(rows) -> int:
    """Exact rank of a matrix of Fractions by Gaussian elimination."""
    a = [[Q(v) for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        for r in range(row + 1, len(a)):
            if a[r][col] != 0:
                factor = a[r][col] / pv
                for c in range(col, ncols):
                    a[r][c] -= factor * a[row][c]
        row += 1
        rank += 1
        if row == len(a):
            break
    return rank


class WitnessError(ValueError):
    pass


def check_rank_genericity(sc: SignCondition, witnesses, ring: Ring) -> GenericityReport:
    """Check the maximal-rank property at witness points.

    Each witness must lie on the stratum (all zero-signed members vanish
    there exactly).  The Jacobian of the zero-signed members, taken over
    all m+n variables, must have rank equal to the level.
    """
    active = [p for p, s in zip(sc.family, sc.signs) if s == 0]
    ell = len(active)
    report = GenericityReport()
    grads = [[p.derivative(i) for i in range(ring.nvars)] for p in active]
    for w in witnesses:
        for p in active:
            if p.eval_at(w) != 0:
                raise WitnessError(f"witness {w} is not on the stratum")
        report.checked += 1
        if ell == 0:
            continue  # vacuous
        jac = [[g.eval_at(w) for g in row] for row in grads]
        rank = rational_matrix_rank(jac)
        if rank != ell:
            report.failures.append((tuple(w), rank, ell))
    return report
