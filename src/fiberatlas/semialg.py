"""Sign conditions, their realizations, and Boolean formulas over
polynomial sign atoms.

Formulas are negation-free by construction: negation is pushed to the
atoms by flipping relations.  A formula is closed-form when every atom
uses one of =, <=, >=.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .polycore import (
    ParseError,
    Polynomial,
    Ring,
    isolate_real_roots,
    parse_polynomial,
    sign_at,
    square_free_part,
)

RELATIONS = ("<", ">", "=", "<=", ">=")

_FLIP = {"<": ">=", ">": "<=", "=": "=", "<=": ">", ">=": "<"}
_NEGATE = {"<": ">=", ">": "<=", "<=": ">", ">=": "<"}


@dataclass(frozen=True)
class SignCondition:
    """A sign vector over an ordered polynomial family.

    Entries are -1, 0, +1, or None; None leaves the member unconstrained
    (used for stratum enumeration, where only the zero set matters).
    """

    family: tuple  # tuple of Polynomial
    signs: tuple

    def __post_init__(self):
        if len(self.family) != len(self.signs):
            raise ValueError("sign vector length differs from family size")
        for s in self.signs:
            if s not in (-1, 0, 1, None):
                raise ValueError(f"invalid sign {s!r}")

    def zero_indices(self):
        return [i for i, s in enumerate(self.signs) if s == 0]


def level(sc: SignCondition) -> int:
    """Number of members assigned sign 0."""
    return sum(1 for s in sc.signs if s == 0)


# -- formulas ----------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """poly REL 0."""

    poly: Polynomial
    rel: str

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"invalid relation {self.rel!r}")


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


TRUE = And(())
FALSE = Or(())


def conj(children) -> object:
    flat = []
    for c in children:
        if c == TRUE:
            continue
        if c == FALSE:
            return FALSE
        if isinstance(c, And):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(children) -> object:
    flat = []
    for c in children:
        if c == FALSE:
            continue
        if c == TRUE:
            return TRUE
        if isinstance(c, Or):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def negate(formula) -> object:
    """Negation-free complement: De Morgan with relation flipping.

    Equality atoms negate to a disjunction of the two strict relations.
    """
    if isinstance(formula, Atom):
        if formula.rel == "=":
            return disj([Atom(formula.poly, "<"), Atom(formula.poly, ">")])
        return Atom(formula.poly, _NEGATE[formula.rel])
    if isinstance(formula, And):
        return disj([negate(c) for c in formula.children])
    if isinstance(formula, Or):
        return conj([negate(c) for c in formula.children])
    raise TypeError(f"not a formula: {formula!r}")


def atoms_of(formula):
    if isinstance(formula, Atom):
        yield formula
    elif isinstance(formula, (And, Or)):
        for c in formula.children:
            yield from atoms_of(c)
    else:
        raise TypeError(f"not a formula: {formula!r}")


def map_atoms(formula, fn):
    """Replace every atom by fn(atom), keeping each And/Or node as it is."""
    if isinstance(formula, Atom):
        return fn(formula)
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(map_atoms(c, fn) for c in formula.children))
    raise TypeError(f"not a formula: {formula!r}")


def is_closed_form(formula) -> bool:
    return all(a.rel in ("=", "<=", ">=") for a in atoms_of(formula))


def _sign_atom(p: Polynomial, sign: int) -> Atom:
    if sign == 0:
        return Atom(p, "=")
    return Atom(p, ">" if sign > 0 else "<")


def realization_formula(sc: SignCondition):
    """Conjunction of sign atoms: sign(P_i) = sigma(P_i)."""
    return conj(
        _sign_atom(p, s)
        for p, s in zip(sc.family, sc.signs)
        if s is not None
    )


def zset_formula(sc: SignCondition):
    """Conjunction of equations for the zero-signed members only."""
    return conj(
        Atom(p, "=") for p, s in zip(sc.family, sc.signs) if s == 0
    )


_HOLDS = {"<": (-1,), ">": (1,), "=": (0,), "<=": (-1, 0), ">=": (0, 1)}


def relation_holds(rel: str, sign: int) -> bool:
    """Truth of `p REL 0` when p has the given sign (-1, 0 or +1)."""
    return sign in _HOLDS[rel]


def eval_signs(formula, sign_of) -> bool:
    """Truth of the formula when each atom polynomial p has sign
    sign_of(p); And/Or short-circuit, so sign_of sees only the atoms
    the value depends on."""
    if isinstance(formula, Atom):
        return relation_holds(formula.rel, sign_of(formula.poly))
    if isinstance(formula, And):
        return all(eval_signs(c, sign_of) for c in formula.children)
    if isinstance(formula, Or):
        return any(eval_signs(c, sign_of) for c in formula.children)
    raise TypeError(f"not a formula: {formula!r}")


def eval_formula(formula, point) -> bool:
    return eval_signs(formula, lambda p: sign_at(p, point))


# -- formula text syntax ----------------------------------------------

def formula_to_text(formula) -> str:
    if isinstance(formula, Atom):
        return f"{formula.poly.to_text()} {formula.rel} 0"
    if formula == TRUE:
        return "true"
    if formula == FALSE:
        return "false"
    if isinstance(formula, And):
        return " and ".join(f"({formula_to_text(c)})" for c in formula.children)
    if isinstance(formula, Or):
        return " or ".join(f"({formula_to_text(c)})" for c in formula.children)
    raise TypeError(f"not a formula: {formula!r}")


def parse_formula(text: str, ring: Ring):
    """Parse the shared formula syntax: atoms `p REL 0`, connectives
    `and` / `or`, parentheses, plus literals `true` / `false`."""
    return _FormulaParser(text, ring).parse()


class _FormulaParser:
    _ATOM_SPLIT = None

    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek_word(self):
        self.skip_ws()
        for w in ("and", "or", "true", "false"):
            if self.text.startswith(w, self.pos):
                end = self.pos + len(w)
                if end == len(self.text) or not self.text[end].isalnum():
                    return w
        return None

    def parse(self):
        f = self.parse_or()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return f

    def parse_or(self):
        parts = [self.parse_and()]
        while self.peek_word() == "or":
            self.pos += 2
            parts.append(self.parse_and())
        return disj(parts)

    def parse_and(self):
        parts = [self.parse_unit()]
        while self.peek_word() == "and":
            self.pos += 3
            parts.append(self.parse_unit())
        return conj(parts)

    def parse_unit(self):
        self.skip_ws()
        w = self.peek_word()
        if w == "true":
            self.pos += 4
            return TRUE
        if w == "false":
            self.pos += 5
            return FALSE
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            # could be a parenthesised formula or a parenthesised polynomial
            saved = self.pos
            try:
                self.pos += 1
                f = self.parse_or()
                self.skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == ")":
                    self.pos += 1
                    return f
            except ParseError:
                pass
            self.pos = saved
        return self.parse_atom()

    def parse_atom(self):
        rest = self.text[self.pos:]
        # find the relation operator at the top level of the expression
        depth = 0
        for i, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch in "<>=":
                rel = ch
                j = i + 1
                if ch in "<>" and j < len(rest) and rest[j] == "=":
                    rel += "="
                    j += 1
                expr = rest[:i]
                tail = rest[j:].lstrip()
                if not tail.startswith("0"):
                    self.error("atom right-hand side must be 0")
                consumed = j + (len(rest[j:]) - len(tail)) + 1
                self.pos += consumed
                poly = parse_polynomial(expr, self.ring)
                return Atom(poly, rel)
        self.error("expected an atom `p REL 0`")


# -- witness-based sign-condition sampling -----------------------------

@dataclass(frozen=True)
class SampledCellSet:
    """Realizable sign conditions with exact rational witnesses."""

    cells: tuple  # tuple of (witness point tuple, SignCondition)
    complete: bool


def _signs_at(family, point):
    return tuple(sign_at(p, point) for p in family)


def sample_sign_conditions(family, box, budget: int) -> SampledCellSet:
    """Deterministic sweep of the box, with midpoint refinement near sign
    changes.  Every returned condition has an exact witness; completeness
    is only guaranteed (and flagged) on exact univariate slices.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    for lo, hi in box:
        if Q(lo) > Q(hi):
            raise ValueError("empty box")
    family = tuple(family)
    if not family:
        witness = tuple(Q(lo) for lo, _ in box)
        return SampledCellSet(((witness, SignCondition(family, ())),), True)
    if len(box) == 1:
        return _sample_univariate(family, box[0], budget)
    return _sample_grid(family, box, budget)


def _axis_points(lo, hi, budget):
    lo, hi = Q(lo), Q(hi)
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * k / budget for k in range(budget + 1)]


def _sample_grid(family, box, budget):
    axes = [_axis_points(lo, hi, budget) for lo, hi in box]
    points = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    seen = {}
    frontier = list(points)
    rounds = 2  # midpoint refinement passes near sign changes
    for _ in range(rounds + 1):
        new = []
        for p in frontier:
            sv = _signs_at(family, p)
            if sv not in seen:
                seen[sv] = p
        if _ == rounds:
            break
        # refine between axis-adjacent points whose sign vectors differ
        for p in frontier:
            for q in frontier:
                if p < q and sum(a != b for a, b in zip(p, q)) == 1:
                    if _signs_at(family, p) != _signs_at(family, q):
                        mid = tuple((a + b) / 2 for a, b in zip(p, q))
                        new.append(mid)
        if not new:
            break
        frontier = new
    cells = tuple(
        (pt, SignCondition(family, sv)) for sv, pt in sorted(seen.items())
    )
    return SampledCellSet(cells, False)


def _sample_univariate(family, interval, budget):
    """Exact enumeration on a line via root isolation of the family."""
    lo, hi = Q(interval[0]), Q(interval[1])
    breakpoints = set()
    complete = True
    for p in family:
        if p.is_zero() or p.is_constant():
            continue
        sf = square_free_part(p)
        for a, b in isolate_real_roots(sf):
            if a == b:
                if lo < a < hi:
                    breakpoints.add(a)
            else:
                # irrational root: no exact rational witness exists for
                # the zero level there
                if a < hi and b > lo:
                    complete = False
    pts = sorted(breakpoints)
    samples = [lo]
    prev = lo
    for r in pts:
        samples.append((prev + r) / 2)
        samples.append(r)
        prev = r
    samples.append((prev + hi) / 2)
    samples.append(hi)
    seen = {}
    for x in samples:
        sv = _signs_at(family, (x,))
        if sv not in seen:
            seen[sv] = (x,)
    cells = tuple(
        (pt, SignCondition(family, sv)) for sv, pt in sorted(seen.items())
    )
    return SampledCellSet(cells, complete)
