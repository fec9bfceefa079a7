"""Sign conditions, their realizations, and Boolean formulas over
polynomial sign atoms.

Formulas are negation-free by construction: negation is pushed to the
atoms by flipping relations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .polycore import ParseError, Polynomial, Ring, parse_polynomial, sign_at

RELATIONS = ("<", ">", "=", "<=", ">=")

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
        inner = None
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            # could be a parenthesised formula or a parenthesised polynomial;
            # when both readings fail, report the one that got further
            saved = self.pos
            try:
                self.pos += 1
                f = self.parse_or()
                self.skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == ")":
                    self.pos += 1
                    return f
            except ParseError as exc:
                inner = exc
            self.pos = saved
        try:
            return self.parse_atom()
        except ParseError as exc:
            raise exc if inner is None or exc.pos >= inner.pos else inner from None

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
                start = self.pos
                self.pos += j + (len(rest[j:]) - len(tail)) + 1
                try:
                    poly = parse_polynomial(expr, self.ring)
                except ParseError as exc:  # a position in the whole formula
                    raise ParseError(exc.message, start + exc.pos) from None
                return Atom(poly, rel)
        self.error("expected an atom `p REL 0`")
