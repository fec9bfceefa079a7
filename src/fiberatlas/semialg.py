"""Sign conditions, their realizations, and Boolean formulas over
polynomial sign atoms.

Formulas are negation-free by construction: negation is pushed to the
atoms by flipping relations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .polycore import ParseError, Parser, Polynomial, Ring, sign_at

RELATIONS = ("<", ">", "=", "<=", ">=")


@dataclass(frozen=True)
class SignCondition:
    """A sign vector over an ordered polynomial family.

    Entries are -1, 0, +1, or None; None leaves the member unconstrained.
    """

    family: tuple  # tuple of Polynomial
    signs: tuple

    def __post_init__(self):
        if len(self.family) != len(self.signs):
            raise ValueError("sign vector length differs from family size")
        for s in self.signs:
            if s not in (-1, 0, 1, None):
                raise ValueError(f"invalid sign {s!r}")


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
    """Flattened conjunction.  TRUE and FALSE are recognised by type and
    empty children, so a fresh And(()) or Or(()) counts as one and no
    dataclass __eq__ walks the children."""
    flat = []
    for c in children:
        if isinstance(c, And):
            flat.extend(c.children)  # TRUE adds nothing
        elif isinstance(c, Or) and not c.children:
            return FALSE
        else:
            flat.append(c)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(children) -> object:
    """Flattened disjunction, the dual of conj."""
    flat = []
    for c in children:
        if isinstance(c, Or):
            flat.extend(c.children)  # FALSE adds nothing
        elif isinstance(c, And) and not c.children:
            return TRUE
        else:
            flat.append(c)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


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


# The relation truth table: `p REL 0` holds when p's sign is in _HOLDS[REL].
_HOLDS = {"<": (-1,), ">": (1,), "=": (0,), "<=": (-1, 0), ">=": (0, 1)}


def eval_signs(formula, sign_of) -> bool:
    """Truth of the formula when each atom polynomial p has sign
    sign_of(p); And/Or short-circuit, so sign_of sees only the atoms
    the value depends on."""
    if isinstance(formula, Atom):
        return sign_of(formula.poly) in _HOLDS[formula.rel]
    if isinstance(formula, And):
        for c in formula.children:
            if not eval_signs(c, sign_of):
                return False
        return True
    if isinstance(formula, Or):
        for c in formula.children:
            if eval_signs(c, sign_of):
                return True
        return False
    raise TypeError(f"not a formula: {formula!r}")


def eval_formula(formula, point) -> bool:
    return eval_signs(formula, lambda p: sign_at(p, point))


# -- formula text syntax ----------------------------------------------

def formula_to_text(formula) -> str:
    if isinstance(formula, Atom):
        return f"{formula.poly.to_text()} {formula.rel} 0"
    if isinstance(formula, (And, Or)) and not formula.children:
        return "true" if isinstance(formula, And) else "false"
    if isinstance(formula, And):
        return " and ".join(f"({formula_to_text(c)})" for c in formula.children)
    if isinstance(formula, Or):
        return " or ".join(f"({formula_to_text(c)})" for c in formula.children)
    raise TypeError(f"not a formula: {formula!r}")


def parse_formula(text: str, ring: Ring):
    """Parse the shared formula syntax: atoms `p REL 0`, connectives
    `and` / `or`, parentheses, plus literals `true` / `false`."""
    parser = Parser(text, ring)
    formula = _parse_or(parser)
    parser.expect_end()
    return formula


def _parse_or(parser):
    parts = [_parse_and(parser)]
    while parser.accept("word", "or"):
        parts.append(_parse_and(parser))
    return disj(parts)


def _parse_and(parser):
    parts = [_parse_unit(parser)]
    while parser.accept("word", "and"):
        parts.append(_parse_unit(parser))
    return conj(parts)


def _parse_unit(parser):
    if parser.accept("word", "true"):
        return TRUE
    if parser.accept("word", "false"):
        return FALSE
    start = parser.i
    if not parser.accept("op", "("):
        return _parse_atom(parser)
    # a parenthesised formula or a parenthesised polynomial; when both
    # readings fail, report the one that got further
    try:
        formula = _parse_or(parser)
        parser.expect_op(")")
        return formula
    except ParseError as exc:
        inner = exc
    parser.i = start
    try:
        return _parse_atom(parser)
    except ParseError as exc:
        raise exc if exc.pos >= inner.pos else inner from None


def _parse_atom(parser):
    """`p REL 0`, the right-hand side a literal `0`."""
    poly = parser.parse_expr()
    kind, rel, _, _ = parser.peek()
    if kind != "rel":
        parser.fail("a relation")
    parser.i += 1
    _, _, pos, src = parser.peek()
    if src != "0":
        raise ParseError("atom right-hand side must be 0", pos)
    parser.i += 1
    return Atom(poly, rel)
