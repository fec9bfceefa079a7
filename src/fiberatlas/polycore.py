"""Exact arithmetic foundation.

Sparse multivariate polynomials over the rationals, cofactor determinants,
Sylvester resultants by Kronecker substitution or by integer evaluation
and exact interpolation, and univariate real root isolation by
Descartes'-rule bisection.  No floating point anywhere: every sign
decision is made over Q.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd as _igcd, lcm as _lcm
from operator import add

Q = Fraction


class RingMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Ring:
    """Variable-count descriptor: m fiber variables X1..Xm, n parameters Y1..Yn."""

    m: int
    n: int

    @property
    def nvars(self) -> int:
        return self.m + self.n

    def var_name(self, i: int) -> str:
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self}")
        if i < self.m:
            return f"X{i + 1}"
        return f"Y{i - self.m + 1}"

    def var_index(self, name: str) -> int:
        mo = re.fullmatch(r"([XY])(\d+)", name)
        if mo is None:
            raise ValueError(f"bad variable name {name!r}")
        k = int(mo.group(2))
        if k < 1:
            raise ValueError(f"bad variable name {name!r}")
        if mo.group(1) == "X":
            if k > self.m:
                raise ValueError(f"variable {name} not in ring with m={self.m}")
            return k - 1
        if k > self.n:
            raise ValueError(f"variable {name} not in ring with n={self.n}")
        return self.m + k - 1


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (length ring.nvars) to nonzero Fractions.
    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if not isinstance(c, Q):
                    c = Q(c)
                if c:
                    clean[tuple(mono)] = c
        _set_ring(self, ring)
        _set_terms(self, clean)
        _set_hash(self, None)

    @classmethod
    def _of(cls, ring: Ring, terms) -> "Polynomial":
        """Trusted constructor: `terms` already maps exponent tuples to
        nonzero Fractions and becomes the new polynomial's own dict."""
        p = object.__new__(cls)
        _set_ring(p, ring)
        _set_terms(p, terms)
        _set_hash(p, None)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(ring: Ring, c) -> "Polynomial":
        return Polynomial(ring, {(0,) * ring.nvars: c})

    @staticmethod
    def variable(ring: Ring, i: int) -> "Polynomial":
        if not 0 <= i < ring.nvars:
            raise IndexError(f"variable index {i} out of range")
        mono = [0] * ring.nvars
        mono[i] = 1
        return Polynomial(ring, {tuple(mono): Q(1)})

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self.terms)

    def constant_value(self) -> Q:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.ring.nvars, Q(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(mono) for mono in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return 0
        return max(mono[var] for mono in self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other):
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def _shift(self, k):
        """self + k for a rational k: one dict copy with its constant
        term adjusted."""
        terms = dict(self.terms)
        zero = (0,) * self.ring.nvars
        c = terms.get(zero)
        c = k if c is None else c + k
        if c:
            terms[zero] = c
        else:
            terms.pop(zero, None)
        return Polynomial._of(self.ring, terms)

    def _merge(self, other, sign):
        """self + sign * other for a polynomial other; cancelled terms
        are dropped."""
        self._check_ring(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            if s is None:
                terms[mono] = c if sign > 0 else -c
            else:
                s = s + c if sign > 0 else s - c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return Polynomial._of(self.ring, terms)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            return self._merge(other, 1)
        if isinstance(other, (int, Q)):
            return self._shift(Q(other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self._merge(other, -1)
        if isinstance(other, (int, Q)):
            return self._shift(-Q(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            k = Q(other)
            terms = {m: c * k for m, c in self.terms.items()} if k else {}
            return Polynomial._of(self.ring, terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                c = terms.get(mono)
                terms[mono] = c1 * c2 if c is None else c + c1 * c2
        return Polynomial._of(self.ring, {m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if len(self.terms) == 1:  # c*x^e: one power of c, exponents times k
            (mono, c), = self.terms.items()
            return Polynomial._of(self.ring, {tuple(e * k for e in mono): c ** k})
        result = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            _set_hash(self, h)
        return h

    # -- calculus and evaluation --------------------------------------

    def derivative(self, var: int) -> "Polynomial":
        if not 0 <= var < self.ring.nvars:
            raise IndexError(f"variable index {var} out of range")
        terms = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if e == 0:
                continue
            # lowering one exponent maps distinct terms to distinct terms
            terms[mono[:var] + (e - 1,) + mono[var + 1:]] = c * e
        return Polynomial._of(self.ring, terms)

    def substitute(self, assignment) -> "Polynomial":
        """Substitute rationals for a subset of the variables.

        The result lives in the same ring; assigned variables simply no
        longer occur.  A full assignment yields a constant polynomial.
        """
        for i in assignment:
            if not 0 <= i < self.ring.nvars:
                raise IndexError(f"variable index {i} out of range")
        values = [(i, Q(val)) for i, val in assignment.items()]
        terms = {}
        for mono, c in self.terms.items():
            coeff = c
            new = list(mono)
            for i, val in values:
                e = mono[i]
                if e:
                    coeff *= val ** e
                    new[i] = 0
            if not coeff:
                continue
            new = tuple(new)
            s = terms.get(new)
            terms[new] = coeff if s is None else s + coeff
        return Polynomial._of(self.ring, {m: c for m, c in terms.items() if c})

    def substitute_poly(self, assignment) -> "Polynomial":
        """Substitute polynomials (same ring) for variables."""
        result = Polynomial(self.ring)
        for mono, c in self.terms.items():
            term = Polynomial.constant(self.ring, c)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                if i in assignment:
                    term = term * (assignment[i] ** e)
                else:
                    term = term * (Polynomial.variable(self.ring, i) ** e)
            result = result + term
        return result

    def eval_at(self, point) -> Q:
        """Exact value at a full rational assignment (sequence of length nvars).
        The terms are summed as integers over one common denominator: the
        lcm of the coefficients' denominators times d_i^D_i per variable,
        for x_i = n_i / d_i and D_i the degree in x_i.  Each variable's
        n_i^e d_i^(D_i - e) is formed once per exponent e it carries."""
        if len(point) != self.ring.nvars:
            raise ValueError("point dimension does not match ring")
        if not self.terms:
            return Q(0)
        point = [Q(v) for v in point]
        den = _lcm(*(c.denominator for c in self.terms.values()))
        scale = 1
        tables = []
        for i, col in enumerate(zip(*self.terms)):
            top = max(col)
            if top:
                n, d = point[i].numerator, point[i].denominator
                tables.append((i, {e: n ** e * d ** (top - e) for e in set(col)}))
                scale *= d ** top
        total = 0
        for mono, c in self.terms.items():
            v = c.numerator * (den // c.denominator)
            for i, table in tables:
                v *= table[mono[i]]
            total += v
        return Q(total, den * scale)

    def coeffs_in(self, var: int):
        """Coefficients of self as a univariate polynomial in `var`,
        ascending; entries are polynomials not involving `var`."""
        d = self.degree_in(var)
        buckets = [dict() for _ in range(d + 1)]
        for mono, c in self.terms.items():
            e = mono[var]
            # distinct terms keep distinct exponents outside `var`
            buckets[e][mono[:var] + (0,) + mono[var + 1:]] = c
        return [Polynomial._of(self.ring, b) for b in buckets]

    # -- display ------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(self.ring.var_name(i))
                elif e > 1:
                    factors.append(f"{self.ring.var_name(i)}^{e}")
            ac = abs(c)
            if not factors:
                body = str(ac)
            elif ac == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(ac)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# slot setters that bypass Polynomial.__setattr__, which refuses writes
_set_ring = Polynomial.ring.__set__
_set_terms = Polynomial.terms.__set__
_set_hash = Polynomial._hash.__set__


def sign_at(f: Polynomial, point) -> int:
    """Exact sign of f at a full rational assignment: -1, 0, or +1."""
    v = f.eval_at(point)
    return (v > 0) - (v < 0)


def q_text(q):
    """A rational as "p/q" text (also for integers); None stays None."""
    if q is None:
        return None
    q = Q(q)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Parsing: one tokenizer and one recursive-descent parser for every text.
# The expression grammar (variables X1..Xm / Y1..Yn, rational literals p/q,
# operators + - * ^, parentheses) is here; the formula grammar (relations,
# `and`, `or`, `true`, `false`) is in semialg, on the same tokens.
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.message, self.pos = message, pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?: */ *\d+)?)|(?P<var>[XY]\d+)|(?P<op>[-+*^()])"
    r"|(?P<rel>[<>]=?|=)|(?P<word>(?:and|or|true|false)(?![A-Za-z0-9]))"
    r"|(?P<end>\Z)|(?P<error>.))"
)


def tokenize(text: str):
    """Tokens (kind, value, position, source text), each at its own first
    character.  The list ends with an `end` token, or, at the first bad
    character or zero denominator, with an `error` token whose value is
    the message; the parser raises it only if it gets that far."""
    tokens = []
    pos = 0
    while True:
        mo = _TOKEN_RE.match(text, pos)
        kind = mo.lastgroup
        src = value = mo.group(kind)
        start = mo.start(kind)
        if kind == "num":
            lit = src.replace(" ", "")
            try:
                value = Q(lit)
            except ZeroDivisionError:
                kind, value = "error", f"zero denominator in {lit}"
        elif kind == "error":
            value = f"unexpected character {src!r}"
        tokens.append((kind, value, start, src))
        if kind in ("end", "error"):
            return tokens
        pos = mo.end()


class Parser:
    """Recursive descent over the tokens of one text; `i` indexes the next
    token, and a production consumes a token only once it accepts it.
    Reaching the tokenizer's error token raises its error, so the error
    reported is at the first failing token in text order.

    Each production builds its value as it accepts it, by `num`, `var`,
    `add`, `mul`, `pow` and `neg`.  These build Polynomials over the
    parser's ring, where a variable outside it fails at its own token; a
    subclass overrides them to build other values."""

    def __init__(self, text: str, ring: Ring = None):
        self.tokens = tokenize(text)
        self.ring = ring
        self.i = 0

    def num(self, value):
        return Polynomial.constant(self.ring, value)

    def var(self, name, pos):
        try:
            index = self.ring.var_index(name)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        return Polynomial.variable(self.ring, index)

    def add(self, left, right, subtract: bool):
        return left - right if subtract else left + right

    def mul(self, left, right):
        return left * right

    def pow(self, base, k: int):
        return base ** k

    def neg(self, value):
        return -value

    def peek(self):
        token = self.tokens[self.i]
        if token[0] == "error":
            raise ParseError(token[1], token[2])
        return token

    def accept(self, kind, value) -> bool:
        """Consume the next token if it is (kind, value)."""
        k, v, _, _ = self.peek()
        if k == kind and v == value:
            self.i += 1
            return True
        return False

    def fail(self, expected):
        """Raise `expected ..., found ...` at the next token."""
        _, _, pos, src = self.peek()
        found = repr(src) if src else "end of input"
        raise ParseError(f"expected {expected}, found {found}", pos)

    def expect_op(self, op):
        if not self.accept("op", op):
            self.fail(repr(op))

    def expect_end(self):
        kind, _, pos, src = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {src!r}", pos)

    def parse_expr(self):
        value = self.parse_term()
        while True:
            if self.accept("op", "+"):
                value = self.add(value, self.parse_term(), False)
            elif self.accept("op", "-"):
                value = self.add(value, self.parse_term(), True)
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while self.accept("op", "*"):
            value = self.mul(value, self.parse_factor())
        return value

    def parse_factor(self):
        if self.accept("op", "-"):
            return self.neg(self.parse_factor())
        value = self.parse_atom()
        if self.accept("op", "^"):
            kind, exp, pos, _ = self.peek()
            if kind != "num" or exp.denominator != 1:
                raise ParseError("exponent must be a non-negative integer", pos)
            self.i += 1
            return self.pow(value, int(exp))
        return value

    def parse_atom(self):
        kind, value, pos, src = self.peek()
        if kind == "num":
            self.i += 1
            return self.num(value)
        if kind == "var":
            value = self.var(value, pos)
            self.i += 1
            return value
        if self.accept("op", "("):
            value = self.parse_expr()
            self.expect_op(")")
            return value
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {src!r}", pos)


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse expression text into a polynomial over ring; every variable
    must be one of its own."""
    parser = Parser(text, ring)
    poly = parser.parse_expr()
    parser.expect_end()
    return poly


# ---------------------------------------------------------------------------
# Cofactor determinants; resultants by the subresultant PRS, on one
# Kronecker-packed pair or at integers with exact interpolation.
# ---------------------------------------------------------------------------

# Up to this many bits of packed resultant, (D + 1) * k, _resultant_int
# packs its last variable into one integer instead of evaluating at
# 0..D: a census-elim discriminant (4.3k to 5.1k bits) takes about half
# the time, and above about 8k bits CPython's quadratic big-integer division
# makes packing the slower.  Of cutoffs 2^12 to 2^14, 2^13 took the least
# time (6144 within 1%) over 35 pairs p, dp/dX1 of degrees 2 to 8 in X1
# and 1 to 6 in Y1, at 1k to 30k packed bits (CPython 3.11, x86-64).
_PACK_CUTOFF = 1 << 13


def determinant(rows) -> Polynomial:
    """Exact determinant of a square list of rows of polynomials, by
    cofactor expansion along the first row (the Jacobian minors it serves
    are at most 3x3)."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    if n == 1:
        return rows[0][0]
    total = Polynomial(rows[0][0].ring)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        cof = rows[0][j] * determinant(minor)
        total = total + cof if j % 2 == 0 else total - cof
    return total


def resultant(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """Sylvester resultant of f and g with respect to `var`.

    When one argument is constant in `var`, returns that argument raised to
    the other's degree (res(f, g) = g^deg_var(f) for deg_var(g) = 0).
    Otherwise it is res(a*f', b*g') = a^dg * b^df * res(f', g'), with f'
    and g' the primitive integer term tables of f and g (integer_table)
    and res(f', g') from the integer kernel (integer_resultant).
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    df = f.degree_in(var)
    dg = g.degree_in(var)
    if df == 0 and dg == 0:
        raise ValueError("both arguments constant in the eliminated variable")
    if dg == 0:
        return g ** df
    if df == 0:
        return f ** dg
    a, fi = _integer_terms(f)
    b, gi = _integer_terms(g)
    scale = a ** dg * b ** df
    res = integer_resultant(fi, gi, var)
    return Polynomial._of(f.ring, {mono: scale * c for mono, c in res.items()})


def _integer_terms(f: Polynomial):
    """(a, terms) with f = a * (the integer term table `terms`)."""
    terms = integer_table(f)
    mono, c = next(iter(f.terms.items()))
    return c / terms[mono], terms


def integer_table(f: Polynomial):
    """The primitive integer term table of f, {monomial: int}: f scaled
    by a positive rational, so its signs are kept; {} for zero."""
    lcm = 1
    for c in f.terms.values():
        d = c.denominator
        if d != 1:
            lcm = lcm * d // _igcd(lcm, d)
    return primitive_table({mono: c.numerator * (lcm // c.denominator)
                            for mono, c in f.terms.items()})


def primitive_table(t):
    """The integer term table t divided by the gcd of its coefficients."""
    g = _igcd(*t.values())
    return t if g == 1 else {mono: c // g for mono, c in t.items()}


def integer_resultant(f, g, var):
    """Resultant in `var` of integer term tables f and g of positive
    degree in `var`, as an integer term table: the packed/PRS kernel
    _resultant_int taken with their true degrees and the other variables
    they hold."""
    df = max(mono[var] for mono in f)
    dg = max(mono[var] for mono in g)
    ys = sorted({i for mono in (*f, *g) for i, e in enumerate(mono) if e and i != var})
    return _resultant_int(f, g, var, df, dg, ys)


def _resultant_int(f, g, var, df, dg, ys):
    """Resultant in `var` of integer term dicts f and g, taken with the
    formal degrees df and dg, as an integer term dict; ys lists the other
    variables that f and g may hold, in increasing order.

    With no other variable left it is the resultant of the coefficient
    lists padded to df and dg (_resultant_leaf).  With one, y, left and
    a packed size (D + 1) * k of at most _PACK_CUTOFF bits, it is one
    leaf at y = 2^k (_resultant_packed), where D bounds the resultant's
    degree in y (_degree_bound) and 2^(k-1) its coefficients.  Otherwise
    the last variable y is set to each integer 0..D and the D + 1
    resultants are interpolated exactly (Collins 1971).  The formal
    degrees are kept at every node, so a node where a leading coefficient
    vanishes still gives the specialised resultant."""
    if not f or not g:
        return {}
    if not ys:
        fc = [0] * (df + 1)
        for mono, c in f.items():
            fc[mono[var]] = c
        gc = [0] * (dg + 1)
        for mono, c in g.items():
            gc[mono[var]] = c
        res = _resultant_leaf(fc, gc)
        return {(0,) * len(next(iter(f))): res} if res else {}
    y, rest = ys[-1], ys[:-1]
    bound = _degree_bound(f, g, var, y, df, dg)
    if not rest:
        # |res|_1 <= |f|_1^dg * |g|_1^df, the product of the Sylvester row
        # sums, bounds every coefficient in y; one more bit for the sign
        k = (sum(map(abs, f.values())) ** dg
             * sum(map(abs, g.values())) ** df).bit_length() + 1
        if (bound + 1) * k <= _PACK_CUTOFF:
            return _resultant_packed(f, g, var, y, df, dg, k, bound)
    fy, gy = _in_y(f, y), _in_y(g, y)
    values = [_resultant_int(_specialize(fy, t), _specialize(gy, t), var, df, dg, rest)
              for t in range(bound + 1)]
    return _interpolate(values, y)


def _resultant_packed(f, g, var, y, df, dg, k, bound):
    """_resultant_int with y the only variable besides `var`, by one
    Kronecker substitution y = 2^k (von zur Gathen-Gerhard, Modern
    Computer Algebra, 8.4): one leaf on the packed integers, whose
    result is read as bound + 1 signed base-2^k digits, each below
    2^(k-1) in absolute value."""
    packed = []
    for p, d in ((f, df), (g, dg)):
        cs = [0] * (d + 1)
        for mono, c in p.items():
            cs[mono[var]] += c << k * mono[y]
        packed.append(cs)
    v = _resultant_leaf(*packed)
    base = (0,) * len(next(iter(f)))
    out = {}
    mask, half = (1 << k) - 1, 1 << (k - 1)
    for e in range(bound + 1):
        c = v & mask
        if c >= half:  # a negative digit borrows one from the next
            c -= 1 << k
        if c:
            out[base[:y] + (e,) + base[y + 1:]] = c
        v = (v - c) >> k
    return out


def _degree_bound(f, g, var, y, df, dg):
    """A bound on the degree in y of the Sylvester determinant of f and g
    in `var`: the smaller of its row sum and its column sum of y-degrees.
    The column of x^c holds f_k for c - dg < k <= c and g_k for
    c - df < k <= c."""
    ef = [-1] * (df + 1)
    for mono in f:
        ef[mono[var]] = max(ef[mono[var]], mono[y])
    eg = [-1] * (dg + 1)
    for mono in g:
        eg[mono[var]] = max(eg[mono[var]], mono[y])
    rows = dg * max(ef) + df * max(eg)
    cols = sum(max(0, *ef[max(c - dg + 1, 0):c + 1], *eg[max(c - df + 1, 0):c + 1])
               for c in range(df + dg))
    return min(rows, cols)


def _resultant_leaf(f, g):
    """Resultant of the integer coefficient lists f and g (constant term
    first) taken with the formal degrees len(f) - 1 and len(g) - 1, that
    is, the determinant of their padded Sylvester matrix.

    A formal degree of 1 takes the PRS's one step in closed form.
    Otherwise a vanished formal leading coefficient is taken out by
    expanding the determinant along its first column, and the
    subresultant PRS runs on the true degrees (Collins 1967; Brown-Traub
    1971; Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 3.3.7)."""
    df, dg = len(f) - 1, len(g) - 1
    if not df or not dg:
        return f[0] ** dg if not df else g[0] ** df
    if df == 1 or dg == 1:
        # res(f, g) = sum f_i g0^i (-g1)^(df - i) when dg = 1, an identity
        # in the coefficients, so it holds when a leading one vanishes
        a, x, w = (f, g[0], -g[1]) if dg == 1 else (g, -f[0], f[1])
        acc, pw = a[-1], 1
        for c in reversed(a[:-1]):
            pw *= w
            acc = acc * x + c * pw
        return acc
    if not f[-1]:
        if not g[-1]:
            return 0
        return (-g[-1] if dg & 1 else g[-1]) * _resultant_leaf(f[:-1], g)
    if not g[-1]:
        return f[-1] * _resultant_leaf(f, g[:-1])
    sign = 1
    if df < dg:
        f, g = g, f
        if df & dg & 1:
            sign = -1
    g_lead = h = 1
    while len(g) > 1:
        delta = len(f) - len(g)
        if (len(f) - 1) & (len(g) - 1) & 1:
            sign = -sign
        q, r = _pseudo_divmod(f, g)
        if not r:
            return 0
        # _pseudo_divmod scales by lc(g) once per step it takes, one per
        # nonzero quotient coefficient; the PRS needs lc(g)^(delta + 1)
        fill = g[-1] ** (delta + 1 - len(q) + q.count(0))
        div = g_lead * h ** delta
        f, g = g, [c * fill // div for c in r]
        g_lead = f[-1]
        h = g_lead ** delta * h // h ** delta
    df = len(f) - 1
    return sign * (g[0] ** df * h // h ** df)


def _in_y(f, y):
    """The integer term dict f grouped by its monomials without y:
    {monomial with y^0: coefficients in y, constant first}."""
    out = {}
    for mono, c in f.items():
        cs = out.setdefault(mono[:y] + (0,) + mono[y + 1:], [])
        cs += [0] * (mono[y] + 1 - len(cs))
        cs[mono[y]] = c
    return out


def _specialize(groups, t):
    """The term dict of _in_y's groups with y set to the integer t, each
    group by Horner's rule."""
    out = {}
    for mono, cs in groups.items():
        v = 0
        for c in reversed(cs):
            v = v * t + c
        if v:
            out[mono] = v
    return out


def _interpolate(values, y):
    """The integer term dict R with R(y = t) = values[t] for t = 0..D.

    Newton's forward-difference form, scaled by D! so that it stays
    integral: D! R(t) = sum_j diff_j(0) * (D!/j!) * t(t-1)...(t-j+1),
    followed by one exact division by D!."""
    deg = len(values) - 1
    basis = [[1]]  # t(t-1)...(t-j+1), then scaled by D!/j!
    for j in range(deg):
        prev = basis[-1]
        basis.append([0] + prev)
        for i, c in enumerate(prev):
            basis[-1][i] -= j * c
    fact = 1
    for j in range(deg, -1, -1):
        basis[j] = [c * fact for c in basis[j]]
        fact *= j or 1
    out = {}
    for key in {mono for v in values for mono in v}:
        row = [v.get(key, 0) for v in values]
        acc = [0] * (deg + 1)
        for j in range(deg + 1):
            if row[0]:
                for i, c in enumerate(basis[j]):
                    acc[i] += row[0] * c
            row = [b - a for a, b in zip(row, row[1:])]
        for e, c in enumerate(acc):
            if c:
                out[key[:y] + (e,) + key[y + 1:]] = c // fact
    return out


# ---------------------------------------------------------------------------
# Univariate machinery: dense integer representation, gcd, square-free part,
# root isolation.
# ---------------------------------------------------------------------------

def univariate_to_poly(ring: Ring, var: int, coeffs) -> Polynomial:
    terms = {}
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = [0] * ring.nvars
        mono[var] = e
        terms[tuple(mono)] = c if isinstance(c, Q) else Q(c)
    return Polynomial._of(ring, terms)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive_int(coeffs):
    """The integer coefficient list without trailing zeros, divided by
    its content and given a positive leading coefficient."""
    ints = _trim(list(coeffs))
    if not ints:
        return []
    g = _igcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _uderiv(p):
    return [i * c for i, c in enumerate(p)][1:]


def sign_int_at(p, x):
    """Sign of the integer coefficient list p at the rational x = (a, b),
    b > 0, computed entirely in integer arithmetic (sign of b^deg * p(a/b))."""
    if not p:
        return 0
    a, b = x
    acc = p[-1]
    pw = 1
    for c in reversed(p[:-1]):
        pw *= b
        acc = acc * a + c * pw
    return 0 if acc == 0 else (1 if acc > 0 else -1)


def _pseudo_divmod(a, b):
    """Pseudo-quotient and -remainder of integer coefficient lists:
    lc(b)^k * a = q*b + r with everything in integer arithmetic, where k,
    the number of reduction steps, is the number of nonzero entries of q
    (at most deg a - deg b + 1; fewer when a leading term cancels)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while a and a[-1] == 0:
        a.pop()
    q = [0] * max(len(a) - db, 0)
    steps = []
    while len(a) - 1 >= db:
        shift = len(a) - 1 - db
        la = a[-1]
        # the top coefficient cancels: lb * la - la * lb
        a = [c * lb for c in a[:shift]] + [x * lb - la * y for x, y in zip(a[shift:-1], b)]
        while a and a[-1] == 0:
            a.pop()
        steps.append((shift, la))
    # every later step scales the quotient by lb once; applying the
    # scaling at the end keeps remainder-only callers (ugcd_int) cheap
    scale = 1
    for shift, la in reversed(steps):
        q[shift] = la * scale
        scale *= lb
    return q, a


_PRIME = (1 << 61) - 1


def _coprime_mod_prime(a, b):
    """Whether Euclid's algorithm modulo _PRIME ends in a nonzero
    constant, for integer coefficient lists whose leading coefficients
    _PRIME does not divide.  Then a and b are coprime over Q: a common
    factor of positive degree would have a leading coefficient dividing
    both, so it would keep its degree modulo _PRIME (Brown 1971)."""
    a = [c % _PRIME for c in a]
    b = [c % _PRIME for c in b]
    while len(b) > 1:
        inv = pow(b[-1], -1, _PRIME)
        b = [c * inv % _PRIME for c in b]
        db = len(b) - 1
        while len(a) > db:
            la = a.pop()
            if la:
                shift = len(a) - db
                a[shift:] = [(x - la * y) % _PRIME for x, y in zip(a[shift:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


def ugcd_int(a, b):
    """Gcd of two integer coefficient lists, primitive with positive lead:
    ugcd_primitive of their primitive parts."""
    return ugcd_primitive(_primitive_int(a), _primitive_int(b))


def ugcd_primitive(a, b):
    """Gcd of two integer lists that are primitive with positive lead
    already: [1] at once when Euclid modulo a prime shows them coprime,
    otherwise the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    if b and a[-1] % _PRIME and b[-1] % _PRIME and _coprime_mod_prime(a, b):
        return [1]
    while b:
        _, r = _pseudo_divmod(a, b)
        a, b = b, _primitive_int(r)
    return a


def _sign_variations(coeffs):
    v = 0
    prev = 0
    for c in coeffs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _shift_by(p, c):
    """p(x+c) for integer c, by synthetic division in place: pass i
    divides by x - c from the top down to i.  With c = 1 it is additions
    only."""
    a = list(p)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1] if c == 1 else c * a[j + 1]
    return _trim(a)


def q_cmp(x, y):
    """-1, 0 or 1 as the rational x = (n, d), d > 0, lies below, at or
    above y.  Interval ends are such pairs in lowest terms, so that tuple
    equality is numeric equality."""
    u, v = x[0] * y[1], y[0] * x[1]
    return (u > v) - (u < v)


def q_mid(x, y):
    """The midpoint of the rationals x and y, in lowest terms."""
    n, d = x[0] * y[1] + y[0] * x[1], 2 * x[1] * y[1]
    g = _igcd(n, d)
    return n // g, d // g


def _halve(m):
    """M(2x + 1): one shift by 1, then coefficient i times 2^i."""
    return [c << i for i, c in enumerate(_shift_by(m, 1))]


def _isolate_mobius(m, lo, hi, out, p, cap):
    """Descartes bisection of (lo, hi) (Collins-Akritas 1976) in the
    form of Rouillier-Zimmermann (2004).  A node carries
    M = (x+1)^n q(1/(x+1)), where q(x) on (0, 1) is the polynomial on
    (lo, hi), so that M's sign variations are the node's Descartes
    bound.  The halves are M(2x+1) and rev(rev(M)(2x+1)); both have
    M(1), a multiple of q(1/2), at the midpoint's end, and an exact root
    there is a zero coefficient that is dropped from each (the left one
    comes out negated, which changes no count).

    The left half is always made.  The bounds of the two halves and an
    exact root at the midpoint add up to at most the node's bound
    (Eigenwillig-Sharma-Yap, ISSAC 2006), and each bound has the parity
    of its count of roots, so when the rest of the node's bound is 0 or
    1 it is the right half's bound: the right half is dropped or is an
    interval of one root, and its shift is skipped.

    A multiple real root of the input p shows as a double root at a
    midpoint (a left half that starts with two zeros) or as a tree that
    never ends.  NotSquareFreeError is raised at the first, and at the
    first node deeper than `cap` when ugcd_int(p, p'), asked once there,
    is not 1; a square-free p passes that check, and its tree ends by the
    two-circle theorem.  The tree runs on a stack, left half first, so
    that `out` comes out sorted."""
    stack = [(m, _sign_variations(m), lo, hi, 0)]
    while stack:
        m, v, lo, hi, depth = stack.pop()
        if v == 0:
            continue
        if v == 1:  # one root in (lo, hi), or the point root (lo, lo)
            out.append((lo, hi))
            continue
        if cap is not None and depth > cap:
            if len(ugcd_int(p, _uderiv(p))) > 1:
                raise NotSquareFreeError("input is not square-free")
            cap = None
        mid = q_mid(lo, hi)
        left = _halve(m)
        root = not left[0]
        if root:
            if not left[1]:
                raise NotSquareFreeError("input is not square-free")
            left = left[1:]
        vl = _sign_variations(left)
        rest = v - vl - root
        if rest > 1:
            right = _halve(m[::-1])
            right = right[:0:-1] if root else right[::-1]
            stack.append((right, _sign_variations(right), mid, hi, depth + 1))
        else:
            stack.append((None, rest, mid, hi, depth + 1))
        if root:
            stack.append((None, 1, mid, mid, depth + 1))
        stack.append((left, vl, lo, mid, depth + 1))


class NotSquareFreeError(ValueError):
    pass


def isolate_int_roots(p):
    """Isolating intervals for all real roots of a square-free primitive
    integer coefficient list.

    Returns a sorted list of (lo, hi) rational pairs (n, d); lo == hi
    marks an exact rational root.  Open intervals carry a sign change of
    p and contain exactly one root; all intervals are pairwise disjoint.
    A multiple real root raises NotSquareFreeError where the bisection
    meets it: at 0, at a midpoint, or past the depth of the bit lengths
    of b and of p's largest coefficient, where `_isolate_mobius` asks
    ugcd_int(p, p') once.  A multiple root that is not real does no harm
    and is not refused.
    """
    if len(p) <= 1:
        return []
    if p[0] == p[1] == 0:
        raise NotSquareFreeError("input is not square-free")
    zero = p[0] == 0  # a simple root at 0: stripped here, inserted below
    p = p[1:] if zero else p
    out = []
    if len(p) == 2:
        c = _igcd(p[0], p[1]) if p[1] > 0 else -_igcd(p[0], p[1])
        out.append(((-p[0] // c, p[1] // c),) * 2)
    elif len(p) > 2:
        # dyadic root bound b >= 1 + max |c / lead|
        lead = abs(p[-1])
        top = max(abs(c) for c in p[:-1])
        b = 1
        while b * lead < lead + top:
            b <<= 1
        # map (-b, b) to (0, 1): q(x) = p(-b + 2b*x) = t(2b*x), t = p(x - b)
        t = _shift_by(p, -b)
        q = [c * (2 * b) ** i for i, c in enumerate(t)]
        cap = b.bit_length() + max(top, lead).bit_length()
        _isolate_mobius(_shift_by(q[::-1], 1), (-b, 1), (b, 1), out, p, cap)
    if zero:
        out.insert(sum(lo[0] < 0 for lo, _ in out), ((0, 1), (0, 1)))
    if len(p) <= 2:
        return out
    # separation must bisect against a polynomial that is nonzero at the
    # exact point roots, or the shared endpoint can never move past them
    p_sep = p
    for lo, hi in out:
        if lo == hi and sign_int_at(p_sep, lo) == 0:
            p_sep = _deflate_rational(p_sep, lo)
    return _separate_intervals(p_sep, out)


def _deflate_rational(p, t):
    """Divide an integer coefficient list by (b*x - a) for its known
    rational root t = (a, b); returns a primitive integer list."""
    a, b = t
    q = []
    acc = 0
    for c in reversed(p[1:]):  # p_k = b*q_(k-1) - a*q_k, exact over Z
        acc = (c + a * acc) // b
        q.append(acc)
    assert p[0] + a * acc == 0, "not a root"
    return _primitive_int(q[::-1])


def bisect_interval(p_int, lo, hi, s):
    """One bisection step of the open isolating interval (lo, hi) of
    p_int, where s is p_int's sign just right of lo: the half that keeps
    the root, or the midpoint (mid, mid) when it is the root.  No step
    changes s, so a caller that refines an interval again reads p_int at
    the midpoint only."""
    mid = q_mid(lo, hi)
    fm = sign_int_at(p_int, mid)
    if fm == 0:
        return mid, mid
    return (mid, hi) if fm == s else (lo, mid)


def refine_interval(p_int, lo, hi):
    """One bisection step keeping the sign change; collapses onto exact
    rational roots found at the midpoint."""
    if lo == hi:
        return lo, hi
    # lo may be an adjacent exact root; then the sign right of it is the
    # opposite of the sign at hi
    s = sign_int_at(p_int, lo) or -sign_int_at(p_int, hi)
    return bisect_interval(p_int, lo, hi, s)


def _separate_intervals(p_int, intervals):
    """Refine until closed intervals are pairwise disjoint.  Only
    neighbours are compared, so the intervals must come sorted by left
    end; unsorted input is refused rather than refined forever.  The
    open intervals' ends must not be roots of p_int; p_int's sign at
    each left end is read at its first step and carried."""
    ivs = list(intervals)
    if any(q_cmp(a[0], b[0]) > 0 for a, b in zip(ivs, ivs[1:])):
        raise ValueError("isolating intervals are not sorted by left end")
    signs = [None] * len(ivs)
    changed = True
    while changed:
        changed = False
        for i in range(len(ivs) - 1):
            if q_cmp(ivs[i][1], ivs[i + 1][0]) >= 0:
                for j in (i, i + 1):
                    lo, hi = ivs[j]
                    if lo != hi:
                        if signs[j] is None:
                            signs[j] = sign_int_at(p_int, lo)
                        ivs[j] = bisect_interval(p_int, lo, hi, signs[j])
                changed = True
    return ivs


def int_coeffs(f: Polynomial):
    """Primitive integer coefficient list of a univariate f, in ascending
    degree: [1] for a nonzero constant, [] for zero.  Raises if f
    involves more than one variable."""
    return univariate_coeffs(integer_table(f))


def univariate_coeffs(terms):
    """int_coeffs of a primitive integer term table {monomial: int}, such
    as integer_table and primitive_table give: the coefficient list with
    its sign made positive at the lead, and no gcd taken."""
    used = {i for mono in terms for i, e in enumerate(mono) if e}
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    var = used.pop() if used else 0
    coeffs = [0] * (max((mono[var] for mono in terms), default=-1) + 1)
    for mono, c in terms.items():
        coeffs[mono[var]] = c
    return [-c for c in coeffs] if coeffs and coeffs[-1] < 0 else coeffs


def usquarefree_int(coeffs):
    """Square-free part of an integer coefficient list, primitive with
    positive leading coefficient."""
    return usquarefree_primitive(_primitive_int(coeffs))


def usquarefree_primitive(p):
    """usquarefree_int of a list already primitive with positive lead:
    p itself at degree at most 1 or when Euclid modulo _PRIME shows p and
    p' coprime (p' has lead deg(p) * p[-1], nonzero modulo _PRIME too),
    with no gcd of coefficients; the gcd only when that test fails."""
    if len(p) <= 2 or p[-1] % _PRIME and _coprime_mod_prime(p, _uderiv(p)):
        return p
    g = ugcd_int(p, _uderiv(p))
    return p if g == [1] else udiv_exact_int(p, g)


def udiv_exact_int(a, b):
    """Exact quotient of integer coefficient lists, primitive part."""
    q, r = _pseudo_divmod(list(a), list(b))
    if r:
        raise ValueError("division is not exact")
    return _primitive_int(q)


def coprime_basis(polys):
    """Pairwise-coprime square-free basis of a list of integer
    coefficient lists: same union of real roots, no shared roots between
    basis members.  Keeps every polynomial at its original small degree
    instead of forming one giant product."""
    basis = []
    queue = [usquarefree_int(p) for p in polys]
    while queue:
        f = queue.pop()
        if len(f) <= 1:
            continue
        split = False
        for i, b in enumerate(basis):
            g = ugcd_int(b, f)
            if len(g) > 1:
                b1 = udiv_exact_int(b, g)
                f1 = udiv_exact_int(f, g)
                basis[i] = g
                if len(b1) > 1:
                    basis.append(b1)
                if len(f1) > 1:
                    queue.append(f1)
                split = True
                break
        if not split:
            basis.append(f)
    return basis


def same_root(p, ivp, q, ivq, g):
    """Whether two overlapping isolating intervals hold one and the same
    root.  ivp holds one root of p and ivq one root of q, each a point or
    an open interval with its polynomial nonzero at both ends.  A point
    is that root when the other polynomial vanishes there.  Two open
    intervals hold one root when g, the square-free gcd of the two
    polynomials whose roots they are, changes sign over their overlap;
    g is read only in that case."""
    (a, b), (c, d) = ivp, ivq
    if a == b:
        return a == c if c == d else sign_int_at(q, a) == 0
    if c == d:
        return sign_int_at(p, c) == 0
    lo = a if q_cmp(a, c) > 0 else c
    hi = b if q_cmp(b, d) < 0 else d
    return len(g) > 1 and sign_int_at(g, lo) != sign_int_at(g, hi)


def isolate_basis_roots(polys):
    """Sorted pairwise-disjoint isolating intervals for the union of the
    real roots of square-free integer coefficient lists: a list of
    (lo, hi, index), where polys[index] is the first of them vanishing
    at the root.

    Each pass sorts the intervals and separates every overlapping
    adjacent pair; a pair holding one shared root keeps the lower index
    and starts a new pass.  The roots of later polynomials are listed
    first, so equal intervals sort with the later polynomial first.  The
    gcd of two members is computed once, when two of their open
    intervals first overlap."""
    items = [(lo, hi, k) for k in reversed(range(len(polys)))
             for lo, hi in isolate_int_roots(polys[k])]
    gcds = {}
    changed = True
    while changed:
        changed = False
        items.sort(key=cmp_to_key(lambda s, t: q_cmp(s[0], t[0]) or q_cmp(s[1], t[1])))
        for i in range(len(items) - 1):
            a, b, k = items[i]
            c, d, l = items[i + 1]
            if q_cmp(b, c) >= 0:
                changed = True
                p, q = polys[k], polys[l]
                g = None
                if a != b and c != d:
                    pair = (k, l) if k < l else (l, k)
                    if pair not in gcds:
                        gcds[pair] = ugcd_int(p, q)
                    g = gcds[pair]
                # refining moves no root, so the tie rule is asked once
                if same_root(p, (a, b), q, (c, d), g):
                    del items[i + (k < l)]
                    break
                ivp, ivq = _separate_pair(p, (a, b), q, (c, d))
                items[i] = ivp + (k,)
                items[i + 1] = ivq + (l,)
    return items


def _separate_pair(p, ivp, q, ivq):
    """Bisect the wider of two overlapping isolating intervals of p and
    q, which hold distinct roots, until their closures are disjoint.
    Each polynomial's sign at its interval's left end is read at its
    first step and carried."""
    (a, b), (c, d) = ivp, ivq
    sp = sq = None
    while q_cmp(a, d) <= 0 and q_cmp(c, b) <= 0:
        if (b[0] * a[1] - a[0] * b[1]) * c[1] * d[1] \
                >= (d[0] * c[1] - c[0] * d[1]) * a[1] * b[1]:  # b - a >= d - c
            if sp is None:
                sp = sign_int_at(p, a)
            a, b = bisect_interval(p, a, b, sp)
        else:
            if sq is None:
                sq = sign_int_at(q, c)
            c, d = bisect_interval(q, c, d, sq)
    return (a, b), (c, d)
