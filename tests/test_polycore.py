"""Polynomial core: arithmetic, determinants, resultants, real roots."""
import random
from fractions import Fraction as Q
from itertools import permutations
from math import gcd

import pytest
from test_eliminate import SEXTIC

from fiberatlas import polycore
from fiberatlas.polycore import (
    NotSquareFreeError,
    ParseError,
    Polynomial,
    Ring,
    RingMismatchError,
    coprime_basis,
    determinant,
    int_coeffs,
    isolate_basis_roots,
    isolate_int_roots,
    parse_polynomial,
    q_cmp,
    refine_interval,
    resultant,
    same_root,
    sign_at,
    sign_int_at,
    ugcd_int,
    usquarefree_int,
    usquarefree_primitive,
)
from fiberatlas.polycore import _resultant_leaf, _separate_intervals, _shift_by

MERSENNE_61 = (1 << 61) - 1

R11 = Ring(1, 1)
R20 = Ring(2, 0)


def P(text, ring=R11):
    return parse_polynomial(text, ring)


# -- arithmetic and parsing --------------------------------------------

def test_parse_round_trip():
    for text in ("X1^2 + Y1 - 1", "3/4*X1*Y1 - 2", "X1^3 - 3*X1 + 1"):
        p = P(text)
        assert P(p.to_text()) == p


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        P("X1") + parse_polynomial("X1", R20)


def test_arithmetic_identities():
    rng = random.Random(7)
    for _ in range(30):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): Q(rng.randint(-4, 4))
            for _ in range(3)
        }
        p = Polynomial(R11, {k: v for k, v in terms.items() if v})
        q = P("X1*Y1 - 2")
        assert p + q - q == p
        assert p * q == q * p
        assert (p - p).is_zero()
        assert p * 0 == Polynomial.constant(R11, 0)


def _assert_clean(p):
    """Every stored coefficient is a nonzero Fraction."""
    for c in p.terms.values():
        assert type(c) is Q and c != 0


def test_arithmetic_keeps_nonzero_fraction_coefficients():
    p = P("X1^2*Y1 - 2/3*X1 + Y1 - 1")
    q = P("X1^2*Y1 + 2/3*X1 - 5")  # cancels two terms of p in p - q and p + (-q)
    results = [p + q, p - q, q - p, p * q, -p, p + (-q), p * (p - p),
               p + 1, p - Q(1, 2), 3 - p, p * 2, p * Q(-3, 4),
               p.derivative(0), p.derivative(1), (p * q).derivative(0),
               resultant(p, q, 0), resultant(p, P("X1 - Y1"), 0),
               resultant(P("Y1 + 1"), p, 0)]
    for r in results:
        _assert_clean(r)
    assert (p - q).terms == {(1, 0): Q(-4, 3), (0, 1): Q(1), (0, 0): Q(4)}


def test_rational_shift_cancels_the_constant_term():
    x = P("X1")
    shifted = (x + 1) - 1
    assert shifted.terms == {(1, 0): Q(1)}
    assert shifted == x and hash(shifted) == hash(x)
    assert (x + Q(1, 3)) - Q(1, 3) == x
    p = P("X1^2*Y1 - 2/3*X1 + 7")
    assert (p + (-p)).is_zero()
    assert p + (-p) == Polynomial(R11)


def test_fast_path_and_public_constructor_agree():
    p = P("X1*Y1 - 2") * P("X1 + 1/3") + P("Y1")
    q = Polynomial(R11, {(2, 1): 1, (1, 1): Q(1, 3), (1, 0): -2,
                         (0, 0): Q(-2, 3), (0, 1): 1, (3, 0): 0})
    _assert_clean(q)
    assert p.terms == q.terms
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1


@pytest.mark.parametrize("text", ["X1", "-2", "5/7", "-3/4*X1^2*Y1", "X1*Y1^3", "0"])
def test_one_term_power_equals_repeated_multiplication(text):
    """A power of one term (c*x^e, taken as one power of c) equals the
    product of k copies, with rational and negative coefficients, at
    exponent 0, for a zero base and for a two-variable monomial."""
    base = P(text)
    product = Polynomial.constant(R11, 1)
    for k in range(6):
        power = base ** k
        _assert_clean(power)
        assert power.terms == product.terms and power == product
        product = product * base


def test_eval_matches_expansion():
    p = P("(X1 + Y1)^3")
    q = P("1/2*X1^4*Y1 - 2/3*X1 + 5/6*Y1^2 - 7/4")
    for x in (Q(0), Q(1, 2), Q(-3)):
        for y in (Q(2), Q(-1, 3)):
            assert p.eval_at((x, y)) == (x + y) ** 3
            want = Q(1, 2) * x ** 4 * y - Q(2, 3) * x + Q(5, 6) * y ** 2 - Q(7, 4)
            got = q.eval_at((x, y))
            assert type(got) is Q and got == want
    assert P("0").eval_at((Q(1), Q(2))) == 0
    assert P("3/4*Y1").eval_at((Q(5, 7), 2)) == Q(3, 2)


def test_parse_errors_carry_position():
    """Each error names the failing token's own column and source text."""
    for text, message in (
        ("X1 + + 2", "unexpected token '+' (at position 5)"),
        ("X1 +  )", "unexpected token ')' (at position 6)"),
        ("X1 *  3 3", "trailing input '3' (at position 8)"),
        ("X1 + 1 /  2 7", "trailing input '7' (at position 12)"),
        ("X1 +", "unexpected end of input (at position 4)"),
        # the first failing token in text order: a bad character or zero
        # denominator fails only where the parser reaches it
        ("X1 2 + Z", "trailing input '2' (at position 3)"),
        ("(X1 + 1/0", "zero denominator in 1/0 (at position 6)"),
        ("(X1 + 1", "expected ')', found end of input (at position 7)"),
        ("X1 > 0", "trailing input '>' (at position 3)"),
        # a variable outside the ring fails at its own token
        ("X1 + X3", "variable X3 not in ring with m=1 (at position 5)"),
        ("X1 + X0", "bad variable name 'X0' (at position 5)"),
        ("X1 + Y2 +", "variable Y2 not in ring with n=1 (at position 5)"),
    ):
        with pytest.raises(ParseError) as exc:
            P(text)
        assert str(exc.value) == message
    with pytest.raises(ParseError):
        P("X1^-2")
    with pytest.raises(ValueError):
        P("X3")



def test_derivative_product_rule():
    p = P("X1^2*Y1 + 1")
    q = P("X1 - Y1")
    lhs = (p * q).derivative(0)
    assert lhs == p.derivative(0) * q + p * q.derivative(0)


# -- determinants -------------------------------------------------------

def _det_oracle(rows):
    n = len(rows)
    ring = rows[0][0].ring
    total = Polynomial.constant(ring, 0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Polynomial.constant(ring, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_determinant_against_permanent_expansion():
    rng = random.Random(11)
    for n in (2, 3, 5):
        rows = [
            [
                Polynomial(R20, {(rng.randint(0, 1), rng.randint(0, 1)):
                                 Q(rng.randint(-3, 3))})
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert determinant(rows) == _det_oracle(rows)


def test_determinant_singular_matrix_is_zero():
    row = [P("X1"), P("Y1 + 1")]
    assert determinant([row, row]).is_zero()


# -- resultants ---------------------------------------------------------

def test_resultant_worked_example():
    f = P("X1^2 + Y1 - 1")
    g = P("2*X1")
    assert resultant(f, g, 0) == P("4*Y1 - 4")


def test_resultant_common_factor_vanishes():
    rng = random.Random(3)
    for _ in range(20):
        a = Q(rng.randint(-5, 5))
        common = P("X1") - a
        f = common * P("X1 + Y1")
        g = common * P(f"X1 - {rng.randint(1, 4)}")
        assert resultant(f, g, 0).is_zero()


def test_resultant_degree_zero_convention():
    f = P("Y1 + 2")
    g = P("X1^3 - Y1")
    assert resultant(g, f, 0) == f ** 3


def _sylvester_oracle(f, g, var, point):
    """The Sylvester determinant of f and g in `var` after every other
    variable is set to point[i], with the rows padded to the formal
    degrees of f and g."""
    df, dg = f.degree_in(var), g.degree_in(var)

    def descending(p, d):
        c = [Q(0)] * (d + 1)
        for mono, v in p.terms.items():
            for i, e in enumerate(mono):
                if i != var:
                    v *= point[i] ** e
            c[d - mono[var]] += v
        return c

    return _sylvester_det(descending(f, df), descending(g, dg))


def _sylvester_det(fc, gc):
    """Determinant of the Sylvester matrix of the coefficient lists fc and
    gc (leading coefficient first), padded to the formal degrees
    len(fc) - 1 and len(gc) - 1; Fraction Gaussian elimination."""
    df, dg = len(fc) - 1, len(gc) - 1
    size = df + dg
    fc, gc = [Q(c) for c in fc], [Q(c) for c in gc]
    a = [[Q(0)] * i + fc + [Q(0)] * (dg - 1 - i) for i in range(dg)]
    a += [[Q(0)] * i + gc + [Q(0)] * (df - 1 - i) for i in range(df)]
    det = Q(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if a[i][k] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, size):
            factor = a[i][k] / a[k][k]
            for j in range(k, size):
                a[i][j] -= factor * a[k][j]
    return det


def _random_rational(rng):
    return Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 64)))


# (ring, eliminated variable, f, g): leading coefficients in the
# eliminated variable that vanish at Y1 = 0 or 1, an argument that
# vanishes identically at Y1 = 1, denominators 64^k, more than one
# fiber variable with var != 0, and a common factor
RESULTANT_CASES = [
    (Ring(1, 1), 0, "Y1*X1^2 + X1 + 1", "3*X1^2 - Y1 + 2"),
    (Ring(1, 1), 0, "(Y1 - 1)*X1^3 + 2*X1 - Y1", "5*X1^2 + X1 - 3"),
    (Ring(1, 1), 0, "(Y1 - 1)*(X1 + 2)", "2*X1^2 + Y1*X1 - 1"),
    (Ring(1, 1), 1, "Y1^2*X1 - 1/64", "3*Y1 - X1^2 + 1/4096"),
    (Ring(1, 1), 0, "1/64*X1^2 + 1/4096*Y1 - 1", "1/64*X1*Y1 - 1/262144"),
    (Ring(2, 1), 1, "X1*X2^2 + Y1*X2 - 1/64", "X2 - X1*Y1 + 2"),
    (Ring(2, 1), 0, "Y1*X1^2 + X2*X1 + 1", "7*X1^2 - X2*Y1 + 1"),
    (Ring(3, 1), 2, "X1*X3^2 + X2*X3 - Y1", "X3^2*Y1 + X1*X2 - 1/64"),
    (Ring(3, 1), 1, "X1*X2 - X3 + Y1", "X2^2 - X3*Y1 + 3"),
    (Ring(1, 1), 0, "(X1 - Y1)*(X1 + 1)", "(X1 - Y1)*(X1^2 + Y1)"),
    # column bound below the row bound: a monic sextic with Y1^2
    # coefficients against its X1-derivative (degree 20 in Y1, row bound
    # 22), and a (2, 1) case where it binds only at the inner level, X2
    # (degree 2 in X2, row bound 3)
    (Ring(1, 1), 0,
     "X1^6 + (Y1^2 + 1)*X1^5 + (Y1^2 - 3)*X1^4 + (2*Y1^2 + Y1)*X1^3"
     " + (Y1^2 - 2)*X1^2 - Y1^2*X1 + Y1^2 - 1",
     "6*X1^5 + 5*(Y1^2 + 1)*X1^4 + 4*(Y1^2 - 3)*X1^3 + 3*(2*Y1^2 + Y1)*X1^2"
     " + 2*(Y1^2 - 2)*X1 - Y1^2"),
    (Ring(2, 1), 0, "X1^2 + X2*X1 + X2 - Y1", "2*X1 + X2"),
]


def test_resultant_against_sylvester_oracle():
    rng = random.Random(17)
    for ring, var, ftext, gtext in RESULTANT_CASES:
        f, g = P(ftext, ring), P(gtext, ring)
        res = resultant(f, g, var)
        for _ in range(4):
            point = [_random_rational(rng) for _ in range(ring.nvars)]
            assert res.eval_at(point) == _sylvester_oracle(f, g, var, point), (
                ftext, gtext, point)
    assert resultant(P("(X1 - Y1)*(X1 + 1)"), P("(X1 - Y1)*(X1^2 + Y1)"), 0).is_zero()


def test_resultant_against_sylvester_oracle_random():
    rng = random.Random(23)
    for ring in (Ring(1, 1), Ring(2, 1), Ring(3, 1)):
        for _ in range(12):
            var = rng.randrange(ring.nvars)
            f, g = (
                Polynomial(ring, {
                    tuple(rng.randint(0, 3 if i == var else 1)
                          for i in range(ring.nvars)):
                    Q(rng.randint(-4, 4), 64 ** rng.randint(0, 2))
                    for _ in range(rng.randint(2, 4))
                })
                for _ in range(2)
            )
            if f.degree_in(var) == 0 or g.degree_in(var) == 0:
                continue
            res = resultant(f, g, var)
            point = [_random_rational(rng) for _ in range(ring.nvars)]
            assert res.eval_at(point) == _sylvester_oracle(f, g, var, point)


def _counted_resultant(monkeypatch, f, g):
    """resultant(f, g, 0) and the number of _resultant_leaf calls it made."""
    calls = []
    leaf = polycore._resultant_leaf

    def counted(a, b):
        calls.append(1)
        return leaf(a, b)

    with monkeypatch.context() as m:
        m.setattr(polycore, "_resultant_leaf", counted)
        res = resultant(f, g, 0)
    return res, len(calls)


def _assert_oracle_at_integers(f, g, res):
    """res against the Sylvester oracle at Y1 = 0..N, N the row bound on
    its degree in Y1: N + 1 points fix every coefficient."""
    df, dg = f.degree_in(0), g.degree_in(0)
    n = dg * f.degree_in(1) + df * g.degree_in(1)
    for y in range(n + 1):
        point = [Q(0), Q(y)]
        assert res.eval_at(point) == _sylvester_oracle(f, g, 0, point), (f, g, y)


def test_packed_resultant_takes_one_leaf_below_the_cutoff(monkeypatch):
    """The census-elim sextic against its X1-derivative packs into 3.8k
    bits, and into 7.98k bits with Y1 scaled by 2^9: one leaf.  Scaled
    by 2^10 it needs 8.44k bits, above _PACK_CUTOFF: one leaf at each of
    Y1 = 0..20 (the sextic is monic, so no leaf recurses)."""
    assert polycore._PACK_CUTOFF == 1 << 13
    for scale, leaves in ((1, 1), (1 << 9, 1), (1 << 10, 21)):
        f = P(SEXTIC).substitute_poly({1: P(f"{scale}*Y1")})
        g = f.derivative(0)
        res, calls = _counted_resultant(monkeypatch, f, g)
        assert calls == leaves, scale
        assert res.degree_in(1) == 20
        _assert_oracle_at_integers(f, g, res)


def test_packed_resultant_against_sylvester_oracle(monkeypatch):
    """Packed resultants equal the oracle on every coefficient: a (1, 1)
    pair, leading coefficients in X1 that vanish at Y1 = 1 and Y1 = 2,
    which the packing point 2^k never is, and a common factor."""
    for ftext, gtext in (
        ("(Y1^2 - 3)*X1 + 2*Y1 - 1", "(2*Y1 + 5)*X1 - Y1^2 + 4"),
        ("(Y1 - 1)*X1^3 + 2*X1 - Y1", "(Y1 - 2)*X1^2 + Y1*X1 - 3"),
        ("(Y1 - 1)*(X1 + 2)", "2*X1^2 + Y1*X1 - 1"),
        ("-7/64*X1^4 - 9*Y1^3*X1 - 5", "-3*X1^2*Y1^2 - 8*X1 - 1/4096*Y1"),
    ):
        f, g = P(ftext), P(gtext)
        res, calls = _counted_resultant(monkeypatch, f, g)
        assert calls == 1, (ftext, gtext)
        _assert_oracle_at_integers(f, g, res)
    res, calls = _counted_resultant(monkeypatch, P("(X1 - Y1)*(X1 + 1)"),
                                    P("(X1 - Y1)*(X1^2 + Y1)"))
    assert res.is_zero() and calls == 1


def test_packed_resultant_reads_negative_coefficients_near_the_bound(monkeypatch):
    """res(X1, X1^3 - M*Y1^5) = -M*Y1^5, and |f|_1^dg * |g|_1^df = M + 1
    bounds it, so a coefficient takes the packing bound less one.  A
    (1, 2) pair gives two negative coefficients of an eighth of theirs."""
    for bits in (3, 20, 61, 200):
        m = (1 << bits) + 1
        res, calls = _counted_resultant(monkeypatch, P("X1"), P(f"X1^3 - {m}*Y1^5"))
        assert calls == 1
        assert res == P(f"-{m}*Y1^5")
        res, calls = _counted_resultant(monkeypatch, P("X1 - Y1"), P(f"X1^2 - {m}*Y1 - {m}"))
        assert calls == 1
        assert res == P(f"Y1^2 - {m}*Y1 - {m}")


def test_resultant_leaf_against_padded_sylvester_determinant():
    """The subresultant leaf against the Fraction determinant of the
    padded Sylvester matrix, on integer lists of formal degree 0..8."""
    rng = random.Random(29)

    def rand(d):
        return [rng.randint(-4, 4) for _ in range(d + 1)]

    pairs = [
        # pseudo-division where a leading term cancels: 2 steps, not 3
        ([1, 1, 1, 2, 4], [1, 1, 2]),
        # formal leading coefficient zero on one side, odd dg
        ([1, 2, 0], [1, 1, 3, 2]),
        ([3, -1, 0, 0, 0], [2, 0, 1, -5, 1, 3, 7]),
        ([2, 5, 1, 3], [1, -2, 0]),
    ]
    for _ in range(300):
        pairs.append((rand(rng.randint(0, 8)), rand(rng.randint(0, 8))))
    for _ in range(60):  # the top k formal coefficients zeroed on one side
        f, g = rand(rng.randint(1, 8)), rand(rng.randint(1, 8))
        k = rng.randint(1, len(f) - 1)
        f[-k:] = [0] * k
        pairs.append((f, g) if rng.random() < 0.5 else (g, f))
    for _ in range(30):  # odd x odd
        pairs.append((rand(rng.choice((1, 3, 5, 7))), rand(rng.choice((1, 3, 5, 7)))))
    zero = []
    for _ in range(30):  # zeroed on both sides
        f, g = rand(rng.randint(1, 8)), rand(rng.randint(1, 8))
        zero.append((f[:-1] + [0], g[:-1] + [0]))
    for _ in range(30):  # a common factor of positive degree
        h = rand(rng.randint(1, 3))
        h[-1] = h[-1] or 1
        zero.append((_umul(h, rand(rng.randint(0, 5))), _umul(h, rand(rng.randint(0, 5)))))
    for f, g in pairs + zero:
        expected = _sylvester_det(f[::-1], g[::-1])
        assert _resultant_leaf(f, g) == expected, (f, g)
    assert all(_resultant_leaf(f, g) == 0 for f, g in zero)


# -- univariate integer machinery ---------------------------------------

def _udiv_frac(a, b):
    """Quotient and remainder over the rationals."""
    a = [Q(c) for c in a]
    b = _trimmed(b)
    q = [Q(0)] * max(len(a) - len(b) + 1, 0)
    while len(_trimmed(a)) >= len(b):
        a = _trimmed(a)
        k = len(a) - len(b)
        f = a[-1] / Q(b[-1])
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * Q(c)
        a = a[:-1]
    return q, _trimmed(a)


def test_ugcd_int_divides_both():
    rng = random.Random(5)
    for _ in range(25):
        h = [rng.randint(-3, 3) for _ in range(3)]
        if not any(h):
            h[0] = 1
        a = _umul(h, [rng.randint(-3, 3) for _ in range(3)])
        b = _umul(h, [rng.randint(-3, 3) for _ in range(2)])
        if not any(a) or not any(b):
            continue
        g = ugcd_int(a, b)
        assert len(g) >= len(_trimmed(h)) or len(_trimmed(h)) == 1
        for target in (a, b):
            _, r = _udiv_frac(target, g)
            assert not r


def _umul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _pair(x):
    """A Fraction as the (numerator, denominator) pair root isolation uses."""
    return x.numerator, x.denominator


def _ends(iv):
    """An isolating interval's (n, d) ends as Fractions."""
    return tuple(Q(*x) for x in iv)


def test_sign_int_at_matches_fraction_eval():
    rng = random.Random(13)
    for _ in range(40):
        coeffs = [rng.randint(-6, 6) for _ in range(5)]
        if not any(coeffs):
            continue
        x = Q(rng.randint(-9, 9), rng.randint(1, 7))
        value = sum(Q(c) * x ** k for k, c in enumerate(coeffs))
        assert sign_int_at(coeffs, _pair(x)) == (value > 0) - (value < 0)


def test_square_free_part_removes_multiplicity():
    p = P("(X1 - 1)^3", Ring(1, 0)) * P("(X1 + 2)^2", Ring(1, 0))
    sf = usquarefree_int(int_coeffs(p))
    assert len(sf) - 1 == 2
    assert sign_int_at(sf, (1, 1)) == 0
    assert sign_int_at(sf, (-2, 1)) == 0
    assert sf == [-2, 1, 1]


# -- root isolation -----------------------------------------------------

def test_isolation_finds_exactly_the_rational_roots():
    ring = Ring(1, 0)
    roots = [Q(-3), Q(-1, 2), Q(0), Q(5, 3), Q(4)]
    p = Polynomial.constant(ring, 1)
    for r in roots:
        p = p * (Polynomial.variable(ring, 0) - r)
    intervals = [_ends(iv) for iv in isolate_int_roots(int_coeffs(p))]
    assert len(intervals) == len(roots)
    for (lo, hi), r in zip(intervals, sorted(roots)):
        assert lo <= r <= hi


def test_isolation_separates_close_roots():
    # roots 2^-1100 apart need a bisection 1100 levels deep
    ring = Ring(1, 0)
    for a, b in ((Q(1), Q(1) + Q(1, 10 ** 6)), (Q(1, 3), Q(1, 3) + Q(1, 2 ** 1100))):
        p = (Polynomial.variable(ring, 0) - a) * (Polynomial.variable(ring, 0) - b)
        intervals = [_ends(iv) for iv in isolate_int_roots(int_coeffs(p))]
        assert len(intervals) == 2
        assert intervals[0][1] < intervals[1][0]
        assert intervals[0][0] <= a <= intervals[0][1]
        assert intervals[1][0] <= b <= intervals[1][1]


def _sturm_count(p):
    """The number of distinct real roots of the integer list p, from the
    sign changes of its Sturm sequence at -inf and +inf, over Fractions."""
    seq = [[Q(c) for c in p], _trimmed([i * Q(c) for i, c in enumerate(p)][1:])]
    while len(seq[-1]) > 1:
        r, d = list(seq[-2]), seq[-1]
        while len(r) >= len(d):
            k, f = len(r) - len(d), r[-1] / d[-1]
            r = _trimmed([c - f * d[i - k] if i >= k else c for i, c in enumerate(r)])
        if not r:
            break
        seq.append([-c for c in r])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_minus = [(1 if q[-1] > 0 else -1) * (-1) ** (len(q) - 1) for q in seq]
    return changes(at_minus) - changes([1 if q[-1] > 0 else -1 for q in seq])


def test_isolation_returns_midpoint_roots_as_points():
    """Rational roots on bisection midpoints at depth 2 or more, each
    with an irrational root in the same half, so that the bisection
    splits exactly there.  Each root bound b below is the one
    isolate_int_roots starts from: it bisects (-b, b)."""
    cases = (
        ([(1, 1)], [-2, 0, 1]),  # b = 4: 1 halves (0, 2), beside sqrt 2
        ([(3, 1)], [-7, 0, 1]),  # b = 32: 3 halves (2, 4), beside sqrt 7
        ([(-3, 2)], [-3, 0, 1]),  # b = 8: -3/2 halves (-2, -1), beside -sqrt 3
        # b = 64 and 16: two such roots, beside (x^2 - 2)(x^2 - 7) and
        # (x^2 - 2)(x^2 - 3)
        ([(1, 1), (3, 1)], [14, 0, -9, 0, 1]),
        ([(-3, 2), (1, 1)], [6, 0, -5, 0, 1]),
    )
    for rational, rest in cases:
        p = rest
        for n, d in rational:
            p = [a - b for a, b in zip([0] + [d * c for c in p], [n * c for c in p] + [0])]
        intervals = isolate_int_roots(p)
        assert len(intervals) == _sturm_count(p), p
        points = [lo for lo, hi in intervals if lo == hi]
        assert points == rational, p
        assert all(q_cmp(a[1], b[0]) < 0 for a, b in zip(intervals, intervals[1:]))
    # (x - 8)(2x - 1)(2x - 11)(2x^2 - 3x + 2), b = 128: 8 halves (0, 16).
    # A bisection that kept the root in both halves would carry a factor
    # into every descendant, and the Descartes bounds, so the ends, change
    # (1/2 in (0, 2))
    assert isolate_int_roots([-176, 670, -897, 582, -124, 8]) == [
        ((0, 1), (1, 1)), ((4, 1), (6, 1)), ((8, 1), (8, 1))]


def test_isolation_irrational_roots_counted():
    # X^2 - 2 has two real roots, neither rational
    p = P("X1^2 - 2", Ring(1, 0))
    intervals = [_ends(iv) for iv in isolate_int_roots(int_coeffs(p))]
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert lo < hi


def test_refine_interval_keeps_the_root():
    coeffs = int_coeffs(P("X1^2 - 2", Ring(1, 0)))
    lo, hi = isolate_int_roots(list(coeffs))[1]
    for _ in range(20):
        lo, hi = refine_interval(list(coeffs), lo, hi)
    assert Q(*hi) - Q(*lo) <= Q(1, 2 ** 18)
    assert sign_int_at(list(coeffs), lo) * sign_int_at(list(coeffs), hi) <= 0


def test_separate_intervals_refuses_unsorted_input():
    p = [-2, 0, 1]  # X^2 - 2: two disjoint isolating intervals
    ivs = isolate_int_roots(p)
    assert _separate_intervals(p, ivs) == ivs
    with pytest.raises(ValueError, match="not sorted"):
        _separate_intervals(p, ivs[::-1])


def test_coprime_basis_preserves_root_union():
    polys = [[-2, 0, 1], [-1, 0, 1], [2, -3, 1], [-4, 0, 0, 1]]
    basis = coprime_basis(polys)
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            assert len(ugcd_int(list(a), list(b))) == 1
    total = sum(len(isolate_int_roots(list(b))) for b in basis)
    # distinct real roots: -sqrt2, sqrt2, -1, 1, 2, cbrt4 (1 and 2 shared)
    assert total == 6


def test_usquarefree_int_is_square_free():
    p = _umul(_umul([1, 1], [1, 1]), [-2, 1])
    sf = usquarefree_int(p)
    g = ugcd_int(list(sf), [i * c for i, c in enumerate(sf)][1:])
    assert len(g) == 1
    # a square-free primitive input comes back as it is
    assert usquarefree_int([-2, 0, 1]) == [-2, 0, 1]
    assert usquarefree_int([6, -4, -2]) == [-3, 2, 1]


def test_usquarefree_primitive_tests_every_list_above_degree_one():
    """A primitive list passes as the same object when it is square-free
    or of degree at most 1; a repeated factor, real or not, is removed."""
    for p in ([], [1], [-3, 2], [-2, 0, 1], [1, 0, 1, 0, 5]):
        assert usquarefree_primitive(p) is p
    x2_1, x_2 = P("X1^2 + 1", Ring(1, 0)), P("X1 - 2", Ring(1, 0))
    for square, part in ((x2_1 ** 2 * x_2, x2_1 * x_2), (x_2 ** 2, x_2), (x_2 ** 3, x_2),
                         (x2_1 ** 3 * x_2 ** 2 * P("3*X1 + 1", Ring(1, 0)),
                          x2_1 * x_2 * P("3*X1 + 1", Ring(1, 0)))):
        assert usquarefree_primitive(int_coeffs(square)) == int_coeffs(part)


def _gcd_oracle(a, b):
    """Gcd by Euclid over the rationals, scaled to a primitive integer
    list with positive leading coefficient."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        a, b = b, _udiv_frac(a, b)[1]
    if not a:
        return []
    lcm = 1
    for c in a:
        lcm = lcm * Q(c).denominator // gcd(lcm, Q(c).denominator)
    ints = [int(Q(c) * lcm) for c in a]
    g = gcd(*ints)
    return [c // g * (1 if ints[-1] > 0 else -1) for c in ints]


def test_ugcd_int_falls_back_when_the_modular_check_cannot_decide():
    m = MERSENNE_61
    cases = [
        # leading coefficient a multiple of the prime: no modular pass
        ([3, m], [1, 2, 5]),
        (_umul([3, 2 * m], [-1, 1]), _umul([-1, 1], [7, 0, 1])),
        (_umul([1, m], [1, 1]), _umul([1, m], [3, 1])),
        # x and x - m share the root 0 modulo the prime but are coprime
        ([0, 1], [-m, 1]),
        (_umul([-m, 1], [2, 1]), _umul([0, 1], [2, 1])),
        # a shared factor: the modular sequence ends in zero
        (_umul([-2, 0, 1], [1, 3]), _umul([-2, 0, 1], [-5, 0, 0, 2])),
        (_umul([m + 4, 1], [1, 1]), _umul([m + 4, 1], [3, 1])),
    ]
    for a, b in cases:
        assert ugcd_int(a, b) == _gcd_oracle(a, b)
        assert ugcd_int(b, a) == _gcd_oracle(a, b)
    assert ugcd_int([0, 1], [-m, 1]) == [1]


def test_ugcd_int_against_rational_euclid():
    rng = random.Random(61)
    for _ in range(150):
        h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 9)]
        a = [rng.randint(-(1 << 70), 1 << 70) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            a, b = _umul(a, h), _umul(b, h)
        if not any(a) or not any(b):
            continue
        assert ugcd_int(a, b) == _gcd_oracle(a, b)


def _shift_oracle(p, c):
    """p(x + c) by Horner's rule on coefficient lists: r -> r * (x + c) + a."""
    r = []
    for a in reversed(p):
        r = [c * s + t for s, t in zip(r + [0], [0] + r)]
        r[0] += a
    return _trimmed(r)


def test_shift_by_against_horner():
    rng = random.Random(17)
    assert _shift_by([], 5) == []
    assert _shift_by([0, 0], 1) == []
    for _ in range(400):
        bits = rng.choice((1, 8, 64, 200))
        p = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(1, 26))]
        if rng.random() < 0.25:
            p += [0] * rng.randint(1, 3)  # trailing zeros
        c = rng.choice((1, -1, -(1 << rng.randint(0, 80)),
                        rng.randint(-(1 << 100), 1 << 100)))
        assert _shift_by(p, c) == _shift_oracle(p, c)


def test_isolation_still_refuses_a_square():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    with pytest.raises(NotSquareFreeError):
        isolate_int_roots([2, -3, 0, 1])


def test_int_coeffs_rejects_mixed():
    with pytest.raises(ValueError):
        int_coeffs(P("X1*Y1"))


def test_sign_at_multivariate():
    p = P("X1^2 + Y1 - 1")
    assert sign_at(p, (Q(0), Q(0))) == -1
    assert sign_at(p, (Q(1), Q(0))) == 0
    assert sign_at(p, (Q(2), Q(0))) == 1


def test_same_root_tie_rule():
    p, q = [-2, 0, 1], [6, -2, -3, 1]  # x^2 - 2 and (x^2 - 2)(x - 3)
    g = ugcd_int(p, q)
    # open intervals around sqrt(2): the gcd changes sign over the overlap
    assert same_root(p, ((1, 1), (2, 1)), q, ((5, 4), (2, 1)), g)
    # around sqrt(2) and 3: no sign change of the gcd over [5/2, 7/2]
    assert not same_root(p, ((1, 1), (4, 1)), q, ((5, 2), (7, 2)), g)
    # a point is the other's root exactly when the other vanishes there
    assert same_root([-1, 1], ((1, 1), (1, 1)), [-1, 0, 1], ((1, 2), (3, 2)), None)
    assert not same_root([-1, 1], ((1, 1), (1, 1)), [-2, 0, 1], ((1, 1), (2, 1)), None)
    assert not same_root([-2, 0, 1], ((1, 1), (2, 1)), [-3, 2], ((3, 2), (3, 2)), None)
    assert same_root([-1, 1], ((1, 1), (1, 1)), [-2, 2], ((1, 1), (1, 1)), None)


def test_isolate_basis_roots_keeps_the_first_polynomial_of_a_shared_root():
    polys = [[-2, 0, 1], [-1, 0, 1], [2, -3, 1], [-4, 0, 0, 1], [6, -2, -3, 1]]
    roots = isolate_basis_roots(polys)
    # -sqrt2, -1, 1, sqrt2, cbrt4, 2, 3: each once, at its first polynomial
    assert [k for _, _, k in roots] == [0, 1, 1, 0, 3, 2, 4]
    for (a, b, _), (c, d, _) in zip(roots, roots[1:]):
        assert Q(*b) < Q(*c)
    for lo, hi, k in roots:
        if lo == hi:
            assert sign_int_at(polys[k], lo) == 0
        else:
            assert sign_int_at(polys[k], lo) * sign_int_at(polys[k], hi) < 0
