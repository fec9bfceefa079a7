"""Exact big-integer evaluation of the explicit bound formulas.

Every asymptotic bound carries an unspecified constant; it is exposed as
the parameter c (default 1) and always displayed with results rather
than silently fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from inspect import signature
from math import comb
from operator import mul


@dataclass(frozen=True)
class BoundExpr:
    name: str
    symbolic: str
    params: tuple  # parameter names in call order


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not isinstance(value, int):
            raise TypeError(f"{name} must be an integer")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _check_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if not isinstance(value, int):
            raise TypeError(f"{name} must be an integer")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


# Below this many bits _square uses the builtin product: of cutoffs 2^12
# to 2^17, 2^14 formed 5^(2^22), 3^(2^20) and 35^360000 fastest, with
# _square_ntt from _NTT_CUTOFF (CPython 3.11, x86-64).
_TOOM_CUTOFF = 1 << 14
# From this many bits _square uses _square_ntt: Toom-3 is faster at 1.05M
# bits, they tie at 1.2M, and _square_ntt is faster from 1.3M, by a
# third at 2M bits (CPython 3.11, libmpdec 2.5.1, x86-64).
_NTT_CUTOFF = 5 << 18
# Limb size of the packed squaring in bits, a multiple of 8 so that a limb
# is whole hex digits and a slot whole bytes.
_LIMB_BITS = 256
# libmpdec multiplies long coefficients by a number-theoretic transform;
# under this context a product is exact or raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded])


def _square(x: int) -> int:
    """x * x for x >= 0: the builtin product below _TOOM_CUTOFF bits,
    _square_ntt from _NTT_CUTOFF bits, and Toom-3 squaring (Toom 1963;
    Cook 1966) between: five squares of a third of the size, at 0, 1,
    -1, -2 and infinity, put back together by Bodrato's interpolation
    sequence (WAIFI 2007)."""
    n = x.bit_length()
    if n < _TOOM_CUTOFF:
        return x * x
    if n >= _NTT_CUTOFF:
        return _square_ntt(x)
    k = (n + 2) // 3
    mask = (1 << k) - 1
    a0, a1, a2 = x & mask, (x >> k) & mask, x >> (2 * k)
    p = a0 + a2
    m1 = p - a1
    v0 = _square(a0)
    v1 = _square(p + a1)
    vm1 = _square(abs(m1))
    vm2 = _square(abs(((m1 + a2) << 1) - a0))
    vinf = _square(a2)
    # both divisions are exact
    r3 = (vm2 - v1) // 3
    r1 = (v1 - vm1) >> 1
    r2 = vm1 - v0
    r3 = ((r2 - r3) >> 1) + (vinf << 1)
    r2 += r1 - vinf
    r1 -= r3
    return (((((((vinf << k) + r3) << k) + r2) << k) + r1) << k) + v0


def _square_ntt(x: int) -> int:
    """x * x for x >= 0 by Kronecker substitution into a decimal, squared
    by libmpdec's number-theoretic transform (Schönhage and Strassen
    1971).  x = sum a_i 2^(k i) over nl limbs of k bits becomes
    D = sum a_i 10^(w i), and D^2 = sum c_j 10^(w j) with
    c_j = sum a_i a_(j-i) < nl 2^(2k).  With 10^w above that bound the
    fields of D^2 are the c_j, and x^2 = sum c_j 2^(k j)."""
    k = _LIMB_BITS
    hex_digits = k // 4
    h = format(x, "x")
    nl = -(-len(h) // hex_digits)
    # c_j < nl 2^(2k) <= 2^(3k) fills at most one 3k-bit slot
    if nl >> k:
        raise OverflowError(f"{nl} limbs of {k} bits overflow a {3 * k}-bit slot")
    h = h.zfill(nl * hex_digits)
    w = len(str(nl << (2 * k)))
    d = Decimal("".join([str(int(h[i:i + hex_digits], 16)).zfill(w)
                         for i in range(0, len(h), hex_digits)]))
    # the 2 nl - 1 fields c_(2 nl - 2), ..., c_0
    fields = 2 * nl - 1
    s = format(_EXACT.multiply(d, d), "f").zfill(fields * w)
    slot = 3 * k // 8
    value = 0
    for r in range(3):
        # c_j with j = r mod 3 lie 3k bits apart: their slots do not meet
        top = (fields - 1 - r) % 3 * w
        group = b"".join([int(s[i:i + w]).to_bytes(slot, "big")
                          for i in range(top, len(s), 3 * w)])
        value += int.from_bytes(group, "big") << (k * r)
    return value


def _pow(base: int, exp: int) -> int:
    """base ** exp for base >= 1, exp >= 0.  The power of two in the base
    is taken out as one shift, (2^t u)^e = u^e << t e, and u^e is formed
    by left-to-right binary exponentiation with _square, so its long
    squares are Toom-3 squarings and the longest go through decimal."""
    if exp == 0:
        return 1
    t = (base & -base).bit_length() - 1
    u = base >> t
    value = u
    for bit in bin(exp)[3:]:
        value = _square(value)
        if bit == "1":
            value *= u
    return value << (t * exp)


def bound_main(m: int, n: int, s: int, d: int, c: int = 1) -> int:
    """(2^m * s * n * d)^(c*n*m)."""
    _check_positive(m=m, n=n, s=s, d=d, c=c)
    return _pow((1 << m) * s * n * d, c * n * m)


def bound_main_precise(m: int, n: int, s: int, d: int, c: int = 1) -> int:
    """s^(2*(m+1)*n) * (2^m * n * d)^(c*n*m)."""
    _check_positive(m=m, n=n, s=s, d=d, c=c)
    return _pow(s, 2 * (m + 1) * n) * _pow((1 << m) * n * d, c * n * m)


def bound_lists(m: int, s: int, d: int, c: int = 1) -> int:
    """N^(c*N*m) with N = s * C(m+d, d)."""
    _check_positive(m=m, s=s, d=d, c=c)
    big_n = s * comb(m + d, d)
    return _pow(big_n, c * big_n * m)


def bound_fewnomial(m: int, r: int, c: int = 1) -> int:
    """2^((c*m*r)^4)."""
    _check_positive(m=m, r=r, c=c)
    return 1 << ((c * m * r) ** 4)


def bound_additive(m: int, a: int, c: int = 1) -> int:
    """2^((c*(m+a)*a)^4); a = 0 is allowed and gives 2^0 = 1."""
    _check_positive(m=m, c=c)
    _check_nonnegative(a=a)
    return 1 << ((c * (m + a) * a) ** 4)


def bound_pfaffian(m: int, n: int, s: int, r: int, alpha: int, beta: int,
                   c: int = 1) -> int:
    """s^(c*n*m) * 2^(c*n*(m^2 + n*r^2)) * (n*m*(alpha+beta))^(c*n*(m+r))."""
    _check_positive(m=m, n=n, s=s, alpha=alpha, beta=beta, c=c)
    _check_nonnegative(r=r)
    return (
        _pow(s, c * n * m)
        * (1 << (c * n * (m ** 2 + n * r ** 2)))
        * _pow(n * m * (alpha + beta), c * n * (m + r))
    )


COUNT_SCHEMES = ("pprime_paper", "pprime_impl", "minors_paper", "zsets")


def count_family(s: int, m: int, scheme: str) -> int:
    """Combinatorial counts attached to the perturbed family.

    pprime_paper: 2*s^2 distinct shift magnitudes.
    pprime_impl: 4*s^2 stored members (both signs per shift).
    minors_paper: sum over l = 1..m of C(2*s^2, l) * C(m, l).
    zsets: sum over l = 0..m+1 of C(2*s^2, l).
    Both sums stop at l = 2*s^2, past which C(2*s^2, l) = 0.
    """
    _check_positive(s=s, m=m)
    n = 2 * s ** 2
    if scheme == "pprime_paper":
        return n
    if scheme == "pprime_impl":
        return 2 * n
    if scheme == "minors_paper":
        top = min(m, n)
        return sum(map(mul, _binomials(n, top), _binomials(m, top))) - 1
    if scheme == "zsets":
        return sum(_binomials(n, min(m + 1, n)))
    raise ValueError(f"unknown scheme {scheme!r}")


def _binomials(n, k):
    """C(n, 0), ..., C(n, k), each from the one before."""
    c = 1
    yield c
    for ell in range(1, k + 1):
        c = c * (n - ell + 1) // ell
        yield c


@dataclass(frozen=True)
class MetricRadiusReport:
    value: int
    warning: str = ""
    statement: str = (
        "any two radii above this value give homotopy-equivalent "
        "intersections of the variety with the closed balls"
    )


def metric_radius(M: int, d: int, m: int, c: int = 1) -> MetricRadiusReport:
    """M^(d^(c*m)), with a warning below the intended range M, d >= 2."""
    _check_positive(M=M, d=d, m=m, c=c)
    warning = ""
    if M < 2 or d < 2:
        warning = "formula degenerates for M < 2 or d < 2; value is exact anyway"
    return MetricRadiusReport(_pow(M, d ** (c * m)), warning)


BOUNDS = {
    "main": BoundExpr("main", "(2^m s n d)^(c n m)", ("m", "n", "s", "d", "c")),
    "main_precise": BoundExpr(
        "main_precise", "s^(2(m+1)n) (2^m n d)^(c n m)", ("m", "n", "s", "d", "c")
    ),
    "lists": BoundExpr(
        "lists", "N^(c N m), N = s C(m+d, d)", ("m", "s", "d", "c")
    ),
    "fewnomial": BoundExpr("fewnomial", "2^((c m r)^4)", ("m", "r", "c")),
    "additive": BoundExpr("additive", "2^((c (m+a) a)^4)", ("m", "a", "c")),
    "pfaffian": BoundExpr(
        "pfaffian",
        "s^(c n m) 2^(c n (m^2 + n r^2)) (n m (alpha+beta))^(c n (m+r))",
        ("m", "n", "s", "r", "alpha", "beta", "c"),
    ),
    "metric": BoundExpr("metric", "M^(d^(c m))", ("M", "d", "m", "c")),
}

_EVALUATORS = {
    "main": bound_main,
    "main_precise": bound_main_precise,
    "lists": bound_lists,
    "fewnomial": bound_fewnomial,
    "additive": bound_additive,
    "pfaffian": bound_pfaffian,
}


def evaluate_bound(name: str, **params) -> int:
    """Evaluate a named bound; metric returns the report's value."""
    if name == "metric":
        return metric_radius(**params).value
    fn = _EVALUATORS.get(name)
    if fn is None:
        raise ValueError(f"unknown bound {name!r}")
    return fn(**params)


# -- exponent forms: the bounds as products of powers, never evaluated ---

# Bases and exponents of an exponent form stop at _CAP: a bit count past
# 2^64 fits in no memory, so nothing is lost.
_CAP = 1 << 64


def _form_main(m, n, s, d, c=1):
    return [(2, m * c * n * m), (s * n * d, c * n * m)]


def _form_main_precise(m, n, s, d, c=1):
    return [(s, 2 * (m + 1) * n), (2, m * c * n * m), (n * d, c * n * m)]


def _form_lists(m, s, d, c=1):
    # C(m+d, d) >= 2^min(m, d), so a larger min(m, d) passes _CAP
    big_n = _CAP if min(m, d) > 64 else min(s * comb(m + d, d), _CAP)
    return [(big_n, c * big_n * m)]


def _form_fewnomial(m, r, c=1):
    return [(2, (c * m * r) ** 4)]


def _form_additive(m, a, c=1):
    return [(2, (c * (m + a) * a) ** 4)]


def _form_pfaffian(m, n, s, r, alpha, beta, c=1):
    return [(s, c * n * m), (2, c * n * (m ** 2 + n * r ** 2)),
            (n * m * (alpha + beta), c * n * (m + r))]


def _form_metric(M, d, m, c=1):
    return [(M, _CAP if d >= 2 and c * m > 64 else min(d ** (c * m), _CAP))]


def _form_count(s, m, scheme):
    # one term of each sum, with C(n, k) >= (n // k)^k; k at most half
    # of n keeps every base at least 2
    n = 2 * s ** 2
    if scheme == "pprime_paper":
        return [(n, 1)]
    if scheme == "pprime_impl":
        return [(2 * n, 1)]
    if scheme == "minors_paper":
        k = max(1, min(m, n) // 2)
        return [(n // k, k), (m // k, k)]
    if scheme == "zsets":
        k = min(m + 1, n) // 2
        return [(n // k, k)]
    raise ValueError(f"unknown scheme {scheme!r}")


_FORMS = {
    "main": _form_main,
    "main_precise": _form_main_precise,
    "lists": _form_lists,
    "fewnomial": _form_fewnomial,
    "additive": _form_additive,
    "pfaffian": _form_pfaffian,
    "metric": _form_metric,
    "count": _form_count,
}


def bit_length_floor(name: str, **params):
    """(bits, exact): the named bound's value, or count_family's for
    "count", has at least `bits` bits, and exactly that many when `exact`.
    Read from the exponent form prod base^e as 1 + sum (bit_length(base)
    - 1) * e, without forming a power; for "count" the form is a lower
    bound on one term of the sum.  Parameters must be integers >= 1, a
    and r integers >= 0, and scheme a string; the evaluators check the
    rest.  A base or exponent that reaches _CAP counts as _CAP, so the
    work stays small for any parameters, and the count is then not
    exact."""
    form = _FORMS.get(name)
    if form is None:
        raise ValueError(f"unknown bound {name!r}")
    signature(form).bind(**params)  # TypeError naming a missing or unknown one
    ints = {k: v for k, v in params.items() if k != "scheme"}
    _check_nonnegative(**ints)
    _check_positive(**{k: v for k, v in ints.items() if k not in ("a", "r")})
    powers = form(**params)
    bits = 1 + sum((b.bit_length() - 1) * e for b, e in powers)
    exact = name != "count" and all(
        b & (b - 1) == 0 and _CAP not in (b, e) for b, e in powers)
    return bits, exact
