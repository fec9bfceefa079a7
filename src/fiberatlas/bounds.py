"""Exact big-integer evaluation of the explicit bound formulas.

Every asymptotic bound carries an unspecified constant; it is exposed as
the parameter c (default 1) and always displayed with results rather
than silently fixed.  Each bound is written once, as its exponent form:
the value, the lower bound on its bit length and the parameter list
are all read from it.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from functools import wraps
from inspect import signature
from math import comb
from operator import mul


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
    """base ** exp for base >= 1, exp >= 0, by left-to-right binary
    exponentiation with _square, so its long squares are Toom-3
    squarings and the longest go through decimal."""
    if exp == 0:
        return 1
    value = base
    for bit in bin(exp)[3:]:
        value = _square(value)
        if bit == "1":
            value *= base
    return value


# -- the bounds, each written once as its exponent form --------------------

# Bases and exponents of an exponent form stop at _CAP, where the form
# stops being exact.
_CAP = 1 << 64
# An evaluator refuses a value of MAX_BITS bits or more (512 MiB for the
# value alone, and its last square needs several times that), so no
# documented call runs out of memory before it raises.
MAX_BITS = 1 << 32


def _check(params, zero=()):
    """Each parameter an integer >= 1, or >= 0 when named in zero."""
    for name, value in params.items():
        if not isinstance(value, int):
            raise TypeError(f"{name} must be an integer")
        low = 0 if name in zero else 1
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _bits(powers):
    """1 + sum (bit_length(base) - 1) * e over the powers base^e: at most
    the bit length of their product, and equal to it for powers of two."""
    return 1 + sum((b.bit_length() - 1) * e for b, e in powers)


@dataclass(frozen=True)
class Bound:
    """A named bound: its display string, its exponent form (a function
    of the parameters giving [(base, exponent), ...], whose product is
    the value), the public evaluator of that form and the parameters
    that may be 0."""
    symbolic: str
    form: Callable
    evaluate: Callable
    zero: tuple


BOUNDS = {}


def _bound(name, symbolic, zero=(), report=None):
    """Register the decorated exponent form as BOUNDS[name] and return
    its evaluator, which has the form's name, parameters and docstring.
    The evaluator checks the parameters (integers >= 1, or >= 0 when
    named in zero), refuses a value of MAX_BITS bits or more with
    OverflowError before forming any power, and forms the product of
    the odd parts of the bases, each raised by _pow, shifted once by all
    their powers of two.  With `report` it returns
    report(value, **params)."""
    def register(form):
        sig = signature(form)

        @wraps(form)
        def evaluate(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            params = call.arguments
            _check(params, zero)
            powers = form(**params)
            bits = _bits(powers)
            if bits >= MAX_BITS:
                raise OverflowError(f"{name}: value has at least {bits} bits, "
                                    f"the limit is {MAX_BITS}")
            value, shift = 1, 0
            for base, exp in powers:
                t = (base & -base).bit_length() - 1
                value *= _pow(base >> t, exp)
                shift += t * exp
            value <<= shift
            return report(value, **params) if report else value

        BOUNDS[name] = Bound(symbolic, form, evaluate, zero)
        return evaluate
    return register


@_bound("main", "(2^m s n d)^(c n m)")
def bound_main(m: int, n: int, s: int, d: int, c: int = 1):
    """(2^m * s * n * d)^(c*n*m)."""
    return [(2, m * c * n * m), (s * n * d, c * n * m)]


@_bound("main_precise", "s^(2(m+1)n) (2^m n d)^(c n m)")
def bound_main_precise(m: int, n: int, s: int, d: int, c: int = 1):
    """s^(2*(m+1)*n) * (2^m * n * d)^(c*n*m)."""
    return [(s, 2 * (m + 1) * n), (2, m * c * n * m), (n * d, c * n * m)]


@_bound("lists", "N^(c N m), N = s C(m+d, d)")
def bound_lists(m: int, s: int, d: int, c: int = 1):
    """N^(c*N*m) with N = s * C(m+d, d)."""
    # C(m+d, d) >= 2^min(m, d), so a larger min(m, d) passes _CAP
    big_n = _CAP if min(m, d) > 64 else min(s * comb(m + d, d), _CAP)
    return [(big_n, c * big_n * m)]


@_bound("fewnomial", "2^((c m r)^4)")
def bound_fewnomial(m: int, r: int, c: int = 1):
    """2^((c*m*r)^4)."""
    return [(2, (c * m * r) ** 4)]


@_bound("additive", "2^((c (m+a) a)^4)", ("a",))
def bound_additive(m: int, a: int, c: int = 1):
    """2^((c*(m+a)*a)^4); a = 0 is allowed and gives 2^0 = 1."""
    return [(2, (c * (m + a) * a) ** 4)]


@_bound("pfaffian",
        "s^(c n m) 2^(c n (m^2 + n r^2)) (n m (alpha+beta))^(c n (m+r))",
        ("r",))
def bound_pfaffian(m: int, n: int, s: int, r: int, alpha: int, beta: int,
                   c: int = 1):
    """s^(c*n*m) * 2^(c*n*(m^2 + n*r^2)) * (n*m*(alpha+beta))^(c*n*(m+r))."""
    return [(s, c * n * m), (2, c * n * (m ** 2 + n * r ** 2)),
            (n * m * (alpha + beta), c * n * (m + r))]


@dataclass(frozen=True)
class MetricRadiusReport:
    value: int
    warning: str = ""
    statement: str = (
        "any two radii above this value give homotopy-equivalent "
        "intersections of the variety with the closed balls"
    )


def _radius_report(value, M, d, **_):
    warning = ""
    if M < 2 or d < 2:
        warning = "formula degenerates for M < 2 or d < 2; value is exact anyway"
    return MetricRadiusReport(value, warning)


@_bound("metric", "M^(d^(c m))", report=_radius_report)
def metric_radius(M: int, d: int, m: int, c: int = 1):
    """M^(d^(c*m)) as a MetricRadiusReport, with a warning below the
    intended range M, d >= 2."""
    return [(M, _CAP if d >= 2 and c * m > 64 else min(d ** (c * m), _CAP))]


def evaluate_bound(name: str, **params) -> int:
    """Evaluate a named bound; metric returns the report's value."""
    bound = BOUNDS.get(name)
    if bound is None:
        raise ValueError(f"unknown bound {name!r}")
    value = bound.evaluate(**params)
    return value.value if isinstance(value, MetricRadiusReport) else value


COUNT_SCHEMES = ("pprime_paper", "pprime_impl", "minors_paper", "zsets")


def count_family(s: int, m: int, scheme: str) -> int:
    """Combinatorial counts attached to the perturbed family.

    pprime_paper: 2*s^2 distinct shift magnitudes.
    pprime_impl: 4*s^2 stored members (both signs per shift).
    minors_paper: sum over l = 1..m of C(2*s^2, l) * C(m, l).
    zsets: sum over l = 0..m+1 of C(2*s^2, l).
    Both sums stop at l = 2*s^2, past which C(2*s^2, l) = 0.
    """
    _check({"s": s, "m": m})
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


def bit_length_floor(name: str, **params):
    """(bits, exact): the named bound's value, or count_family's for
    "count", has at least `bits` bits, and exactly that many when `exact`.
    Read from the bound's exponent form by _bits, without forming a
    power; for "count" the form is a lower bound on one term of the sum.
    Parameters are checked as the evaluators check them, and scheme must
    be a string; count_family checks the rest.  A base or exponent that
    reaches _CAP counts as _CAP, so the work stays small for any
    parameters, and the count is then not exact."""
    if name == "count":
        form, zero = _form_count, ()
    elif name in BOUNDS:
        form, zero = BOUNDS[name].form, BOUNDS[name].zero
    else:
        raise ValueError(f"unknown bound {name!r}")
    signature(form).bind(**params)  # TypeError naming a missing or unknown one
    _check({k: v for k, v in params.items() if k != "scheme"}, zero)
    powers = form(**params)
    exact = name != "count" and all(
        b & (b - 1) == 0 and _CAP not in (b, e) for b, e in powers)
    return _bits(powers), exact
