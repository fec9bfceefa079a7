"""Exact big-integer evaluation of the explicit bound formulas.

Every asymptotic bound carries an unspecified constant; it is exposed as
the parameter c (default 1) and always displayed with results rather
than silently fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
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
# to 2^19, 2^14 squared 5^(2^22) fastest (CPython 3.11, x86-64).
_TOOM_CUTOFF = 1 << 14


def _square(x: int) -> int:
    """x * x for x >= 0 by Toom-3 squaring (Toom 1963; Cook 1966): five
    squares of a third of the size, at 0, 1, -1, -2 and infinity, put
    back together by Bodrato's interpolation sequence (WAIFI 2007)."""
    n = x.bit_length()
    if n < _TOOM_CUTOFF:
        return x * x
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


def _pow(base: int, exp: int) -> int:
    """base ** exp for base >= 1, exp >= 0.  The power of two in the base
    is taken out as one shift, (2^t u)^e = u^e << t e, and u^e is formed
    by left-to-right binary exponentiation with _square."""
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
