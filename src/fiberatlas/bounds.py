"""Exact big-integer evaluation of the explicit bound formulas.

Every asymptotic bound carries an unspecified constant; it is exposed as
the parameter c (default 1) and always displayed with results rather
than silently fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb


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


def bound_main(m: int, n: int, s: int, d: int, c: int = 1) -> int:
    """(2^m * s * n * d)^(c*n*m)."""
    _check_positive(m=m, n=n, s=s, d=d, c=c)
    return ((1 << m) * s * n * d) ** (c * n * m)


def bound_main_precise(m: int, n: int, s: int, d: int, c: int = 1) -> int:
    """s^(2*(m+1)*n) * (2^m * n * d)^(c*n*m)."""
    _check_positive(m=m, n=n, s=s, d=d, c=c)
    return s ** (2 * (m + 1) * n) * ((1 << m) * n * d) ** (c * n * m)


def bound_lists(m: int, s: int, d: int, c: int = 1) -> int:
    """N^(c*N*m) with N = s * C(m+d, d)."""
    _check_positive(m=m, s=s, d=d, c=c)
    big_n = s * comb(m + d, d)
    return big_n ** (c * big_n * m)


def bound_fewnomial(m: int, r: int, c: int = 1) -> int:
    """2^((c*m*r)^4)."""
    _check_positive(m=m, r=r, c=c)
    return 1 << ((c * m * r) ** 4)


def bound_additive(m: int, a: int, c: int = 1) -> int:
    """2^((c*(m+a)*a)^4); a = 0 is allowed and gives 2^0 = 1."""
    _check_positive(m=m, c=c)
    if not isinstance(a, int):
        raise TypeError("a must be an integer")
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    return 1 << ((c * (m + a) * a) ** 4)


def bound_pfaffian(m: int, n: int, s: int, r: int, alpha: int, beta: int,
                   c: int = 1) -> int:
    """s^(c*n*m) * 2^(c*n*(m^2 + n*r^2)) * (n*m*(alpha+beta))^(c*n*(m+r))."""
    _check_positive(m=m, n=n, s=s, alpha=alpha, beta=beta, c=c)
    if not isinstance(r, int):
        raise TypeError("r must be an integer")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    return (
        s ** (c * n * m)
        * (1 << (c * n * (m ** 2 + n * r ** 2)))
        * (n * m * (alpha + beta)) ** (c * n * (m + r))
    )


COUNT_SCHEMES = ("pprime_paper", "pprime_impl", "minors_paper", "zsets")


def count_family(s: int, m: int, scheme: str) -> int:
    """Combinatorial counts attached to the perturbed family.

    pprime_paper: 2*s^2 distinct shift magnitudes.
    pprime_impl: 4*s^2 stored members (both signs per shift).
    minors_paper: sum over l of C(2*s^2, l) * C(m, l).
    zsets: sum over l = 0..m+1 of C(2*s^2, l).
    """
    _check_positive(s=s, m=m)
    if scheme == "pprime_paper":
        return 2 * s ** 2
    if scheme == "pprime_impl":
        return 4 * s ** 2
    if scheme == "minors_paper":
        return sum(
            comb(2 * s ** 2, ell) * comb(m, ell)
            for ell in range(1, m + 1)
        )
    if scheme == "zsets":
        return sum(comb(2 * s ** 2, ell) for ell in range(m + 2))
    raise ValueError(f"unknown scheme {scheme!r}")


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
    return MetricRadiusReport(M ** (d ** (c * m)), warning)


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
