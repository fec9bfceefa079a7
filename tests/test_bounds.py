"""Exact bound evaluation and monotonicity."""
import decimal
import random
import sys
import time
from inspect import signature
from math import comb, log2

import pytest

from fiberatlas import bounds
from fiberatlas.bounds import (
    _LIMB_BITS,
    _NTT_CUTOFF,
    _TOOM_CUTOFF,
    BOUNDS,
    COUNT_SCHEMES,
    bound_additive,
    bound_fewnomial,
    bound_lists,
    bound_main,
    bound_main_precise,
    bound_pfaffian,
    bit_length_floor,
    count_family,
    evaluate_bound,
    metric_radius,
    _pow,
    _square,
    _square_ntt,
)


def test_worked_examples():
    assert bound_main(2, 1, 1, 2, 1) == 64
    assert bound_main_precise(1, 1, 2, 2, 1) == 2 ** 4 * 4 ** 1
    assert bound_lists(1, 1, 1, 1) == 2 ** 2
    assert bound_fewnomial(1, 1, 1) == 2
    assert bound_additive(1, 1, 1) == 65536
    assert bound_additive(3, 0) == 1
    assert bound_pfaffian(1, 1, 1, 1, 1, 1, 1) == 16
    assert metric_radius(2, 2, 2, 1).value == 16
    assert metric_radius(2, 2, 1, 1).value == 4
    assert metric_radius(3, 2, 1, 1).value == 9


def test_square_equals_builtin():
    """Toom-3 squaring from just below its cutoff to three recursion
    levels above it."""
    cut = _TOOM_CUTOFF
    values = [0, 1]
    for k in (cut - 1, cut, 3 * cut + 1, 27 * cut + 5):
        values += [1 << k, (1 << k) - 1]
    rng = random.Random(16)
    for bits in (cut - 1, cut, cut + 1, 3 * cut + 2, 9 * cut + 7, 28 * cut):
        values += [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(2)]
    # x = a2 B^2 + a1 B + a0 with B = 2^k, a2 = 2^(k-3), a1 = B - 1 and
    # a0 < 2^(k-4) has 3k - 2 bits, so it splits at k, and x(-1) and
    # x(-2) are negative
    for k in (cut, 3 * cut, 9 * cut):
        low = rng.getrandbits(k - 4)
        values += [(1 << (3 * k - 3)) | ((1 << k) - 1) << k | low]
    for x in values:
        assert _square(x) == x * x


def test_square_ntt_equals_builtin():
    """The packed squaring on short inputs: 0 and 1, all-ones values
    (the largest coefficients), sparse values and zero limbs (leading
    zero fields), and lengths one bit either side of a limb multiple."""
    k = _LIMB_BITS
    values = [0, 1, 2, 3]
    for n in (1, 2, k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1, 37 * k + 5):
        values += [(1 << n) - 1, (1 << n) + 1, 1 << n]
    # a zero limb between two nonzero ones, and zero low limbs
    values += [(1 << (5 * k)) + 1, ((1 << k) - 1) << (3 * k), (3 << (4 * k)) | (1 << k)]
    rng = random.Random(18)
    for n in (k - 1, k, k + 1, 3 * k - 1, 3 * k, 3 * k + 1, 100 * k + 17):
        values += [rng.getrandbits(n) | 1 << (n - 1) for _ in range(2)]
    for x in values:
        assert _square_ntt(x) == x * x, x


def test_square_ntt_slots_hold_their_bound(monkeypatch):
    """With 8-bit limbs a 24-bit slot holds c_j < nl 2^16 for up to 255
    limbs: all-ones values come within 2^20 of it, and 256 limbs are
    refused rather than summed into overlapping slots."""
    monkeypatch.setattr(bounds, "_LIMB_BITS", 8)
    rng = random.Random(8)
    top = 255 * 8
    values = [(1 << top) - 1, rng.getrandbits(top)]
    for n in (1, 7, 8, 9, 100, top - 1):
        values += [(1 << n) - 1, (1 << n) + 1, rng.getrandbits(n)]
    for x in values:
        assert _square_ntt(x) == x * x, x
    with pytest.raises(OverflowError):
        _square_ntt(1 << top)


def test_square_on_both_sides_of_the_ntt_cutoff(monkeypatch):
    """Below the cutoff _square never packs; from it, it packs once, and
    the caller's decimal context and a 640-digit int-string limit (the
    lowest Python accepts) are untouched and do not matter."""
    calls = []

    def counted(x):
        calls.append(x.bit_length())
        return _square_ntt(x)

    monkeypatch.setattr(bounds, "_square_ntt", counted)
    rng = random.Random(21)
    below, above = (rng.getrandbits(n) | 1 << (n - 1) for n in (_NTT_CUTOFF - 1, _NTT_CUTOFF))
    assert _square(below) == below * below
    assert calls == []
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = 5, 10
            ctx.traps[decimal.Inexact] = True
            ctx.clear_flags()
            traps = dict(ctx.traps)
            square = _square(above)
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.Emax) == (5, 10)
            assert dict(ctx.traps) == traps
            assert not any(ctx.flags.values())
    finally:
        sys.set_int_max_str_digits(limit)
    assert calls == [_NTT_CUTOFF]
    assert square == above * above


def test_square_ntt_raises_instead_of_rounding(monkeypatch):
    """A product longer than the context's precision raises Inexact or
    Rounded rather than returning a rounded value."""
    short = bounds._EXACT.copy()
    short.prec = 50
    monkeypatch.setattr(bounds, "_EXACT", short)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        _square_ntt((1 << (4 * _LIMB_BITS)) - 1)


def test_pow_equals_builtin():
    """Results on both sides of the cutoff, for odd bases, powers of two
    and bases with both parts."""
    for base in (1, 2, 3, 5, 35, 560):
        # base ** near has about _TOOM_CUTOFF bits
        near = int(_TOOM_CUTOFF / log2(base)) if base > 1 else _TOOM_CUTOFF
        for exp in (0, 1, 2, 3, 100, near - 1, near, near + 1, 3 * near + 1, 20 * near + 3):
            assert _pow(base, exp) == base ** exp, (base, exp)


# Each evaluator's docstring formula, by the builtin **.
FORMULAS = {
    bound_main: lambda m, n, s, d, c=1: (2 ** m * s * n * d) ** (c * n * m),
    bound_main_precise: lambda m, n, s, d, c=1: (
        s ** (2 * (m + 1) * n) * (2 ** m * n * d) ** (c * n * m)),
    bound_lists: lambda m, s, d, c=1: (
        (s * comb(m + d, d)) ** (c * s * comb(m + d, d) * m)),
    bound_fewnomial: lambda m, r, c=1: 2 ** ((c * m * r) ** 4),
    bound_additive: lambda m, a, c=1: 2 ** ((c * (m + a) * a) ** 4),
    bound_pfaffian: lambda m, n, s, r, alpha, beta, c=1: (
        s ** (c * n * m) * 2 ** (c * n * (m ** 2 + n * r ** 2))
        * (n * m * (alpha + beta)) ** (c * n * (m + r))),
    metric_radius: lambda M, d, m, c=1: M ** (d ** (c * m)),
}


def test_evaluators_equal_their_formulas_past_the_cutoff():
    """Each evaluator against its docstring formula with the builtin **:
    at values longer than the Toom-3 cutoff, and on a seeded sweep of
    small parameters, additive's a and pfaffian's r from 0."""
    past = (
        (bound_main, (3, 2, 5, 7, 600)),
        (bound_main_precise, (2, 3, 7, 5, 1000)),
        (bound_lists, (2, 3, 4, 50)),
        (bound_fewnomial, (2, 3, 4)),
        (bound_additive, (2, 3, 2)),
        (bound_pfaffian, (2, 2, 3, 1, 2, 3, 1000)),
        (metric_radius, (3, 2, 15)),
    )
    for fn, args in past:
        value = fn(*args)
        value = getattr(value, "value", value)
        assert value == FORMULAS[fn](*args), fn.__name__
        assert value.bit_length() > _TOOM_CUTOFF, fn.__name__
    rng = random.Random(20)
    for _ in range(700):
        fn = rng.choice(list(FORMULAS))
        zero = {bound_additive: "a", bound_pfaffian: "r"}.get(fn)
        params = {k: rng.randint(0 if k == zero else 1, 3)
                  for k in signature(fn).parameters}
        value = fn(**params)
        value = getattr(value, "value", value)
        assert value == FORMULAS[fn](**params), (fn.__name__, params)


def test_evaluators_refuse_values_of_two_to_the_64_bits():
    """A value of 2^64 bits or more is refused from its exponent form
    before any power is formed, and so is one of bounds.MAX_BITS = 2^32
    bits or more, which no memory here holds (bound_lists(20, 1, 20) has
    about 1.0e14 bits); 1^(2^65) is still 1."""
    start = time.process_time()
    for fn, args in ((bound_lists, (65, 1, 65)), (metric_radius, (2, 2, 65)),
                     (bound_fewnomial, (1, 1 << 16)), (bound_lists, (20, 1, 20))):
        with pytest.raises(OverflowError):
            fn(*args)
    assert metric_radius(1, 2, 65).value == 1
    assert time.process_time() - start < 1


def test_pfaffian_r_zero_collapses_middle_factor():
    m, n, s = 2, 1, 3
    value = bound_pfaffian(m, n, s, 0, 2, 3)
    assert value == s ** (n * m) * 2 ** (n * m * m) * (n * m * 5) ** (n * m)


def test_count_family_schemes():
    assert count_family(2, 1, "pprime_paper") == 8
    assert count_family(2, 1, "pprime_impl") == 16
    assert count_family(1, 1, "minors_paper") == 2
    assert count_family(1, 1, "zsets") == 4
    with pytest.raises(ValueError):
        count_family(1, 1, "nope")
    assert set(COUNT_SCHEMES) == {
        "pprime_paper", "pprime_impl", "minors_paper", "zsets"}


def test_count_family_sums_stop_at_two_s_squared():
    """Equal to the sums over every l up to m, and cheap for a large m:
    C(2 s^2, l) is 0 past l = 2 s^2."""
    for s in (1, 2, 3):
        n = 2 * s ** 2
        for m in range(1, 25):
            assert count_family(s, m, "minors_paper") == sum(
                comb(n, ell) * comb(m, ell) for ell in range(1, m + 1))
            assert count_family(s, m, "zsets") == sum(
                comb(n, ell) for ell in range(m + 2))
    start = time.process_time()
    assert count_family(1, 10 ** 8, "zsets") == 4
    assert count_family(1, 10 ** 8, "minors_paper") == 2 * 10 ** 8 + comb(10 ** 8, 2)
    assert time.process_time() - start < 1


def test_bit_length_floor_of_count():
    for s in (1, 2, 3, 5):
        for m in (1, 2, 3, 7, 40, 200):
            for scheme in COUNT_SCHEMES:
                bits = count_family(s, m, scheme).bit_length()
                floor, exact = bit_length_floor("count", s=s, m=m, scheme=scheme)
                assert floor <= bits and not exact
    start = time.process_time()
    bits, _ = bit_length_floor("count", s=1000, m=100000, scheme="minors_paper")
    assert bits > 100000 and time.process_time() - start < 1
    with pytest.raises(ValueError):
        bit_length_floor("count", s=1, m=1, scheme="nope")
    with pytest.raises(TypeError):
        bit_length_floor("count", s=1, m=1, c=1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        bound_main(0, 1, 1, 1)
    with pytest.raises(ValueError):
        bound_additive(1, -1)
    with pytest.raises(TypeError):
        bound_main(1.5, 1, 1, 1)
    with pytest.raises(ValueError):
        bound_pfaffian(1, 1, 1, -1, 1, 1)
    # r is a number of monomials in fewnomial, a chain length in pfaffian
    with pytest.raises(ValueError, match="r must be >= 1"):
        bound_fewnomial(1, 0)
    with pytest.raises(ValueError, match="r must be >= 1"):
        bit_length_floor("fewnomial", m=1, r=0)


def test_metric_radius_warns_below_intended_range():
    rep = metric_radius(1, 2, 1)
    assert rep.warning
    assert rep.value == 1
    assert not metric_radius(2, 2, 1).warning
    assert "homotopy-equivalent" in rep.statement


def test_evaluate_bound_dispatch():
    assert evaluate_bound("main", m=2, n=1, s=1, d=2, c=1) == 64
    assert evaluate_bound("metric", M=2, d=2, m=2, c=1) == 16
    with pytest.raises(ValueError):
        evaluate_bound("nope")
    assert set(BOUNDS) >= {"main", "main_precise", "lists", "fewnomial",
                           "additive", "pfaffian", "metric"}


def _random_params(rng, names):
    return {k: rng.randint(1, 4) for k in names}


def test_monotone_in_every_parameter():
    rng = random.Random(99)
    cases = (
        (bound_main, ("m", "n", "s", "d", "c")),
        (bound_main_precise, ("m", "n", "s", "d", "c")),
        (bound_lists, ("m", "s", "d", "c")),
        (bound_fewnomial, ("m", "r", "c")),
        (bound_additive, ("m", "a", "c")),
        (bound_pfaffian, ("m", "n", "s", "r", "alpha", "beta", "c")),
    )
    for _ in range(40):
        fn, names = cases[rng.randrange(len(cases))]
        params = _random_params(rng, names)
        value = fn(**params)
        assert value >= 1
        for k in names:
            bumped = dict(params)
            bumped[k] += 1
            assert fn(**bumped) >= value


def test_reevaluation_is_identical():
    for _ in range(3):
        assert bound_lists(3, 2, 2, 2) == bound_lists(3, 2, 2, 2)


def test_bit_length_floor_against_the_value():
    rng = random.Random(3)
    for name, bound in BOUNDS.items():
        for _ in range(25):
            params = {k: rng.randint(1, 3)
                      for k in signature(bound.form).parameters}
            if name in ("additive", "pfaffian"):  # a and r may be 0
                params["a" if name == "additive" else "r"] = rng.randint(0, 3)
            bits = evaluate_bound(name, **params).bit_length()
            floor, exact = bit_length_floor(name, **params)
            assert floor <= bits
            assert floor == bits or not exact
    assert bit_length_floor("fewnomial", m=3, r=3, c=2) == (104977, True)
    assert bit_length_floor("main", m=2, n=1, s=1, d=2, c=1) == (7, True)


def test_bit_length_floor_never_forms_the_power():
    # M^(d^(c m)) with d^(c m) = 5^25 exactly, and with d^(c m) capped
    assert bit_length_floor("metric", M=5, d=5, m=5, c=5) == (2 * 5 ** 25 + 1, False)
    bits, exact = bit_length_floor("metric", M=2, d=10 ** 6, m=10 ** 6)
    assert bits > 2 ** 64 and not exact
    bits, exact = bit_length_floor("lists", m=10 ** 9, s=1, d=10 ** 9)
    assert bits > 2 ** 64 and not exact
    assert bit_length_floor("metric", M=1, d=10 ** 6, m=10 ** 6)[0] == 1
    with pytest.raises(ValueError):
        bit_length_floor("main", m=0, n=1, s=1, d=1)
    with pytest.raises(ValueError):
        bit_length_floor("pfaffian", m=1, n=1, s=1, r=-1, alpha=1, beta=1)
    with pytest.raises(ValueError):
        bit_length_floor("nope")
