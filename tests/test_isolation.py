"""Exact isolating intervals against a golden corpus.

tests/golden/isolation.json holds a seeded corpus of square-free integer
coefficient lists, each with the intervals `isolate_int_roots` gives it,
and groups of such lists with the intervals `isolate_basis_roots` gives
the group, every end as "p/q" text.  The corpus has linear factors,
rational roots with odd denominators, roots at 0, roots 2^-k apart down
to k = 40 (rational and irrational), dense random polynomials, and
groups whose members share roots.  The intervals were written by the
isolation that kept its ends as Fractions; the same bisections must
give the same ends.  Regenerate the file with

    PYTHONPATH=src python tests/test_isolation.py

Beside the golden corpus, a reference written here, a Descartes
bisection of all of (-b, b) that makes both halves of every node from p
itself, must give the same intervals on 1000 seeded polynomials and 200
groups, and on 200 whose roots lie far inside b, where isolate_int_roots
starts each side of 0 at its own root bound; multiple real roots must
be refused fast, and a group must take one gcd per pair of members.
The degree-20 discriminants of the golden sextic pin the number of
Taylor shifts that start saves.
"""
import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from test_eliminate import SEXTIC, P, R, _systems_of

from fiberatlas import polycore
from fiberatlas.eliminate import assemble_G
from fiberatlas.polycore import (
    NotSquareFreeError,
    isolate_basis_roots,
    isolate_int_roots,
    ugcd_int,
    usquarefree_int,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "isolation.json"


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(factors):
    p = [1]
    for f in factors:
        p = _mul(p, f)
    g = gcd(*p)
    return [c // g for c in p]


def _linear(n, d):
    """d*x - n: the root n/d."""
    return [-n, d]


def _pool(rng):
    """Pairwise coprime square-free factors: distinct rational roots
    (0, odd denominators, and 2^-k beside 1/3), and x^2 - n for distinct
    non-squares n with their 2^-k neighbours."""
    roots = {(0, 1), (1, 3), (-1, 3), (2, 1), (-5, 7), (7, 9)}
    while len(roots) < 14:
        n, d = rng.randint(-30, 30), rng.randint(1, 9)
        g = gcd(n, d)
        roots.add((n // g, d // g))
    pool = [_linear(n, d) for n, d in sorted(roots)]
    for k in (6, 20, 40):  # 1/3 + 2^-k = (2^k + 3) / (3 * 2^k)
        pool.append(_linear(2 ** k + 3, 3 * 2 ** k))
    for n in (2, 3, 5):
        pool.append([-n, 0, 1])
    for k in (10, 40):  # x^2 - 2 - 2^-k
        pool.append([-(2 ** (k + 1)) - 1, 0, 2 ** k])
    return pool


def corpus():
    """(singles, groups): square-free integer lists, and lists of them."""
    rng = random.Random(2004)
    singles = []
    for _ in range(20):  # linear factors
        n, d = rng.randint(-12, 12), rng.randint(1, 12)
        g = gcd(n, d)
        singles.append(_linear(n // g, d // g))
    pool = _pool(rng)
    for _ in range(60):  # products of distinct pool factors
        singles.append(_product(rng.sample(pool, rng.randint(2, 5))))
    for k in (1, 2, 3, 5, 8, 13, 20, 27, 33, 40):  # delta-close pairs
        n, d = rng.randint(-9, 9), rng.choice((1, 3, 5, 7))
        g = gcd(n, d)
        n, d = n // g, d // g
        # n/d and n/d + 2^-k = (2^k n + d) / (2^k d)
        singles.append(_product([_linear(n, d), _linear(2 ** k * n + d, 2 ** k * d)]))
        # sqrt(2) and sqrt(2 + 2^-k), with their negatives
        singles.append(_product([[-2, 0, 1], [-(2 ** (k + 1)) - 1, 0, 2 ** k]]))
        # a cluster of three: 1/3 - 2^-k, 1/3, 1/3 + 2^-k
        singles.append(_product([_linear(2 ** k - 3, 3 * 2 ** k), _linear(1, 3),
                                 _linear(2 ** k + 3, 3 * 2 ** k)]))
    while len(singles) < 170:  # dense random polynomials, square-freed
        p = [rng.randint(-20, 20) for _ in range(rng.randint(3, 9))]
        if rng.random() < 0.3:
            p[0] = 0  # a root at 0
        p = usquarefree_int(p)
        if len(p) > 1:
            singles.append(p)
    groups = []
    for _ in range(30):  # members share pool factors, hence roots
        groups.append([_product(rng.sample(pool, rng.randint(1, 4)))
                       for _ in range(rng.randint(2, 5))])
    return singles, groups


def _text(x):
    n, d = x
    return f"{n}/{d}"


def _write_golden():
    singles, groups = corpus()
    payload = {
        "singles": [{"poly": p, "intervals": [[_text(lo), _text(hi)]
                                              for lo, hi in isolate_int_roots(p)]}
                    for p in singles],
        "groups": [{"polys": ps, "roots": [[_text(lo), _text(hi), k]
                                           for lo, hi, k in isolate_basis_roots(ps)]}
                   for ps in groups],
    }
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    _write_golden()


def test_isolate_int_roots_matches_golden():
    cases = json.loads(GOLDEN.read_text())["singles"]
    assert len(cases) == 170
    for case in cases:
        got = [[_text(lo), _text(hi)] for lo, hi in isolate_int_roots(case["poly"])]
        assert got == case["intervals"], case["poly"]


def test_isolate_basis_roots_matches_golden():
    cases = json.loads(GOLDEN.read_text())["groups"]
    assert len(cases) == 30
    for case in cases:
        got = [[_text(lo), _text(hi), k] for lo, hi, k in isolate_basis_roots(case["polys"])]
        assert got == case["roots"], case["polys"]


# -- a reference that always computes both halves --------------------------

def _shift(p, a):
    """p(x + a) for integer a."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += a * p[j + 1]
    return p


def _descartes(p, lo, hi):
    """Sign variations of (1+x)^n p((lo*x + hi)/(1+x)), the Descartes
    bound of p on (lo, hi), computed from p at every node."""
    n = len(p) - 1
    den = lo.denominator * hi.denominator
    a, w = int(lo * den), int((hi - lo) * den)
    q = _shift([c * den ** (n - i) for i, c in enumerate(p)], a)  # den^n p(x/den)
    m = _shift([c * w ** i for i, c in enumerate(q)][::-1], 1)
    signs = [c > 0 for c in m if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _value(p, x):
    """den^deg p(x), a positive multiple of p(x)."""
    n, d, deg = x.numerator, x.denominator, len(p) - 1
    return sum(c * n ** i * d ** (deg - i) for i, c in enumerate(p))


def _sign(p, x):
    v = _value(p, x)
    return (v > 0) - (v < 0)


def _ref_tree(p, lo, hi):
    v = _descartes(p, lo, hi)
    if v < 2:
        return [(lo, hi)] * v
    mid = (lo + hi) / 2
    return (_ref_tree(p, lo, mid) + [(mid, mid)] * (_value(p, mid) == 0)
            + _ref_tree(p, mid, hi))


def _ref_refine(p, lo, hi):
    """One bisection step; p's sign just right of lo is its sign at lo,
    or its derivative's there when lo is a (simple) root."""
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    fm = _sign(p, mid)
    if fm == 0:
        return mid, mid
    s = _sign(p, lo) or _sign([i * c for i, c in enumerate(p)][1:], lo)
    return (mid, hi) if fm == s else (lo, mid)


def _root_bound(p):
    """b, the least power of two with b |lead| >= |lead| + max |c|."""
    lead = abs(p[-1])
    b = 1
    while b * lead < lead + max(abs(c) for c in p[:-1]):
        b *= 2
    return b


def _ref_isolate(p):
    """The intervals isolate_int_roots reproduces: those of the Descartes
    bisection of all of (-b, b), b the root bound (_root_bound), after
    taking out a root at 0, with neighbours refined until their closures
    are disjoint."""
    zero = p[0] == 0
    p = p[1:] if zero else p
    if len(p) <= 2:  # a constant, or one rational root
        out = [(Fraction(-p[0], p[-1]),) * 2] * (len(p) - 1)
    else:
        b = _root_bound(p)
        out = _ref_tree(p, Fraction(-b), Fraction(b))
    if zero:
        out = sorted(out + [(Fraction(0), Fraction(0))])
    if len(p) <= 2:
        return out
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][1] >= out[i + 1][0]:
                out[i] = _ref_refine(p, *out[i])
                out[i + 1] = _ref_refine(p, *out[i + 1])
                changed = True
    return out


def _ref_gcd(p, q):
    """A gcd over Q of two coefficient lists."""
    p, q = [Fraction(c) for c in p], [Fraction(c) for c in q]
    while q:
        while len(p) >= len(q):
            f = p[-1] / q[-1]
            p = [c - f * d for c, d in zip(p, [0] * (len(p) - len(q)) + q)][:-1]
            while p and p[-1] == 0:
                p.pop()
        p, q = q, p
    return p


def _ref_basis(polys):
    """isolate_basis_roots' merge: each pass sorts the intervals and
    separates every overlapping adjacent pair by bisecting the wider;
    a pair holding one shared root keeps the lower index."""
    items = [(lo, hi, k) for k in reversed(range(len(polys)))
             for lo, hi in _ref_isolate(polys[k])]
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda s: (s[0], s[1]))
        for i in range(len(items) - 1):
            (a, b, k), (c, d, l) = items[i], items[i + 1]
            if b < c:
                continue
            changed = True
            p, q = polys[k], polys[l]
            if a == b or c == d:
                x = a if a == b else c
                shared = _value(p, x) == 0 and _value(q, x) == 0
            else:
                g = _ref_gcd(p, q)
                shared = _sign(g, max(a, c)) != _sign(g, min(b, d))
            if shared:
                del items[i + (k < l)]
                break
            while a <= d and c <= b:
                if b - a >= d - c:
                    a, b = _ref_refine(p, a, b)
                else:
                    c, d = _ref_refine(q, c, d)
            items[i], items[i + 1] = (a, b, k), (c, d, l)
    return items


def _differential_corpus():
    """Square-free lists: products of dyadic linear factors (roots that
    the bisection meets at a midpoint), root pairs 2^-k apart (rational
    and irrational) and dense 200-bit polynomials; and groups of
    products of shared factors."""
    rng = random.Random(2006)
    singles = []
    while len(singles) < 400:  # distinct dyadic roots a / 2^e
        roots = {Fraction(rng.randint(-40, 40), 1 << rng.randint(0, 4))
                 for _ in range(rng.randint(1, 5))}
        singles.append(_product([_linear(r.numerator, r.denominator) for r in roots]))
    for i in range(200):  # r and r + 2^-k, k = 1..40
        k = 1 + i % 40
        n, d = rng.randint(-9, 9), rng.choice((1, 3, 5))
        g = gcd(n, d)
        n, d = n // g, d // g
        singles.append(_product([_linear(n, d), _linear(2 ** k * n + d, 2 ** k * d)]))
    for i in range(100):  # sqrt(c) and sqrt(c + 2^-k), with their negatives
        k, c = 1 + i % 40, rng.choice((2, 3, 5, 7))
        singles.append(_product([[-c, 0, 1], [-(c << k) - 1, 0, 1 << k]]))
    while len(singles) < 1000:  # dense 200-bit polynomials
        p = [rng.randint(-(1 << 200), 1 << 200) for _ in range(rng.randint(3, 8))]
        p = usquarefree_int(p)
        if len(p) > 1:
            singles.append(p)
    pool = _pool(rng)
    groups = [[_product(rng.sample(pool, rng.randint(1, 3))) for _ in range(rng.randint(2, 3))]
              for _ in range(100)]
    return singles, groups


def test_isolation_matches_a_bisection_that_computes_both_halves():
    singles, groups = _differential_corpus()
    assert len(singles) == 1000
    for p in singles:
        got = [(Fraction(*lo), Fraction(*hi)) for lo, hi in isolate_int_roots(p)]
        assert got == _ref_isolate(p), p
    for polys in groups + [[p, q] for p, q in zip(singles[::10], singles[5::10])]:
        got = [(Fraction(*lo), Fraction(*hi), k) for lo, hi, k in isolate_basis_roots(polys)]
        assert got == _ref_basis(polys), polys


def _small_roots_corpus():
    """Seeded square-free lists that reach every way isolate_int_roots
    starts a side of 0 below the root bound b: products of up to five
    linear factors with roots n / (d 2^s), s up to 12, so far inside b
    (sides with two roots or more, and one-root sides whose bound-1 node
    lies above the start, or whose start bound is 3 or more beside the
    complex roots of a factor a x^2 + c), with dyadic roots that the
    bisection meets at midpoints and a root at 0; and dense lists of
    degree 2 to 21 with small coefficients (sides with no sign change,
    and sides whose bound is not below b)."""
    rng = random.Random(1986)
    # one positive root each, b = 8 and the side starts at (0, 4): for
    # x^3 - x^2 - 3x - 4 (root near 2.6) (0, 8) has bound 1 already, for
    # x^3 - x^2 + 2x - 4 (root near 1.5) bound 3
    singles = [[-4, -3, -1, 1], [-4, 2, -1, 1]]
    while len(singles) < 120:
        factors = [_linear(rng.randint(-40, 40), rng.randint(1, 9) << rng.randint(0, 12))
                   for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            factors.append([rng.randint(1, 50), 0, rng.randint(1, 50)])
        p = usquarefree_int(_product(factors))
        if len(p) > 2:
            singles.append(p)
    while len(singles) < 200:
        p = [rng.randint(-9, 9) for _ in range(rng.randint(3, 22))]
        if rng.random() < 0.2:
            p[0] = 0
        p = usquarefree_int(p)
        if len(p) > 2:
            singles.append(p)
    return singles


def test_isolation_started_below_the_root_bound_matches_the_tree_of_minus_b_b():
    """Each side of 0 starts at its own root bound, and the intervals
    are those of the tree of (-b, b), whose root, holding every root of
    p, has bound deg p."""
    for p in _small_roots_corpus():
        got = [(Fraction(*lo), Fraction(*hi)) for lo, hi in isolate_int_roots(p)]
        assert got == _ref_isolate(p), p
        q = p[1:] if p[0] == 0 else p
        b = _root_bound(q)
        assert _descartes(q, Fraction(-b), Fraction(b)) == len(q) - 1, p


def test_sextic_discriminants_take_fewer_taylor_shifts(monkeypatch):
    """The two degree-20 discriminants of tests/golden/sextic.txt at
    delta = 1/64 have all their roots within 1/32 of 0, where b = 2.
    The tree of (-b, b) took 38 Taylor shifts on each; started at each
    side's own root bound it takes 24."""
    basis = assemble_G(_systems_of((P(SEXTIC),), ((0,),)), R).basis
    discriminants = [p for p in basis if len(p) == 21]
    assert len(discriminants) == 2
    shift_by = polycore._shift_by
    calls = []

    def counted(p):
        calls.append(p)
        return shift_by(p)

    monkeypatch.setattr(polycore, "_shift_by", counted)
    for p in discriminants:
        assert _root_bound(p) == 2
        ends = [Fraction(*x) for iv in isolate_int_roots(p) for x in iv]
        assert max(map(abs, ends)) <= Fraction(1, 32)
    assert len(calls) == 48


def _square_of_degree_12(seed):
    """f^2 for a seeded f of degree 12 with 100-bit coefficients and
    f(0) < 0 < lead, so f has a real root and f^2 a double one: degree
    24 and 200-bit coefficients."""
    rng = random.Random(seed)
    f = [rng.randint(1, 1 << 100) for _ in range(13)]
    f[0] = -f[0]
    return _mul(f, f)


def test_isolation_refuses_multiple_roots_where_they_show():
    """x^2 (x - 3) at 0, (2x - 1)^2 (x + 3) at the midpoint 1/2,
    (x^2 - 2)^2 (3x - 1) and a 200-bit square below the depth where
    ugcd_int(p, p') is asked once."""
    cases = [_mul([0, 0, 1], [-3, 1]), _product([[-1, 2], [-1, 2], [3, 1]]),
             _product([[-2, 0, 1], [-2, 0, 1], [-1, 3]]), _square_of_degree_12(24)]
    for p in cases:
        start = time.process_time()
        with pytest.raises(NotSquareFreeError):
            isolate_int_roots(p)
        assert time.process_time() - start < 1, p


def _moved(f, k, a):
    """f(x - a / 2^k) as a primitive integer list."""
    n = len(f) - 1
    scaled = _shift([c << (k * (n - i)) for i, c in enumerate(f)], -a)  # 2^(kn) f((y - a) / 2^k)
    return _product([[c << (k * i) for i, c in enumerate(scaled)]])


def test_basis_isolation_takes_one_gcd_per_pair(monkeypatch):
    """Three members of degree 20 whose 20 real roots are 2^-30 apart
    member to member, so that every root's intervals overlap: one
    ugcd_int per pair of members, not one per overlapping pair of
    intervals."""
    f = _product([[-n, 0, 1] for n in (2, 3, 5, 6, 7, 8, 10, 11, 12, 13)])
    polys = [f, _moved(f, 30, 1), _moved(f, 30, -1)]
    calls = []

    def counted(a, b):
        calls.append((tuple(a), tuple(b)))
        return ugcd_int(a, b)

    monkeypatch.setattr(polycore, "ugcd_int", counted)
    roots = isolate_basis_roots(polys)
    assert len(roots) == 60
    assert len(calls) <= 3
