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
"""
import json
import random
from math import gcd
from pathlib import Path

from fiberatlas.polycore import isolate_basis_roots, isolate_int_roots, usquarefree_int

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
