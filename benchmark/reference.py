"""Checks of fiberatlas outputs against references that use no fiberatlas
code: Sturm sequences over Fraction for fiber b0, exponent forms for the
bounds, Python's own Fraction arithmetic for expansions.

A check reports mismatches as a list of strings; an empty list passes.
"""
from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import gcd

# A fixed prime for bound residues: 2^61 - 1.
PRIME = (1 << 61) - 1


# -- univariate polynomials: lists of Fractions, constant term first -----

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
    """Quotient and remainder of coefficient lists over Q."""
    a = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        a.pop()
    return q, _trim(a)


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign(v):
    return (v > 0) - (v < 0)


def _primitive(p):
    """p times a positive rational, with coprime integer coefficients."""
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return [c // g for c in ints] if g else ints


def _sturm(p):
    """Sturm sequence, each member scaled positively to integers."""
    seq = [_primitive(p), _primitive(_deriv(p))]
    while len(seq[-1]) > 1:
        r = _divmod([F(c) for c in seq[-2]], [F(c) for c in seq[-1]])[1]
        if not r:
            break
        seq.append(_primitive([-c for c in r]))
    return [q for q in seq if q]


def _sign_at(p, x):
    """Sign of the integer polynomial p at the rational x."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return _sign(acc)


def _variations(seq, x):
    signs = [_sign_at(q, F(x)) for q in seq]
    signs = [s for s in signs if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _root_bound(p):
    """Every real root lies strictly inside (-B, B)."""
    lead = abs(p[-1])
    return 2 + sum(abs(c) for c in p[:-1]) / lead


class RealRoots:
    """The distinct real roots of a polynomial, counted by a Sturm
    sequence of its square-free part."""

    def __init__(self, p):
        p = _trim(list(p))
        if not p:
            raise ValueError("the zero polynomial has no isolated roots")
        self.sf = _divmod(p, _gcd(p, _deriv(p)))[0] if len(p) > 1 else p
        self.seq = _sturm(self.sf) if len(self.sf) > 1 else [self.sf]
        self.bound = _root_bound(self.sf) if len(self.sf) > 1 else F(1)

    def count(self, lo, hi):
        """Roots in (lo, hi]; None stands for an infinite end."""
        lo = -self.bound if lo is None else lo
        hi = self.bound if hi is None else hi
        return _variations(self.seq, lo) - _variations(self.seq, hi)

    def isolating(self):
        """Sorted half-open intervals [lo, hi] meaning (lo, hi], one root
        in each."""
        ivs = []
        todo = [(-self.bound, self.bound)]
        while todo:
            lo, hi = todo.pop()
            k = self.count(lo, hi)
            if k == 1:
                ivs.append([lo, hi])
            elif k > 1:
                mid = (lo + hi) / 2
                todo += [(mid, hi), (lo, mid)]
        return sorted(ivs)

    def piece_samples(self):
        """One point in every open interval of the real line minus the
        roots, from left to right."""
        if len(self.sf) <= 1:
            return [F(0)]
        ivs = self.isolating()
        samples = [-self.bound]
        for left, right in zip(ivs, ivs[1:]):
            # a point strictly between the root in `left` and the one in
            # `right`: left's end unless it is the root itself
            if _eval(self.sf, left[1]) != 0:
                samples.append(left[1])
                continue
            while right[0] == left[1]:
                mid = (right[0] + right[1]) / 2
                if self.count(right[0], mid) == 1:
                    right[1] = mid
                else:
                    right[0] = mid
            samples.append(right[0])
        samples.append(self.bound)
        return samples


def _at_y(terms, y):
    """Substitute Y1 = y into a term dict; coefficient list in X1."""
    out = [F(0)] * (max(i for i, _ in terms) + 1)
    for (i, j), c in terms.items():
        out[i] += c * y ** j
    return _trim(out)


def _mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def reference_b0(polys, sigma, y):
    """b0 of {x : sign P_j(x, y) = sigma_j for all j} for a single
    equation (sigma = (0,)) or a strict sign vector (no zeros)."""
    y = F(y)
    fibers = [_at_y(p, y) for p in polys]
    if tuple(sigma) == (0,):
        return RealRoots(fibers[0]).count(None, None)
    if 0 in sigma:
        raise ValueError("reference b0 needs one equation or strict signs")
    prod = [F(1)]
    for f in fibers:
        prod = _mul(prod, f)
    # every root of the product makes some strict sign fail, so each true
    # open piece is a component of its own
    return sum(
        all(_sign(_eval(f, x)) == s for f, s in zip(fibers, sigma))
        for x in RealRoots(prod).piece_samples()
    )


# -- census reports ---------------------------------------------------------

def _q(text):
    return None if text is None else F(text)


def census_layout(report):
    """(cells as (left, right, sample), b0 list, narrow flags) of a JSON
    report; a narrow cell is bounded and no wider than delta_used."""
    cells = [(_q(c["left"]), _q(c["right"]), F(c["sample"])) for c in report["cells"]]
    b0 = [f["b0"] for f in report["fibers"]]
    delta = F(report["delta_used"])
    narrow = [
        lo is not None and hi is not None and hi - lo <= delta
        for lo, hi, _ in cells
    ]
    return cells, b0, narrow


def check_census(census, report):
    """(mismatches, counts) of one atlas report against the census'
    references.  The counts are the narrow cells and the narrow cells
    whose b0 appears on no wide cell."""
    bad = []
    if report.get("stabilization") is not True:
        bad.append("stabilization is not true")
    cells, b0, narrow = census_layout(report)
    if len(cells) != len(b0) or not cells:
        return bad + [f"{len(cells)} cells but {len(b0)} fibers"], (0, 0)
    if cells[0][0] is not None or cells[-1][1] is not None:
        bad.append("cells do not cover the line")
    for k, ((lo, hi, s), fib) in enumerate(zip(cells, report["fibers"])):
        if F(fib["sample"]) != s:
            bad.append(f"cell {k}: fiber sample differs from cell sample")
        if (lo is not None and not lo < s) or (hi is not None and not s < hi):
            bad.append(f"cell {k}: sample {s} outside ({lo}, {hi})")
    for k, (left, right) in enumerate(zip(cells, cells[1:])):
        if left[1] is None or right[0] is None or not left[1] <= right[0]:
            bad.append(f"cells {k}, {k + 1} are not sorted and disjoint")
    wide = [k for k, n in enumerate(narrow) if not n]
    wide_b0 = [b0[k] for k in wide]
    if census.hand_b0 and tuple(wide_b0) != census.hand_b0:
        bad.append(f"wide-cell b0 {wide_b0} != hand census {list(census.hand_b0)}")
    for k in wide if census.polys else ():
        lo, hi, s = cells[k]
        want = reference_b0(census.polys, census.sigma, s)
        if b0[k] != want:
            bad.append(f"cell ({lo}, {hi}): b0 {b0[k]} at sample {s}, reference {want}")
    artifact_b0 = sum(1 for b, n in zip(b0, narrow) if n and b not in wide_b0)
    return bad, (sum(narrow), artifact_b0)


# -- bounds -----------------------------------------------------------------

def _log2(n, prec):
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(n).ln() / Decimal(2).ln()


def expected_bound(powers):
    """(bit length, residue mod PRIME) of prod base**exp, from the
    exponent form alone."""
    residue = 1
    for base, exp in powers:
        residue = residue * pow(base, exp, PRIME) % PRIME
    if len(powers) == 1 and powers[0][0] == 2:
        return powers[0][1] + 1, residue
    total = sum(exp * _log2(base, 60) for base, exp in powers)
    floor = int(total)
    if min(total - floor, floor + 1 - total) < Decimal("1e-30"):
        raise ValueError("log2 of the bound is too close to an integer")
    return floor + 1, residue


def check_bound(value, expected):
    """Mismatches of a bound value against (bit length, residue)."""
    bits, residue = expected
    bad = []
    if value.bit_length() != bits:
        bad.append(f"{value.bit_length()} bits, expected {bits}")
    if value % PRIME != residue:
        bad.append("residue modulo 2^61 - 1 differs")
    return bad


# -- expansions -------------------------------------------------------------

_INT = re.compile(r"(?<![A-Za-z0-9])\d+")


def fraction_eval(text, point):
    """Value of an expression text at a point, by Python's Fraction
    arithmetic."""
    src = _INT.sub(lambda mo: f"F({mo.group()})", text).replace("^", "**")
    names = {f"X{i + 1}": F(v) for i, v in enumerate(point)}
    return eval(src, {"F": F, "__builtins__": {}}, names)


EVAL_POINTS = ((F(3, 2), F(-2, 3)), (F(-5), F(7, 4)))
