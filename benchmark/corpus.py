"""Seeded inputs of the three workloads.

A polynomial in X1 and Y1 is a dict {(i, j): integer coefficient of
X1^i * Y1^j}.  The generators draw only constants and coefficients, so
the shape of every family (degrees, number of members, sign vector) is
the same for every seed, and so, nearly, is its cost.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Sextic hypersurfaces per corpus round: few enough that a 35 s run has
# five or more rounds for each sextic's median time.
ELIM_COPIES = 8
ELIM_DEGREE = 6
# The sextics are drawn once, from this fixed generator seed; the run's
# seed picks a mirror image of each (X1 -> +-X1, Y1 -> +-Y1) and the
# order, which leave a census' cost as it is.
ELIM_MASTER_SEED = 0
# Y1 is replaced by ELIM_Y_SCALE * Y1.  Around a limit critical value the
# thickened census makes a cluster of cells whose width is delta over the
# Y1-slope of the fiber's critical value, times a constant.  Where that
# slope is small, a cell of the cluster is wider than delta_used and its
# b0 is one S does not have at its sample: 9 of the 160 unscaled sextics
# of seeds 1 to 10 have such a cell.  Scaling Y1 by 64 multiplies every
# slope by 64; none of 192 scaled sextics (seeds 100 to 111) has one.
ELIM_Y_SCALE = 64


@dataclass(frozen=True)
class Census:
    """One `fiberatlas atlas FILE --json OUT` call and what the reference
    needs to judge its report."""

    name: str
    text: str  # problem file
    polys: tuple  # term dicts; empty when only the hand census is checked
    sigma: tuple  # the single sign vector over polys, or ()
    hand_b0: tuple  # b0 of the wide cells from left to right, or ()


def poly_text(terms) -> str:
    """Problem-file text of a term dict, highest X1 degree first."""
    parts = []
    for i, j in sorted(terms, reverse=True):
        c = terms[(i, j)]
        if c == 0:
            continue
        mono = "*".join(
            f"{v}^{e}" if e > 1 else v for v, e in (("X1", i), ("Y1", j)) if e
        )
        mag = str(abs(c))
        body = mono if mono and mag == "1" else "*".join(x for x in (mag, mono) if x)
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def problem_text(polys, sigma) -> str:
    lines = ["vars m=1 n=1"]
    lines += [f"poly {poly_text(p)}" for p in polys]
    lines.append("sigma " + " ".join(str(s) for s in sigma))
    return "\n".join(lines) + "\n"


def _census(name, polys, sigma, hand_b0=()):
    return Census(name, problem_text(polys, sigma), tuple(polys), tuple(sigma),
                  tuple(hand_b0))


# The bundled problems, read from problems/ in the checkout.  quadric is a
# single equation, so the Sturm reference also applies; twolines is a
# formula and is judged by its hand census alone.
QUADRIC = ({(2, 0): 1, (0, 1): 1, (0, 0): -1},)


def bundled(root):
    with open(f"{root}/problems/quadric.txt") as fh:
        quadric = fh.read()
    with open(f"{root}/problems/twolines.txt") as fh:
        twolines = fh.read()
    return [
        Census("quadric", quadric, QUADRIC, (0,), (2, 1, 0)),
        Census("twolines", twolines, (), (), (2, 1, 0)),
    ]


def fiber_family(a, b, c, e) -> Census:
    """X1^2 - a*Y1, X1 - b, X1 + c, X1 - Y1 - e with sigma -1 -1 1 -1:
    69 cells, about 90% of the time in fiber b0."""
    polys = (
        {(2, 0): 1, (0, 1): -a},
        {(1, 0): 1, (0, 0): -b},
        {(1, 0): 1, (0, 0): c},
        {(1, 0): 1, (0, 1): -1, (0, 0): -e},
    )
    return _census(f"family-a{a}-b{b}-c{c}-e{e}", polys, (-1, -1, 1, -1))


def sextic(rng) -> dict:
    """X1^6 + sum_{k<6} c_k(Y1) X1^k with each c_k of degree exactly 2
    in Y1 and integer coefficients in [-3, 3]."""
    terms = {(ELIM_DEGREE, 0): 1}
    for k in range(ELIM_DEGREE):
        terms[(k, 2)] = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[(k, 1)] = rng.randint(-3, 3)
        terms[(k, 0)] = rng.randint(-3, 3)
    return terms


def substitute(terms, sx, sy):
    """terms with X1 -> sx * X1 and Y1 -> sy * Y1."""
    return {(i, j): c * sx ** i * sy ** j for (i, j), c in terms.items()}


# (b, e) of the families in a census-fiber round.  b and e set where
# X1 - Y1 - e meets X1 - b, and with it up to 40% of a census' work (sign
# evaluations); a and c move it by about 1%.  Two families keep a round
# at 6 to 10 s of CPU, so that a 35 s run has three or more rounds.
FIBER_BE = ((1, 2), (2, 1))


def census_fiber(root, seed):
    """The bundled problems and one family for each (b, e) in FIBER_BE,
    with a and c drawn from the seed, in seeded order.  Fixing (b, e)
    keeps a round's cost the same for every seed."""
    rng = random.Random(seed)
    families = [
        fiber_family(rng.randint(1, 3), b, rng.randint(1, 3), e) for b, e in FIBER_BE
    ]
    rng.shuffle(families)
    return bundled(root) + families


def census_elim(seed):
    """ELIM_COPIES sextics c_k(ELIM_Y_SCALE * Y1), each a single equation
    (sigma 0), mirrored and ordered by the seed."""
    master = random.Random(ELIM_MASTER_SEED)
    rng = random.Random(seed)
    out = []
    for k in range(ELIM_COPIES):
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        terms = substitute(sextic(master), sx, sy * ELIM_Y_SCALE)
        name = f"sextic-{k}{'+-'[sx < 0]}x{'+-'[sy < 0]}y"
        out.append(_census(name, (terms,), (0,)))
    rng.shuffle(out)
    return out


# -- bounds-lift ---------------------------------------------------------

@dataclass(frozen=True)
class BoundCase:
    """A library bound evaluation and its exponent form: the value is
    prod base**exp over `powers`, which the reference checks by bit
    length and by a residue without forming the power."""

    func: str  # name in fiberatlas.bounds
    args: tuple
    powers: tuple  # ((base, exp), ...)

    @property
    def name(self):
        return f"{self.func}{self.args}"


def _bound_cases():
    cases = []
    # 2^((c m r)^4)
    for m, r, c in ((2, 3, 6), (4, 4, 4), (3, 8, 4)):
        cases.append(BoundCase("bound_fewnomial", (m, r, c), ((2, (c * m * r) ** 4),)))
    # M^(d^(c m))
    for M, d, m, c in ((3, 2, 20, 1), (5, 2, 11, 2)):
        cases.append(BoundCase("metric_radius", (M, d, m, c), ((M, d ** (c * m)),)))
    # (2^m s n d)^(c n m)
    m, n, s, d, c = 3, 2, 5, 7, 60000
    cases.append(BoundCase("bound_main", (m, n, s, d, c),
                           ((2 ** m * s * n * d, c * n * m),)))
    # 2^((c (m+a) a)^4)
    cases.append(BoundCase("bound_additive", (4, 4, 4), ((2, (4 * 8 * 4) ** 4),)))
    return tuple(cases)


BOUND_CASES = _bound_cases()

# The 30-expression SLP corpus of acceptance criterion 8.
SLP_CORPUS = (
    "(X1+1)^3",
    "X1^5 * X2",
    "(X1+1)*(X1-1)",
    "X1",
    "7",
    "-3/2",
    "0",
    "X1 + 1",
    "X1 - 1",
    "2*X1 + 3*X1",
    "X1 - X1",
    "X1^2 + 2*X1 + 1",
    "(X1 + X2)^2",
    "(X1 - X2)^3",
    "X1*X2 + X2*X1",
    "(2*X1 + 1)^4",
    "(X1^2 + 1)*(X1^2 - 1)",
    "(X1 + 1)*(X2 + 1)",
    "3*(X1 + 2)^2",
    "-(X1 + 1)",
    "(X1 + 1)^2 - (X1 - 1)^2",
    "X1^3 - 3*X1^2 + 3*X1 - 1",
    "(1/2*X1 + 1/3)^2",
    "X1^2*X2^3 + 1",
    "(X1 + X2 + 1)^2",
    "5*X1^4 - 5*X1^4",
    "(X1*X2 + 1)^3",
    "((X1 + 1)^2 + 1)^2",
    "2^3 + X1",
    "(X1 + 1)*(X1 + 1)",
)


def bounds_lift(seed):
    """The SLP corpus, then the fixed bound ladder; the seed only shuffles
    the order within each.  Lifts come first so that only the first one
    follows a bound evaluation, whose huge integers evict the caches."""
    rng = random.Random(seed)
    lifts = [("lift", text) for text in SLP_CORPUS]
    bounds = [("bound", case) for case in BOUND_CASES]
    rng.shuffle(lifts)
    rng.shuffle(bounds)
    return lifts + bounds

