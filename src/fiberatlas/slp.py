"""Straight-line programs over additions.

An expression is decomposed into steps Q_j = a_j X^alpha ∏Q_i^gamma +
b_j X^beta ∏Q_i^delta, one per addition that cannot be absorbed into a
single scaled monomial product.  The step count is a witness upper bound
for additive complexity, not the minimum.  Each step can then be traded
for one new variable and one trinomial equation, giving a description of
the same set in a higher-dimensional space where every polynomial has at
most three terms.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

from .polycore import ParseError, Parser, Polynomial, Ring
from .semialg import Atom, atoms_of, eval_formula, map_atoms


@dataclass(frozen=True)
class SLPStep:
    """One addition: Q_j = left + right, each side a scaled monomial
    product over X and earlier Q's (gamma/delta indexed by step, 1-based,
    entries for indices < j only)."""

    index: int
    left: tuple  # (scalar, alpha over X, gamma over prior Q's)
    right: tuple

    def __post_init__(self):
        for _, _, prior in (self.left, self.right):
            if len(prior) != self.index - 1:
                raise ValueError("step references a Q with index >= its own")


@dataclass(frozen=True)
class SLPProgram:
    m: int
    steps: tuple
    final: tuple  # (scalar, zeta over X, eta over Q's)

    @property
    def a(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class _Mono:
    """Scaled monomial product a * X^alpha * prod Q_i^gamma."""

    scalar: Q
    alpha: tuple
    gamma: tuple  # (step index, exponent) pairs, sorted

    def key(self):
        return (self.alpha, self.gamma)


class _Builder(Parser):
    """Parses an expression over X1..Xm into scaled monomial products,
    appending one step per addition that `add` cannot absorb.  m is the
    largest variable index of the text when not given."""

    def __init__(self, text, m):
        super().__init__(text)
        if m is None:
            m = max((int(name[1:]) for kind, name, _, _ in self.tokens
                     if kind == "var"), default=1)
        self.m = m
        self.steps = []

    def num(self, value):
        return _Mono(Q(value), (0,) * self.m, ())

    def var(self, name, pos):
        idx = int(name[1:])
        if name[0] != "X":
            raise ParseError(f"only X variables allowed, got {name}", pos)
        if idx == 0:
            raise ParseError(f"bad variable name {name!r}", pos)
        if idx > self.m:
            raise ParseError(f"variable {name} not in ring with m={self.m}", pos)
        alpha = tuple(1 if i == idx - 1 else 0 for i in range(self.m))
        return _Mono(Q(1), alpha, ())

    def neg(self, u: _Mono) -> _Mono:
        return _Mono(-u.scalar, u.alpha, u.gamma)

    def mul(self, u: _Mono, v: _Mono) -> _Mono:
        if u.scalar == 0 or v.scalar == 0:
            return _Mono(Q(0), u.alpha, ())
        alpha = tuple(x + y for x, y in zip(u.alpha, v.alpha))
        gamma = dict(u.gamma)
        for i, e in v.gamma:
            gamma[i] = gamma.get(i, 0) + e
        return _Mono(u.scalar * v.scalar, alpha, tuple(sorted(gamma.items())))

    def pow(self, u: _Mono, k: int) -> _Mono:
        if k == 0:
            return self.num(1)
        if u.scalar == 0:
            return _Mono(Q(0), u.alpha, ())
        return _Mono(
            u.scalar ** k,
            tuple(e * k for e in u.alpha),
            tuple((i, e * k) for i, e in u.gamma),
        )

    def _dense(self, gamma, upto):
        out = [0] * upto
        for i, e in gamma:
            out[i - 1] = e
        return tuple(out)

    def add(self, u: _Mono, v: _Mono, subtract: bool) -> _Mono:
        if subtract:
            v = self.neg(v)
        if u.scalar == 0:
            return v
        if v.scalar == 0:
            return u
        if u.key() == v.key():
            s = u.scalar + v.scalar
            if s == 0:
                return self.num(0)
            return _Mono(s, u.alpha, u.gamma)
        j = len(self.steps) + 1
        self.steps.append(SLPStep(
            j,
            (u.scalar, u.alpha, self._dense(u.gamma, j - 1)),
            (v.scalar, v.alpha, self._dense(v.gamma, j - 1)),
        ))
        return _Mono(Q(1), (0,) * self.m, ((j, 1),))


def parse_slp(text: str, m: int = None) -> SLPProgram:
    """Parse an expression into a straight-line program.

    A sum whose two sides share the same monomial shape, or where one
    side vanishes, is absorbed without a step; every other addition or
    subtraction becomes one step.  Only X1..Xm may occur, m being the
    largest index present when not given; any other variable fails at
    its own token.
    """
    builder = _Builder(text, m)
    top = builder.parse_expr()
    builder.expect_end()
    eta = builder._dense(top.gamma, len(builder.steps))
    return SLPProgram(builder.m, tuple(builder.steps), (top.scalar, top.alpha, eta))


def _side_poly(ring: Ring, scalar, alpha, exps, values):
    """Evaluate scalar * X^alpha * prod values[i]^exps[i] in ring."""
    p = Polynomial.constant(ring, scalar)
    for i, e in enumerate(alpha):
        if e:
            p = p * Polynomial.variable(ring, i) ** e
    for i, e in enumerate(exps):
        if e:
            p = p * values[i] ** e
    return p


def _expansion(prog: SLPProgram):
    """Expanded Q_1..Q_a of the program and its expanded value, over
    Ring(prog.m, 0)."""
    ring = Ring(prog.m, 0)
    qs = []
    for st in prog.steps:
        qs.append(_side_poly(ring, *st.left, qs) + _side_poly(ring, *st.right, qs))
    return qs, _side_poly(ring, *prog.final, qs)


def expand(prog: SLPProgram) -> Polynomial:
    """Full symbolic expansion of the program over the rationals."""
    return _expansion(prog)[1]


@dataclass(frozen=True)
class LiftedSystem:
    """Trinomial-equation description of a lifted set in dimension m + a.

    Lift variables are Y1..Ya in program order; names records the
    (program k, step j) origin of each."""

    equations: tuple
    rewritten_formula: object
    m: int
    a: int
    names: tuple  # (k, j, global Y name) per lift variable

    def to_json_dict(self):
        return {
            "m": self.m,
            "a": self.a,
            "variables": [
                {"program": k, "step": j, "name": nm} for k, j, nm in self.names
            ],
            "equations": [eq.to_text() + " = 0" for eq in self.equations],
        }


def _embed(p: Polynomial, ring: Ring) -> Polynomial:
    """Re-express a polynomial in fewer variables inside a larger ring;
    the shared variables must be a prefix."""
    pad = ring.nvars - p.ring.nvars
    return Polynomial(ring, {expo + (0,) * pad: c for expo, c in p.terms.items()})


def _ambient_mono(ring, scalar, alpha, exps, offset):
    """Monomial c * X^alpha * prod Y_{offset+i}^exps[i] in the ambient ring."""
    m = len(alpha)
    expo = [0] * ring.nvars
    for i, e in enumerate(alpha):
        expo[i] = e
    for i, e in enumerate(exps):
        expo[m + offset + i] = e
    if scalar == 0:
        return Polynomial.constant(ring, 0)
    return Polynomial(ring, {tuple(expo): Q(scalar)})


def _offsets(progs):
    """Per program, the number of lift variables of the programs before
    it; and the total number a."""
    offsets = []
    total = 0
    for p in progs:
        offsets.append(total)
        total += p.a
    return offsets, total


def _atom_program(poly, count):
    """The program k (0-based) that an atom polynomial X_{k+1} names,
    or None when it names none of the count programs."""
    for k in range(count):
        if poly == Polynomial.variable(poly.ring, k):
            return k
    return None


def lift(progs, formula) -> LiftedSystem:
    """Trade each program step for a lift variable and a trinomial
    equation; rewrite every atom as its final monomial form.

    The input formula lives over a ring with one X variable per program:
    an atom whose polynomial is exactly X_k refers to program k (1-based).
    """
    progs = list(progs)
    m = max((p.m for p in progs), default=1)
    offsets, total = _offsets(progs)
    ring = Ring(m, total)
    names = []
    equations = []
    for k, prog in enumerate(progs):
        off = offsets[k]
        for st in prog.steps:
            gname = ring.var_name(m + off + st.index - 1)
            names.append((k + 1, st.index, gname))
            y = Polynomial.variable(ring, m + off + st.index - 1)
            left = _ambient_mono(ring, st.left[0], st.left[1] + (0,) * (m - prog.m),
                                 st.left[2], off)
            right = _ambient_mono(ring, st.right[0], st.right[1] + (0,) * (m - prog.m),
                                  st.right[2], off)
            equations.append(y - left - right)

    def rewrite(atom):
        k = _atom_program(atom.poly, len(progs))
        if k is None:
            raise ValueError(f"atom references unknown program: {atom.poly.to_text()}")
        c, zeta, eta = progs[k].final
        mono = _ambient_mono(ring, c, zeta + (0,) * (m - progs[k].m),
                             eta, offsets[k])
        return Atom(mono, atom.rel)

    return LiftedSystem(tuple(equations), map_atoms(formula, rewrite), m, total,
                        tuple(names))


@dataclass(frozen=True)
class LiftReport:
    symbolic_ok: bool
    sample_count: int
    sample_failures: tuple

    @property
    def passed(self) -> bool:
        return self.symbolic_ok and not self.sample_failures


def _q_values(prog: SLPProgram, x):
    """Values of the intermediate quantities at a point; these determine
    the unique lift of x."""
    vals = []
    for st in prog.steps:
        total = Q(0)
        for scalar, alpha, exps in (st.left, st.right):
            v = Q(scalar)
            for i, e in enumerate(alpha):
                v *= Q(x[i]) ** e
            for i, e in enumerate(exps):
                v *= vals[i] ** e
            total += v
        vals.append(total)
    return vals


def verify_lift(ls: LiftedSystem, progs, formula, samples: int = 20) -> LiftReport:
    """Check the lift both symbolically and on sample points.

    Symbolic: substituting each lift variable by its expanded quantity
    turns every equation into zero and every rewritten atom back into the
    original program's expansion.  Samples: at random rational points the
    unique lift satisfies the rewritten formula exactly when the point
    satisfies the original; uniqueness is structural since each lift
    variable is an explicit function of the point and earlier ones.
    """
    progs = list(progs)
    ring = ls.equations[0].ring if ls.equations else Ring(ls.m, ls.a)
    m = ls.m
    offsets, _ = _offsets(progs)
    expansions = [_expansion(p) for p in progs]

    assignment = {}
    for k, (qs, _) in enumerate(expansions):
        for j, qp in enumerate(qs):
            assignment[m + offsets[k] + j] = _embed(qp, ring)

    symbolic_ok = all(
        eq.substitute_poly(assignment).is_zero() for eq in ls.equations
    )

    lifted_atoms = list(atoms_of(ls.rewritten_formula))
    original_atoms = list(atoms_of(formula))
    if len(lifted_atoms) != len(original_atoms):
        symbolic_ok = False
    else:
        for la, oa in zip(lifted_atoms, original_atoms):
            if la.rel != oa.rel:
                symbolic_ok = False
                break
            k = _atom_program(oa.poly, len(progs))
            if k is None or (la.poly.substitute_poly(assignment)
                             != _embed(expansions[k][1], ring)):
                symbolic_ok = False

    rng = random.Random(0)  # the same sample points on every run
    failures = []
    for t in range(samples):
        x = [Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(m)]
        pvals = [value.eval_at(tuple(x[:p.m]))
                 for p, (_, value) in zip(progs, expansions)]
        yvals = []
        for p in progs:
            yvals.extend(_q_values(p, x))
        point = tuple(x) + tuple(yvals)
        if any(eq.eval_at(point) != 0 for eq in ls.equations):
            failures.append((t, tuple(x), "equation violated at lift"))
            continue
        orig = eval_formula(formula, tuple(pvals))
        lifted = eval_formula(ls.rewritten_formula, point)
        if orig != lifted:
            failures.append((t, tuple(x), "truth mismatch"))
    return LiftReport(symbolic_ok, samples, tuple(failures))
