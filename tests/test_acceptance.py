"""End-to-end acceptance suite: one test per criterion."""
import json
import random
import time
from fractions import Fraction as Q

from conftest import BUNDLED, SLP_CORPUS, stratum_witnesses
from fiberatlas.atlas import fiber_b0, grid_b0, interior_points, run_atlas
from fiberatlas.bounds import (
    bound_additive,
    bound_fewnomial,
    bound_lists,
    bound_main,
    bound_main_precise,
    bound_pfaffian,
    count_family,
    metric_radius,
)
from fiberatlas.cli import main
from fiberatlas.perturb import (
    build_ladder,
    check_rank_genericity,
    construct_S_prime,
    construct_S_prime_raw,
)
from fiberatlas.polycore import Polynomial, Ring, parse_polynomial, resultant
from fiberatlas.semialg import SignCondition, eval_formula
from fiberatlas.slp import expand, lift, parse_slp, verify_lift


def _report(example):
    base = example.base
    sigma = [SignCondition(base, row) for row in example.sigma]
    return run_atlas(base, sigma, example.m, example.n), sigma


def _closed_formula(example, delta):
    base = example.base
    sigma = [SignCondition(base, row) for row in example.sigma]
    return construct_S_prime(sigma, base, build_ladder(len(base), delta)).formula


def test_criterion_1_quadric_end_to_end(tmp_path, capsys):
    problem = tmp_path / "quadric.txt"
    problem.write_text("vars m=1 n=1\npoly X1^2 + Y1 - 1\nsigma 0\n")
    out = tmp_path / "report.json"
    start = time.monotonic()
    code = main(["atlas", str(problem), "--delta", "1/64",
                 "--json", str(out)])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 3
    assert sorted(f["b0"] for f in data["fibers"]) == [0, 1, 2]
    assert data["stabilization"] is True
    assert elapsed < 5.0
    print(f"criterion 1 PASS: quadric 3 cells b0 {{2,1,0}} stable "
          f"in {elapsed:.2f}s")


def test_criterion_2_parallel_lines(tmp_path, capsys):
    problem = tmp_path / "lines.txt"
    problem.write_text(
        "vars m=1 n=1\n"
        "poly X1 - 1\n"
        "poly X1 - 2\n"
        "poly X1 - Y1\n"
        "formula ((X1 - 1 = 0) or (X1 - 2 = 0)) and (X1 - Y1 >= 0)\n"
    )
    out = tmp_path / "report.json"
    start = time.monotonic()
    code = main(["atlas", str(problem), "--json", str(out)])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) >= 3
    values = {f["b0"] for f in data["fibers"]}
    assert values >= {0, 1, 2}
    assert elapsed < 10.0
    print(f"criterion 2 PASS: lines {len(data['cells'])} cells, "
          f"b0 values {sorted(values)} in {elapsed:.2f}s")


def _random_poly(rng, ring):
    # total degree at most 2
    exps = [e for e in _low_degree_exps(ring.nvars) ]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(exps)
        c = Q(rng.randint(-3, 3))
        if c:
            terms[e] = terms.get(e, Q(0)) + c
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        terms = {(0,) * ring.nvars: Q(rng.randint(1, 3))}
    return Polynomial(ring, terms)


def _low_degree_exps(nvars):
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], 2)
    return out


def test_criterion_3_closed_rewrite_equivalence():
    rng = random.Random(17)
    checked = 0
    for family_idx in range(50):
        m = rng.randint(1, 2)
        s = rng.randint(1, 2)
        ring = Ring(m, 1)
        base = tuple(_random_poly(rng, ring) for _ in range(s))
        sigma = [
            SignCondition(base, tuple(rng.choice((-1, 0, 1)) for _ in base))
            for _ in range(rng.randint(1, 2))
        ]
        pts = []
        while len(pts) < 100:
            pt = tuple(Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                       for _ in range(ring.nvars))
            if all(p.eval_at(pt) != 0 for p in base):
                pts.append(pt)
        delta = Q(1, 64)
        stable = False
        for _ in range(4):
            mismatches = 0
            for d in (delta, delta * delta):
                ladder = build_ladder(s, d)
                raw = construct_S_prime_raw(sigma, base, ladder)
                closed = construct_S_prime(sigma, base, ladder).formula
                for pt in pts:
                    if eval_formula(raw, pt) != eval_formula(closed, pt):
                        mismatches += 1
            if mismatches == 0:
                stable = True
                break
            delta = delta * delta
        assert stable, f"family {family_idx} never stabilized"
        checked += 1
    print(f"criterion 3 PASS: closed rewrite agrees on {checked} families "
          f"x 100 points at delta and delta^2")


def test_criterion_4_rank_genericity_at_witnesses():
    total = 0
    for example in BUNDLED:
        ring = example.ring
        delta = Q(1, 64)
        for _ in range(3):
            ladder = build_ladder(len(example.base), delta)
            e = ladder.value(2, 1)
            env = {"e": e, "1+e": 1 + e, "1-e": 1 - e, "2-e": 2 - e}
            ok = True
            for member_text, coords in stratum_witnesses(example):
                member = parse_polynomial(
                    member_text.replace("e", f"({e})"), ring)
                witness = tuple(
                    env[c] if isinstance(c, str) else c for c in coords)
                sc = SignCondition((member,), (0,))
                report = check_rank_genericity(sc, [witness], ring)
                if not report.ok:
                    ok = False
                total += report.checked
            if ok:
                break
            delta = delta * delta
        assert ok, example.name
    print(f"criterion 4 PASS: maximal rank at {total} stratum witnesses")


def test_criterion_5_per_cell_fiber_constancy():
    for example in BUNDLED:
        report, _ = _report(example)
        formula = _closed_formula(example, report.delta_used)
        for cell, fiber in zip(report.cells, report.fibers):
            values = {
                fiber_b0(formula, t, example.m).b0
                for t in interior_points(cell, 3)
            }
            assert values == {fiber.b0}, (example.name, cell)
    print("criterion 5 PASS: 3 interior probes per cell, identical b0, "
          "all bundled examples")


def test_criterion_6_grid_oracle_agreement():
    res = Q(1, 2 ** 10)
    checked = 0
    for example in BUNDLED:
        if example.m != 1:
            continue
        report, _ = _report(example)
        formula = _closed_formula(example, report.delta_used)
        if example.grid_safe:
            probes = [(c.sample, f.b0)
                      for c, f in zip(report.cells, report.fibers)]
        else:
            # features narrower than the grid pitch exist; compare at the
            # coarse representative parameters instead of every sample
            probes = [(y, fiber_b0(formula, y, 1).b0)
                      for y in example.coarse_probes]
        for y, exact in probes:
            grid = grid_b0(formula, y, res, box_radius=4)
            assert grid == exact, (example.name, y)
            checked += 1
    print(f"criterion 6 PASS: grid oracle at 2^-10 matches exact b0 at "
          f"{checked} samples")


def test_criterion_7_bound_evaluator():
    assert bound_main(2, 1, 1, 2, 1) == 64
    assert count_family(2, 1, "pprime_paper") == 8
    assert metric_radius(2, 2, 2, 1).value == 16
    assert bound_additive(1, 1, 1) == 65536
    rng = random.Random(31)
    cases = (
        (bound_main, ("m", "n", "s", "d", "c")),
        (bound_main_precise, ("m", "n", "s", "d", "c")),
        (bound_lists, ("m", "s", "d", "c")),
        (bound_fewnomial, ("m", "r", "c")),
        (bound_additive, ("m", "a", "c")),
        (bound_pfaffian, ("m", "n", "s", "r", "alpha", "beta", "c")),
    )
    for _ in range(200):
        fn, names = cases[rng.randrange(len(cases))]
        params = {k: rng.randint(1, 4) for k in names}
        value = fn(**params)
        assert value >= 1
        for k in names:
            bumped = dict(params, **{k: params[k] + 1})
            assert fn(**bumped) >= value, (fn.__name__, k, params)
    print("criterion 7 PASS: worked bound values exact, 200-tuple "
          "monotonicity holds")


def test_criterion_8_slp_round_trip():
    assert len(SLP_CORPUS) == 30
    assert parse_slp("(X1+1)^3").a == 1
    for text in SLP_CORPUS:
        prog = parse_slp(text)
        direct = parse_polynomial(text, Ring(prog.m, 0))
        assert expand(prog) == direct, text
        fring = Ring(1, 0)
        from fiberatlas.semialg import Atom

        formula = Atom(Polynomial.variable(fring, 0), ">")
        ls = lift([prog], formula)
        report = verify_lift(ls, [prog], formula, samples=5)
        assert report.symbolic_ok, text
    print("criterion 8 PASS: 30-expression corpus round trip, "
          "(X1+1)^3 witness a=1, symbolic lift checks exact")


def test_criterion_9_resultant_correctness():
    ring = Ring(1, 1)
    e = Q(1, 64) ** 3
    f = parse_polynomial("X1^2 + Y1 - 1", ring) - e
    g = parse_polynomial("2*X1", ring)
    expected = (parse_polynomial("Y1 - 1", ring) - e) * 4
    assert resultant(f, g, 0) == expected
    rng = random.Random(53)
    for _ in range(20):
        a = Q(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        common = parse_polynomial("X1", ring) - a
        left = common * _random_poly(rng, ring)
        right = common * _random_poly(rng, ring)
        if left.degree_in(0) == 0 or right.degree_in(0) == 0:
            continue
        assert resultant(left, right, 0).is_zero()
    print("criterion 9 PASS: worked resultant exact, 20 common-root "
          "resultants vanish")
