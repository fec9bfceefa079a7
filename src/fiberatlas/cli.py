"""Command-line entry point.

Subcommands: atlas (parameter-space census), bounds (exact bound
evaluation), lift (trinomial rewriting of expressions).  Exit codes:
0 success, 2 malformed input or unsupported request, 3 degeneracy that
survived every refinement round.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction as Q

from .atlas import run_atlas
from .bounds import BOUNDS, count_family, evaluate_bound, metric_radius
from .eliminate import DegenerateEliminationError, UnsupportedModeError
from .polycore import ParseError, Polynomial, Ring, parse_polynomial
from .semialg import And, Atom, SignCondition, eval_signs, formula_to_text, parse_formula
from .slp import lift, parse_slp, verify_lift


class ProblemParseError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class ProblemFile:
    m: int
    n: int
    polys: tuple
    sigma_rows: tuple  # raw sign tuples over the polynomial list
    formula_text: str  # alternative to sigma rows
    options: dict = field(default_factory=dict)

    @property
    def ring(self) -> Ring:
        return Ring(self.m, self.n)


_SIGN_TOKENS = {"1": 1, "+1": 1, "+": 1, "0": 0, "-1": -1, "-": -1}


def parse_problem_file(text: str) -> ProblemFile:
    m = n = None
    poly_texts = []
    sigma_rows = []
    formula_text = ""
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "vars":
            for part in rest.split():
                name, _, val = part.partition("=")
                if name == "m":
                    m = int(val)
                elif name == "n":
                    n = int(val)
                else:
                    raise ProblemParseError(f"unknown vars field {name!r}", lineno)
            if m is None or n is None:
                raise ProblemParseError("vars line must set m and n", lineno)
        elif key == "poly":
            poly_texts.append((lineno, rest))
        elif key == "sigma":
            row = []
            for tok in rest.split():
                if tok not in _SIGN_TOKENS:
                    raise ProblemParseError(f"bad sign token {tok!r}", lineno)
                row.append(_SIGN_TOKENS[tok])
            sigma_rows.append((lineno, tuple(row)))
        elif key == "formula":
            formula_text = rest
        elif key == "option":
            name, eq, val = rest.partition("=")
            if not eq:
                raise ProblemParseError("option lines use key=value", lineno)
            options[name.strip()] = val.strip()
        else:
            raise ProblemParseError(f"unknown directive {key!r}", lineno)
    if m is None or n is None:
        raise ProblemParseError("missing vars line", 1)
    if not poly_texts:
        raise ProblemParseError("no poly lines", 1)
    ring = Ring(m, n)
    polys = []
    for lineno, src in poly_texts:
        try:
            polys.append(parse_polynomial(src, ring))
        except (ParseError, ValueError) as exc:
            raise ProblemParseError(str(exc), lineno) from exc
    rows = []
    for lineno, row in sigma_rows:
        if len(row) != len(polys):
            raise ProblemParseError(
                f"sigma vector length {len(row)} differs from family size "
                f"{len(polys)}", lineno)
        rows.append(row)
    if rows and formula_text:
        raise ProblemParseError("give sigma rows or a formula, not both", 1)
    return ProblemFile(m, n, tuple(polys), tuple(rows), formula_text, options)


def sigma_from_formula(formula, base) -> tuple:
    """All sign vectors over the family whose realizations satisfy the
    formula; every atom polynomial must be a family member (or the
    negation of one, or a constant)."""

    def sign_of(poly, signs):
        for j, p in enumerate(base):
            if poly == p:
                return signs[j]
            if poly == -p:
                return -signs[j]
        if poly.is_constant():
            v = poly.constant_value()
            return (v > 0) - (v < 0)
        raise ValueError(
            f"formula atom {poly.to_text()} is not a family member")

    return tuple(
        signs for signs in itertools.product((-1, 0, 1), repeat=len(base))
        if eval_signs(formula, lambda p: sign_of(p, signs))
    )


def boxed_problem(base, rows, m: int, n: int, omega):
    """Append the bounding-box members X_i +/- omega, Y_j +/- omega and
    extend every sign vector with the signs that keep the box."""
    ring = base[0].ring
    extra = []
    extra_signs = []
    for i in range(m + n):
        v = Polynomial.variable(ring, i)
        extra.append(v + Q(omega))
        extra_signs.append(1)
        extra.append(v - Q(omega))
        extra_signs.append(-1)
    new_base = tuple(base) + tuple(extra)
    new_rows = tuple(row + tuple(extra_signs) for row in rows)
    return new_base, new_rows


def _write_atomic(path: str, content: str):
    # no partial files on failure: write to a sibling temp file and rename
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-fiberatlas-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _opt(args_value, options, key, default, conv):
    if args_value is not None:
        return args_value
    if key in options:
        return conv(options[key])
    return default


def cmd_atlas(args) -> int:
    try:
        with open(args.problem) as fh:
            pf = parse_problem_file(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProblemParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    opts = pf.options
    try:
        delta = Q(_opt(args.delta, opts, "delta", "1/64", str))
        rounds = int(_opt(args.refine_rounds, opts, "refine_rounds", 3, int))
        mode = _opt(args.mode, opts, "mode", "exact", str)
        grid_res = Q(_opt(args.grid_res, opts, "grid_res", "1/1024", str))
        boxed = args.boxed or opts.get("boxed", "").lower() in ("1", "true", "yes")
        omega = int(_opt(args.omega, opts, "omega", 2 ** 20, int))
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
        if grid_res <= 0:
            raise ValueError(f"grid_res must be positive, got {grid_res}")
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad option value: {exc}", file=sys.stderr)
        return 2
    if mode not in ("exact", "grid"):
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    base = pf.polys
    rows = pf.sigma_rows
    if pf.formula_text:
        try:
            formula = parse_formula(pf.formula_text, pf.ring)
            rows = sigma_from_formula(formula, base)
        except (ParseError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if boxed:
        base, rows = boxed_problem(base, rows, pf.m, pf.n, omega)
    sigma_set = [SignCondition(base, row) for row in rows]
    try:
        report = run_atlas(base, sigma_set, pf.m, pf.n, delta=delta,
                           refine_rounds=rounds, fiber_mode=mode,
                           grid_res=grid_res)
    except UnsupportedModeError as exc:
        print(f"error: unsupported mode: {exc}", file=sys.stderr)
        return 2
    except DegenerateEliminationError as exc:
        print(f"error: degenerate after {rounds} refinement rounds: {exc}",
              file=sys.stderr)
        return 3
    print(report.to_table())
    if args.json:
        _write_atomic(args.json, report.to_json() + "\n")
    if args.dump_csv:
        lines = ["left,right,sample,b0"]
        for c, f in zip(report.cells, report.fibers):
            lo = "" if c.left is None else str(c.left)
            hi = "" if c.right is None else str(c.right)
            lines.append(f"{lo},{hi},{c.sample},{f.b0}")
        _write_atomic(args.dump_csv, "\n".join(lines) + "\n")
    return 0


def cmd_bounds(args) -> int:
    params = {}
    for part in args.params:
        name, eq, val = part.partition("=")
        if not eq:
            print(f"error: parameter {part!r} is not key=value", file=sys.stderr)
            return 2
        try:
            params[name] = int(val)
        except ValueError:
            if args.name == "count" and name == "scheme":
                params[name] = val
            else:
                print(f"error: parameter {part!r} is not an integer",
                      file=sys.stderr)
                return 2
    try:
        if args.name == "count":
            scheme = params.pop("scheme", "pprime_paper")
            value = count_family(params["s"], params["m"], scheme)
            symbolic = f"count_family[{scheme}]"
            shown = dict(params, scheme=scheme)
        elif args.name == "metric":
            rep = metric_radius(**params)
            value = rep.value
            symbolic = BOUNDS["metric"].symbolic
            shown = dict(params)
            if rep.warning:
                print(f"warning: {rep.warning}", file=sys.stderr)
        else:
            if args.name not in BOUNDS:
                print(f"error: unknown bound {args.name!r}", file=sys.stderr)
                return 2
            value = evaluate_bound(args.name, **params)
            symbolic = BOUNDS[args.name].symbolic
            shown = dict(params)
        c = shown.get("c", 1)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        value_text = str(value)
    except ValueError:  # beyond the interpreter's int-to-decimal limit
        print(f"error: value has {value.bit_length()} bits, too large to "
              f"print in decimal", file=sys.stderr)
        return 2
    param_text = " ".join(f"{k}={v}" for k, v in sorted(shown.items()))
    print(f"{args.name}  {symbolic}  [{param_text}]  c={c}  value={value_text}")
    if args.json:
        payload = {
            "name": args.name,
            "symbolic": symbolic,
            "params": {k: str(v) for k, v in sorted(shown.items())},
            "c": c,
            "value": value_text,
        }
        _write_atomic(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_lift(args) -> int:
    try:
        with open(args.problem) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    expr_texts = []
    formula_text = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "poly":
            expr_texts.append((lineno, rest.strip()))
        elif key == "formula":
            formula_text = rest.strip()
        elif key == "vars":
            continue
        else:
            print(f"error: line {lineno}: unknown directive {key!r}",
                  file=sys.stderr)
            return 2
    if not expr_texts:
        print("error: no poly lines", file=sys.stderr)
        return 2
    try:
        progs = [parse_slp(src) for _, src in expr_texts]
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fring = Ring(len(progs), 0)
    if formula_text:
        try:
            formula = parse_formula(formula_text, fring)
        except (ParseError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        formula = And(tuple(
            Atom(Polynomial.variable(fring, k), ">") for k in range(len(progs))
        ))
    try:
        ls = lift(progs, formula)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = verify_lift(ls, progs, formula)
    print(f"m={ls.m} a={ls.a}")
    for k, j, name in ls.names:
        print(f"  {name} lifts step {j} of program {k}")
    for eq in ls.equations:
        print(f"  {eq.to_text()} = 0")
    print(f"  formula: {formula_to_text(ls.rewritten_formula)}")
    print(f"verified: symbolic={rep.symbolic_ok} "
          f"samples={rep.sample_count} failures={len(rep.sample_failures)}")
    if args.json:
        payload = dict(ls.to_json_dict(),
                       formula=formula_to_text(ls.rewritten_formula),
                       verified=rep.passed)
        _write_atomic(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if rep.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberatlas",
        description="Exact census of fiber topology over a one-dimensional "
                    "parameter space, bound evaluation, trinomial lifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("atlas", help="run the parameter-space census")
    a.add_argument("problem", help="problem file path")
    a.add_argument("--delta", default=None, help="perturbation base (rational)")
    a.add_argument("--refine-rounds", type=int, default=None)
    a.add_argument("--mode", choices=("exact", "grid"), default=None)
    a.add_argument("--grid-res", default=None, help="grid resolution (rational)")
    a.add_argument("--boxed", action="store_true",
                   help="intersect with the coordinate box of radius omega")
    a.add_argument("--omega", type=int, default=None)
    a.add_argument("--json", default=None, help="write the JSON report here")
    a.add_argument("--dump-csv", default=None,
                   help="write cell boundaries and b0 as CSV")
    a.set_defaults(func=cmd_atlas)

    b = sub.add_parser("bounds", help="evaluate a named bound exactly")
    b.add_argument("name", help="main, main_precise, lists, fewnomial, "
                   "additive, pfaffian, metric, or count")
    b.add_argument("params", nargs="*", help="key=value parameters")
    b.add_argument("--json", default=None)
    b.set_defaults(func=cmd_bounds)

    l = sub.add_parser("lift", help="rewrite expressions as trinomial systems")
    l.add_argument("problem", help="expression file path")
    l.add_argument("--json", default=None)
    l.set_defaults(func=cmd_lift)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
