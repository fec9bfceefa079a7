"""Command-line entry point.

Subcommands: atlas (parameter-space census), bounds (exact bound
evaluation), lift (trinomial rewriting of expressions).  Exit codes:
0 success, 2 malformed input or unsupported request, 3 a lift that
failed its verification.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction as Q

from .atlas import UnsupportedModeError, run_atlas
from .bounds import BOUNDS, MetricRadiusReport, bit_length_floor, count_family
from .polycore import ParseError, Polynomial, Ring, parse_polynomial
from .semialg import And, Atom, SignCondition, eval_signs, formula_to_text, parse_formula
from .slp import lift, parse_slp, verify_lift


class _Refusal(Exception):
    """A request refused where it is met: `main` prints `error: ` and the
    message, and exits 2."""


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
    formula: object  # the parsed formula line, alternative to sigma rows, or None
    options: dict = field(default_factory=dict)

    @property
    def ring(self) -> Ring:
        return Ring(self.m, self.n)


_SIGN_TOKENS = {"1": 1, "+1": 1, "+": 1, "0": 0, "-1": -1, "-": -1}
_OPTIONS = ("delta", "boxed", "omega")
_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _directives(text: str, keys):
    """(line number, directive, rest of the line) for each line of a
    problem file that is not blank or a comment.  A directive not in
    keys is refused, and so is a second `vars` or `formula` line."""
    first = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key not in keys:
            raise ProblemParseError(f"unknown directive {key!r}", lineno)
        if key in ("vars", "formula"):
            if key in first:
                raise ProblemParseError(
                    f"repeated {key} line (the first is line {first[key]})", lineno)
            first[key] = lineno
        yield lineno, key, rest.strip()


def parse_problem_file(text: str) -> ProblemFile:
    m = n = None
    poly_texts = []
    sigma_rows = []
    formula_line = (0, "")
    options = {}
    for lineno, key, rest in _directives(text, ("vars", "poly", "sigma", "formula", "option")):
        if key == "vars":
            for part in rest.split():
                name, _, val = part.partition("=")
                if name not in ("m", "n"):
                    raise ProblemParseError(f"unknown vars field {name!r}", lineno)
                try:
                    count = int(val)
                except ValueError:
                    count = -1
                if count < 0:
                    raise ProblemParseError(
                        f"vars {name} must be an integer >= 0, got {val!r}", lineno)
                if name == "m":
                    m = count
                else:
                    n = count
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
            formula_line = (lineno, rest)
        else:
            name, eq, val = rest.partition("=")
            name, val = name.strip(), val.strip()
            if not eq:
                raise ProblemParseError("option lines use key=value", lineno)
            if name not in _OPTIONS:
                raise ProblemParseError(f"unknown option {name!r}", lineno)
            if name in options:
                raise ProblemParseError(f"repeated option {name!r}", lineno)
            if name == "boxed" and val.lower() not in _TRUE + _FALSE:
                raise ProblemParseError(f"boxed must be one of {', '.join(_TRUE + _FALSE)}, "
                                        f"got {val!r}", lineno)
            options[name] = val
    if m is None or n is None:
        raise ProblemParseError("missing vars line", 1)
    if not poly_texts:
        raise ProblemParseError("no poly lines", 1)
    ring = Ring(m, n)
    polys = [_parse_line(parse_polynomial, lineno, src, ring) for lineno, src in poly_texts]
    formula = _parse_line(parse_formula, *formula_line, ring) if formula_line[1] else None
    rows = []
    for lineno, row in sigma_rows:
        if len(row) != len(polys):
            raise ProblemParseError(
                f"sigma vector length {len(row)} differs from family size "
                f"{len(polys)}", lineno)
        rows.append(row)
    if rows and formula is not None:
        raise ProblemParseError("give sigma rows or a formula, not both", 1)
    if not rows and formula is None:
        if formula_line[0]:
            raise ProblemParseError("empty formula", formula_line[0])
        raise ProblemParseError("no sigma rows and no formula line", 1)
    return ProblemFile(m, n, tuple(polys), tuple(rows), formula, options)


def parse_lift_file(text: str):
    """The straight-line programs of a lift file's poly lines and its
    formula over their values X1..Xk, by default all of them positive;
    a vars line is allowed and ignored."""
    poly_texts = []
    formula_line = (0, "")
    for lineno, key, rest in _directives(text, ("vars", "poly", "formula")):
        if key == "poly":
            poly_texts.append((lineno, rest))
        elif key == "formula":
            formula_line = (lineno, rest)
    if not poly_texts:
        raise ProblemParseError("no poly lines", 1)
    progs = [_parse_line(parse_slp, lineno, src) for lineno, src in poly_texts]
    ring = Ring(len(progs), 0)
    if formula_line[1]:
        return progs, _parse_line(parse_formula, *formula_line, ring)
    return progs, And(tuple(Atom(Polynomial.variable(ring, k), ">")
                            for k in range(len(progs))))


def _parse_line(parse, lineno, src, *args):
    """parse(src, *args), its errors tagged with the line number."""
    try:
        return parse(src, *args)
    except (ParseError, ValueError) as exc:
        raise ProblemParseError(str(exc), lineno) from exc


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
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-fiberatlas-")
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
        raise _Refusal(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _opt(args_value, options, key, default, conv):
    """Option `key` from the command line, else the problem file, else
    `default`, converted by conv; a bad value names the option."""
    value = args_value if args_value is not None else options.get(key, default)
    try:
        return conv(value)
    except ZeroDivisionError:
        raise ValueError(f"{key}: zero denominator in {value}") from None
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _read(path, parse):
    """parse of the text of the file at path; a file that cannot be read
    or parsed is refused."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ProblemParseError) as exc:
        raise _Refusal(str(exc)) from exc


def cmd_atlas(args) -> int:
    pf = _read(args.problem, parse_problem_file)
    opts = pf.options
    try:
        delta = _opt(args.delta, opts, "delta", "1/64", Q)
        boxed = args.boxed or opts.get("boxed", "").lower() in _TRUE
        omega = _opt(args.omega, opts, "omega", 2 ** 20, int)
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
    except ValueError as exc:
        raise _Refusal(f"bad option value: {exc}") from None
    base = pf.polys
    rows = pf.sigma_rows
    if pf.formula is not None:
        try:
            rows = sigma_from_formula(pf.formula, base)
        except ValueError as exc:
            raise _Refusal(str(exc)) from None
    if boxed:
        base, rows = boxed_problem(base, rows, pf.m, pf.n, omega)
    sigma_set = [SignCondition(base, row) for row in rows]
    try:
        report = run_atlas(base, sigma_set, pf.m, pf.n, delta=delta)
    except UnsupportedModeError as exc:
        raise _Refusal(f"unsupported mode: {exc}") from None
    # the report prints every cell end, sample and the delta it used
    shown = [report.delta_used] + [x for c in report.cells
                                   for x in (c.left, c.right, c.sample) if x is not None]
    bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in shown)
    if bits > _printable_bits():
        raise _Refusal(f"a cell end, sample or delta has {bits} bits, too large to "
                       f"print in decimal (delta's denominator has "
                       f"{delta.denominator.bit_length()} bits)")
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


def _printable_bits():
    """A bit length above which an integer has more decimal digits than
    str() converts (sys.get_int_max_str_digits), or than the default
    limit when that is off or missing, so the refusal does not depend on
    the interpreter's settings."""
    digits = (getattr(sys, "get_int_max_str_digits", lambda: 0)()
              or getattr(sys.int_info, "default_max_str_digits", 4300))
    return (10 ** digits).bit_length()


def cmd_bounds(args) -> int:
    params = {}
    for part in args.params:
        name, eq, val = part.partition("=")
        if not eq:
            raise _Refusal(f"parameter {part!r} is not key=value")
        if name in params:
            raise _Refusal(f"parameter {name!r} given twice")
        try:
            params[name] = int(val)
        except ValueError:
            if args.name == "count" and name == "scheme":
                params[name] = val
            else:
                raise _Refusal(f"parameter {part!r} is not an integer") from None
    try:
        if args.name == "count":
            params.setdefault("scheme", "pprime_paper")
            symbolic = f"count_family[{params['scheme']}]"
            evaluate = count_family
        elif args.name in BOUNDS:
            symbolic = BOUNDS[args.name].symbolic
            evaluate = BOUNDS[args.name].evaluate
        else:
            raise _Refusal(f"unknown bound {args.name!r}")
        bits, exact = bit_length_floor(args.name, **params)
        if bits > _printable_bits():
            param_text = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            raise _Refusal(f"value has {'' if exact else 'at least '}{bits} "
                           f"bits, too large to print in decimal: {args.name} "
                           f"{symbolic} [{param_text}]")
        value = evaluate(**params)
        if isinstance(value, MetricRadiusReport):
            if value.warning:
                print(f"warning: {value.warning}", file=sys.stderr)
            value = value.value
    except (KeyError, TypeError, ValueError) as exc:
        raise _Refusal(str(exc)) from None
    try:
        value_text = str(value)
    except ValueError:  # beyond the interpreter's int-to-decimal limit
        raise _Refusal(f"value has {value.bit_length()} bits, too large to "
                       f"print in decimal") from None
    param_text = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    payload = {
        "name": args.name,
        "symbolic": symbolic,
        "params": {k: str(v) for k, v in sorted(params.items())},
        "value": value_text,
    }
    # c, the unspecified constant of an asymptotic bound; a count has none
    c_text = ""
    if args.name != "count":
        payload["c"] = params.get("c", 1)
        c_text = f"  c={payload['c']}"
    print(f"{args.name}  {symbolic}  [{param_text}]{c_text}  value={value_text}")
    if args.json:
        _write_atomic(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_lift(args) -> int:
    progs, formula = _read(args.problem, parse_lift_file)
    try:
        ls = lift(progs, formula)
    except ValueError as exc:
        raise _Refusal(str(exc)) from None
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


@functools.cache  # one parser per process: each would be left as cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberatlas",
        description="Exact census of fiber topology over a one-dimensional "
                    "parameter space, bound evaluation, trinomial lifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("atlas", help="run the parameter-space census")
    a.add_argument("problem", help="problem file path")
    a.add_argument("--delta", default=None, help="perturbation base (rational)")
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
    try:
        return args.func(args)
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
