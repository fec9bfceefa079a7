"""One workload in one single-threaded process; started by run.py.

Prints one JSON line: the set-up time, and unless --setup-only the
operations' times, failures and (with --trace 1) the per-layer split.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import types
from fractions import Fraction

import corpus
import reference
import tracing

WORKLOADS = ("census-fiber", "census-elim", "bounds-lift")
BOUND_FUNCS = sorted({case.func for case in corpus.BOUND_CASES})
SLP_FUNCS = ("parse_slp", "lift", "verify_lift")


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here")
    return ap.parse_args(argv)


class Census:
    """`fiberatlas atlas FILE --json OUT`, called in-process."""

    def __init__(self, fiberatlas, workdir, census):
        self.cli = fiberatlas.cli
        self.census = census
        self.name = census.name
        self.path = os.path.join(workdir, census.name + ".txt")
        self.out = os.path.join(workdir, census.name + ".json")
        with open(self.path, "w") as fh:
            fh.write(census.text)
        self.first = None  # (report bytes, mismatches) of the first run
        self.artifacts = None

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["atlas", self.path, "--json", self.out])
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    def check(self):
        with open(self.out, "rb") as fh:
            data = fh.read()
        os.unlink(self.out)
        if self.first is None:
            bad, self.artifacts = reference.check_census(self.census, json.loads(data))
            self.first = (data, bad)
        elif data != self.first[0]:
            return ["report differs from the first run on the same input"]
        return self.first[1]


class Bound:
    def __init__(self, lib, case):
        self.lib, self.case, self.name = lib, case, case.name
        self.expected = None

    def run(self):
        value = getattr(self.lib, self.case.func)(*self.case.args)
        self.value = getattr(value, "value", value)

    def check(self):
        if self.expected is None:
            self.expected = reference.expected_bound(self.case.powers)
        value, self.value = self.value, None
        return reference.check_bound(value, self.expected)


class Lift:
    def __init__(self, lib, fiberatlas, text):
        self.lib, self.text, self.name = lib, text, f"lift {text!r}"
        ring = fiberatlas.polycore.Ring(1, 0)
        self.formula = fiberatlas.semialg.Atom(
            fiberatlas.polycore.Polynomial.variable(ring, 0), ">")
        self.fa = fiberatlas
        self.verdict = None

    def run(self):
        prog = self.lib.parse_slp(self.text)
        ls = self.lib.lift([prog], self.formula)
        rep = self.lib.verify_lift(ls, [prog], self.formula, samples=5)
        self.result = (prog, ls, rep)

    def check(self):
        prog, ls, rep = self.result
        self.result = None
        if not rep.symbolic_ok:
            return ["verify_lift: symbolic check failed"]
        if self.verdict is None:
            # expansion checks depend only on the text
            fa = self.fa
            bad = []
            expanded = fa.slp.expand(prog)
            direct = fa.polycore.parse_polynomial(self.text, fa.polycore.Ring(prog.m, 0))
            if expanded != direct:
                bad.append("expand differs from parse_polynomial")
            for point in reference.EVAL_POINTS:
                want = reference.fraction_eval(self.text, point)
                if expanded.eval_at(tuple(point[:prog.m])) != want:
                    bad.append(f"expansion at {point} differs from Fraction evaluation")
            self.verdict = bad
        return self.verdict


def build_ops(args, fiberatlas, workdir):
    root = os.getcwd()
    if args.workload == "bounds-lift":
        lib = types.SimpleNamespace(__name__="bench")
        for name in BOUND_FUNCS:
            setattr(lib, name, getattr(fiberatlas.bounds, name))
        for name in SLP_FUNCS:
            setattr(lib, name, getattr(fiberatlas.slp, name))
        ops = [
            Bound(lib, item) if kind == "bound" else Lift(lib, fiberatlas, item)
            for kind, item in corpus.bounds_lift(args.seed)
        ]
        return ops, lib
    if args.workload == "census-fiber":
        censuses = corpus.census_fiber(root, args.seed)
    else:
        censuses = corpus.census_elim(args.seed)
    return [Census(fiberatlas, workdir, c) for c in censuses], None


def install_tracer(fiberatlas, lib):
    tracer = tracing.Tracer()
    if lib is None:
        tracing.install(tracer, fiberatlas)
    else:
        def bits(t, value):
            t.bump("bounds.value_bits", getattr(value, "value", value).bit_length())

        for name in BOUND_FUNCS:
            tracer.span(lib, name, "bounds", bits)
        tracer.span(lib, "parse_slp", "slp")
        tracer.span(lib, "lift", "slp", lambda t, ls: t.bump("slp.lift_vars", ls.a))
        tracer.span(lib, "verify_lift", "slp")
    return tracer


# A shared host can run this process a third slower for seconds to
# minutes at a time, with no steal time to show for it.  A fixed loop of
# big-integer and Fraction arithmetic slows down in step, so an
# operation's time is reported in nominal seconds: its CPU time over the
# median CPU time of that loop while the operation ran, times
# CAL_NOMINAL_S.  A SIGALRM handler runs the loop every CAL_INTERVAL_S of
# wall time (about 4% of the CPU), and the loops are taken out of the
# operation's CPU time.  An operation that holds fewer than CAL_SAMPLES
# loops is scaled by the last CAL_SAMPLES before its end.  Timing the
# loop only before each operation followed slow spells too late: one
# family census then read 2.4 to 4.2 nominal seconds within one run.
# ITIMER_PROF is not used: while it is armed, process_time() advances in
# steps of milliseconds, and a whole loop could read 0 s.
CAL_NOMINAL_S = 0.004
CAL_INTERVAL_S = 0.1
CAL_SAMPLES = 5


def calibration_loop():
    x, acc = 1, Fraction(0)
    for i in range(1, 1000):
        x = (x * 1103515245 + 12345) % (1 << 200)
        acc += Fraction(x % 1000 + 1, i)
    return acc


class HostSpeed:
    """Times the calibration loop, from a SIGALRM handler between start()
    and stop(), and scales CPU times by it."""

    def __init__(self):
        self.samples = []  # (process_time() at the loop's end, its CPU s)
        self.busy = False

    def sample(self, *_):
        if self.busy:  # a signal that arrived during the loop
            return
        self.busy = True
        start = time.process_time()
        calibration_loop()
        end = time.process_time()
        self.samples.append((end, end - start))
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, cpu_s, loops):
        return cpu_s * CAL_NOMINAL_S / statistics.median(loops)

    def op_time(self, start, end):
        """(CPU s from start to end without the loops run in between,
        the same in nominal s)."""
        inside = [d for t, d in self.samples if start < t <= end]
        cpu_s = end - start - sum(inside)
        if len(inside) < CAL_SAMPLES:
            inside = [d for t, d in self.samples if t <= end][-CAL_SAMPLES:]
        return cpu_s, self.nominal(cpu_s, inside)


def run_round(ops, tracer, failures, op_layer, host):
    """Run every operation once; returns their CPU times, the same in
    nominal seconds, and the CPU seconds spent in all of them.  An
    operation that raised has no time (None); one that returned a wrong
    output keeps its time and is listed in failures like the first."""
    times, nominal, spent = [], [], 0.0
    for op in ops:
        start = time.process_time()
        try:
            if tracer is None:
                op.run()
            else:
                with tracer.op_span(op_layer, op.name):
                    op.run()
        except (Exception, SystemExit) as exc:
            elapsed = host.op_time(start, time.process_time())[0]
            times.append(None)
            nominal.append(None)
            bad = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed, scaled = host.op_time(start, time.process_time())
            times.append(elapsed)
            nominal.append(scaled)
            bad = op.check()
        spent += elapsed
        if bad:
            failures.append({"input": op.name, "reasons": bad})
    return times, nominal, spent


def round_split(spans, counts, maxima, ops, lib):
    """Per-layer metrics of one traced round."""
    inclusive, self_s = tracing.span_times(spans)
    out = {}
    if lib is None:
        narrow, artifact = (
            sum(c) for c in zip((0, 0), *(op.artifacts or (0, 0) for op in ops)))
        out.update({
            "perturb.s": inclusive["atlas.build_ladder"] + inclusive["atlas.construct_S_prime"],
            "critical.s": inclusive["atlas.enumerate_strata"] + inclusive["atlas.systems_for_strata"],
            "eliminate.s": inclusive["atlas.assemble_G"],
            "eliminate.resultant_s": inclusive["eliminate.resultant"],
            "eliminate.isolate_s": inclusive["eliminate.isolate_basis_roots"],
            "eliminate.self_s": self_s["eliminate"],
            "atlas.self_s": self_s["atlas"],
            "atlas.cells_narrow": narrow,
            "atlas.cells_artifact_b0": artifact,
            "atlas.fiber_s": inclusive["atlas.fiber_b0"],
            "atlas.fiber_isolate_s": inclusive["atlas.isolate_basis_roots"],
            "atlas.fiber_basis_s": inclusive["atlas.coprime_basis"],
            "polycore.self_s": self_s["polycore"],
            "cli.s": self_s["cli"],
        })
    else:
        out.update({
            "bounds.s": self_s["bounds"],
            "slp.lift_s": inclusive["bench.lift"],
            "slp.verify_s": inclusive["bench.verify_lift"],
            "slp.self_s": self_s["slp"],
        })
    out.update(counts)
    out.update(maxima)
    return out


def main(argv=None):
    args = parse_args(argv)
    import fiberatlas

    root = os.path.realpath(os.getcwd())
    if not os.path.realpath(fiberatlas.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"fiberatlas imported from {fiberatlas.__file__}, not {root}/src")
    outdir = os.path.join(root, "benchmark", "out")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        ops, lib = build_ops(args, fiberatlas, workdir)
        # CPU seconds of this process so far: interpreter start, imports
        # and the inputs
        setup_cpu_s = time.process_time()
        host = HostSpeed()
        for _ in range(CAL_SAMPLES):
            host.sample()
        loops = [d for _, d in host.samples]
        setup = {"setup_s": host.nominal(setup_cpu_s, loops), "setup_cpu_s": setup_cpu_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        host.start()
        try:
            result = measure(args, fiberatlas, ops, lib, host)
        finally:
            host.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def measure(args, fiberatlas, ops, lib, host):
    op_layer = "bench" if lib is not None else "cli"
    failures = []
    untraced, traced = [], []  # per round: list of op CPU times
    untraced_nominal, traced_nominal = [], []
    spent = {"untraced": 0.0, "traced": 0.0}
    splits = []
    all_spans = []

    def run(kind):
        if kind == "untraced":
            times, nominal, secs = run_round(ops, None, failures, op_layer, host)
            untraced.append(times)
            untraced_nominal.append(nominal)
        else:
            tracer = install_tracer(fiberatlas, lib)
            try:
                times, nominal, secs = run_round(ops, tracer, failures, op_layer, host)
            finally:
                tracer.restore()
            traced.append(times)
            traced_nominal.append(nominal)
            splits.append(round_split(tracer.spans, tracer.counts, tracer.maxima, ops, lib))
            all_spans.append(tracer.spans)
        spent[kind] += secs

    # CPU seconds of operations for each kind of round (checks are not
    # counted); a traced run splits --seconds between the two kinds
    budget = args.seconds / 2 if args.trace else args.seconds

    def fits(kind, rounds):
        # one more round of average length fits in the budget
        return budget - spent[kind] >= spent[kind] / len(rounds)

    if args.trace:
        # traced, untraced, traced, then pairs while both budgets allow:
        # at least two traced rounds for the count check, and the
        # untraced rounds for the tracing overhead
        for kind in ("traced", "untraced", "traced"):
            run(kind)
        while fits("traced", traced) and fits("untraced", untraced):
            run("untraced")
            run("traced")
    else:
        run("untraced")
        while fits("untraced", untraced):
            run("untraced")
    done = untraced + traced
    attempted = sum(len(r) for r in done)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "rounds": len(done),
        "ops_per_round": len(ops),
        "round_s": [sum(t for t in r if t is not None) for r in done],
    }
    if not args.trace:
        # each operation's median nominal time over the rounds; the CPU
        # times are printed beside them
        ok = [k for k, ts in enumerate(zip(*untraced)) if None not in ts]
        per_op = [statistics.median(r[k] for r in untraced_nominal) for k in ok]
        cpu = [statistics.median(r[k] for r in untraced) for k in ok]
        result.update({
            "ops_per_s": len(per_op) / sum(per_op) if per_op else 0.0,
            "op_p50_s": statistics.median(per_op) if per_op else 0.0,
            "cpu_ops_per_s": len(cpu) / sum(cpu) if cpu else 0.0,
            "cpu_op_p50_s": statistics.median(cpu) if cpu else 0.0,
            "samples": len(per_op),
        })
        return result
    result["layers"], result["unrepeated_counts"] = layer_metrics(
        splits, untraced_nominal, traced_nominal)
    result["artifacts"] = {
        op.name: op.artifacts for op in ops if getattr(op, "artifacts", None)
    }
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["op", "id", "parent", "layer", "name", "start", "end"],
                       "rounds": all_spans}, fh)
    return result


def layer_metrics(splits, untraced, traced):
    """(metrics, unrepeated counts).  Times: median over traced rounds.
    Counts: one round's, which every traced round must repeat; those that
    differ are returned with their values per round.  trace.overhead_s
    compares the nominal times of traced and untraced rounds."""
    out, unrepeated = {}, {}
    for key in splits[0]:
        values = [s.get(key, 0) for s in splits]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                unrepeated[key] = values
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)

    def round_time(r):
        return sum(t for t in r if t is not None)

    out["trace.overhead_s"] = (statistics.median(map(round_time, traced))
                               - statistics.median(map(round_time, untraced)))
    return out, unrepeated


if __name__ == "__main__":
    sys.exit(main())
