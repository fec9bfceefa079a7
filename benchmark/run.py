"""fiberatlas benchmark: three workloads, each in its own child process.

Run from the root of a checkout:

    python3 benchmark/run.py --workload census-fiber --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --all --seed 1

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced run.  --all runs every workload untraced
and traced, prints each one's metrics and layer split, and writes them to
benchmark/out/summary-<seed>.json.  Every operation's output is checked
against references in benchmark/reference.py; a failed check, exception
or nonzero exit code counts as a failed operation and is listed.  Times
are nominal seconds: CPU seconds scaled by the speed of a calibration
loop run beside the operations (child.py), which follows the shared
host's slow spells.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# set-ups measured per run: this many set-up-only children plus the
# measuring child, reported as their median
SETUP_PROBES = 8
# the whole command must end within this many seconds
DEADLINE_S = 170
NEEDED = ("BENCHMARK.json", "src/fiberatlas/__init__.py",
          "problems/quadric.txt", "problems/twolines.txt")


class BenchError(Exception):
    pass


def spawn(root, argv, timeout):
    """Run child.py single-threaded against root/src; its last stdout
    line is a JSON object."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {timeout:.0f} s: {' '.join(argv)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def run_workload(root, workload, seed, seconds, trace, deadline, spans=None):
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(spawn(root, base + ["--setup-only"], deadline - time.monotonic()))
    extra = ["--spans", spans] if spans else []
    result = spawn(root, base + extra, deadline - time.monotonic())
    probes.append(dict(result))
    result["setup_samples"] = [p["setup_s"] for p in probes]
    result["setup_s"] = statistics.median(result["setup_samples"])
    result["setup_cpu_s"] = statistics.median(p["setup_cpu_s"] for p in probes)
    return result


def end_to_end(result):
    """Every end-to-end metric, including fail_ratio, which is not in
    BENCHMARK.json because it reads 0 on a passing run."""
    return {
        "ops_per_s": result["ops_per_s"],
        "op_p50_s": result["op_p50_s"],
        "fail_ratio": result["failed"] / result["attempted"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def is_correct(result):
    """No operation failed and, in a traced run, every count repeated."""
    return result["failed"] == 0 and not result.get("unrepeated_counts")


def print_result(workload, seed, result, trace, spec):
    print(f"{workload}  seed {seed}  {result['rounds']} rounds x "
          f"{result['ops_per_round']} ops  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct: {'yes' if is_correct(result) else 'NO'}")
    for f in result["failures"]:
        print(f"  FAILED {f['input']}: {'; '.join(f['reasons'])}")
    for key, values in result.get("unrepeated_counts", {}).items():
        print(f"  COUNT {key} differs between traced rounds: {values}")
    print("  round CPU times (s): " + " ".join(f"{t:.3f}" for t in result["round_s"]))
    if not trace:
        notes = {
            "ops_per_s": f"nominal; {result['cpu_ops_per_s']:.6g} in CPU time",
            "op_p50_s": f"nominal, median of {result['samples']} operations; "
                        f"{result['cpu_op_p50_s']:.6g} in CPU time",
            "fail_ratio": f"{result['failed']} of {result['attempted']}",
            "setup_s": f"nominal, median of {len(result['setup_samples'])} set-ups, "
                       f"{min(result['setup_samples']):.4f} to "
                       f"{max(result['setup_samples']):.4f} s; "
                       f"{result['setup_cpu_s']:.4g} in CPU time",
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in end_to_end(result).items():
            print(f"  {name:<14}{value:>14.6g} {units.get(name, '1'):<5} "
                  f"{notes.get(name, '')}")
        return
    layers = result["layers"]
    for name in sorted(layers, key=lambda k: (k.split(".")[0], k)):
        print(f"  {name:<26}{layers[name]:>16.6g}")
    for name, (narrow, artifact) in sorted(result["artifacts"].items()):
        print(f"  {name}: {narrow} narrow cells, {artifact} with a b0 no wide cell has")


def benchmark_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    started = time.monotonic()
    root = os.getcwd()
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: not the root of a fiberatlas checkout; missing {missing}",
              file=sys.stderr)
        return 2
    spec = benchmark_spec(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    try:
        if args.all:
            return run_all(root, args, outdir, spec)
        spans = None
        if args.trace:
            spans = os.path.join(outdir, f"spans-{args.workload}-{args.seed}.json")
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              args.trace, started + DEADLINE_S, spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(args.workload, args.seed, result, args.trace, spec)
    if args.trace:
        values = result["layers"]
        names = spec["per_layer"]
    else:
        values = end_to_end(result)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in names}
    print(json.dumps({"correct": is_correct(result),
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(root, args, outdir, spec):
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + 10 * DEADLINE_S
            result = run_workload(root, workload, args.seed, args.seconds, trace,
                                  deadline)
            print_result(workload, args.seed, result, trace, spec)
            summary["workloads"].setdefault(workload, {})[
                "traced" if trace else "untraced"] = result
            failed += not is_correct(result)
    path = os.path.join(outdir, f"summary-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, root)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
