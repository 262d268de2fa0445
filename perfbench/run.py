#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run, as the benchmark contract asks:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints the run's JSON object as the last line of standard output and exits
with the benchmark's own code. A traced run also writes its spans to
perfbench/out/<workload>.spans.tsv.

Every workload, untraced and traced, with all output checks:

    python3 perfbench/run.py [--seed <n>] [--seconds <s>]

prints every metric by name with its unit, the tracing overhead, and exits
non-zero if any check fails.

Run both from the root of the repository. The build uses CARGO_TARGET_DIR
when it is set.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["closed_specint", "fleet_day"]
DEFAULT_SEED = 190


def build():
    """Builds the release binary and returns its path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--message-format", "json-render-diagnostics"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run.py: build failed ({proc.returncode})", file=sys.stderr)
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "taskdrop_perfbench":
            return msg["executable"]
    print("run.py: the build produced no benchmark binary", file=sys.stderr)
    return None


def parse(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            sys.exit(f"run.py: unexpected argument {flag}")
        value = next(it, None)
        if value is None:
            sys.exit(f"run.py: {flag} needs a value")
        args[flag[2:]] = value
    unknown = set(args) - {"workload", "seed", "seconds", "trace"}
    if unknown:
        sys.exit(f"run.py: unknown arguments {sorted(unknown)}")
    return args


def run_one(exe, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace == 1:
        cmd += ["--spans", os.path.join(HERE, "out", f"{workload}.spans.tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def summary(lines):
    """The deterministic outputs and the result object of one run."""
    det = next((json.loads(l[len("deterministic "):]) for l in lines
                if l.startswith("deterministic ")), None)
    result = json.loads(lines[-1]) if lines else None
    return det, result


def run_all(exe, seed, seconds):
    failed = []
    for workload in WORKLOADS:
        print(f"\n{workload} (seed {seed}, {seconds} s per run)")
        code0, out0 = run_one(exe, workload, seed, seconds, 0)
        code1, out1 = run_one(exe, workload, seed, seconds, 1)
        (det0, plain), (det1, traced) = summary(out0), summary(out1)
        if plain is None or traced is None:
            failed.append(f"{workload}: a run printed no result")
            continue
        for name, m in plain["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.4f} {m['unit']}")
        layers = traced["metrics"]
        print(f"  traced run: {len(layers)} per-layer metrics in "
              f"perfbench/out/{workload}.spans.tsv")
        print("  tracing overhead: {:.0f} tasks/s traced vs {:.0f} untraced ({:+.1f} %)".format(
            layers["trace.tasks_per_s.traced"]["value"],
            layers["trace.tasks_per_s.untraced"]["value"],
            layers["trace.overhead_pct"]["value"]))
        print(f"  calls failed: {plain['failed']} of {plain['attempted']}")
        if code0 or code1 or not plain["correct"] or not traced["correct"]:
            failed.append(f"{workload}: an output check failed (see above)")
        if det0 != det1:
            failed.append(f"{workload}: traced and untraced runs disagree: {det0} vs {det1}")
    for f in failed:
        print(f"FAILED {f}")
    print("\nall checks passed" if not failed else f"\n{len(failed)} check(s) failed")
    return 1 if failed else 0


def main():
    args = parse(sys.argv[1:])
    exe = build()
    if exe is None:
        return 1
    seed = int(args.get("seed", DEFAULT_SEED))
    seconds = int(args.get("seconds", 10))
    if "workload" not in args:
        return run_all(exe, seed, seconds)
    code, lines = run_one(exe, args["workload"], seed, seconds, int(args.get("trace", 0)))
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
