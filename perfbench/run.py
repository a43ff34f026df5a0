#!/usr/bin/env python3
"""Build and run the VYRD benchmark from the root of a checkout.

One run (the last line of standard output is the result JSON):

    python3 perfbench/run.py --workload online-view --seed 1 --seconds 20 --trace 0

Steadiness report: every workload (or those named) run --repeats times with
seeds 1..N, or N times with one seed; for each end-to-end metric it prints
the median and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json, and flags any spread above its bound (exit 1 when one is
flagged):

    python3 perfbench/run.py --steadiness --repeats 10 [--workloads a,b] [--fixed-seed N]
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH or in an opam switch")


def build():
    """Build the benchmark from the checkout's sources; build output goes to
    stderr so the last line of stdout stays the result."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a VYRD checkout (%s not found)" % need)
    dune = find_dune()
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    r = subprocess.run([dune, "build", "--root", ".", "./perfbench/main.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", 1)


def run_once(workload, seed, seconds, trace, capture):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(args, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out after %d s" % (workload, seed, RUN_TIMEOUT_S), 1)
    return r.returncode, r.stdout


def steadiness(spec, names, repeats, seconds, fixed_seed):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = []
    report = {}
    for w in names:
        values = {m: [] for m in bounds}
        seeds = [fixed_seed] * repeats if fixed_seed is not None else range(1, repeats + 1)
        for seed in seeds:
            code, out = run_once(w, seed, seconds, 0, capture=True)
            if code != 0:
                fail("%s seed %d exited %d" % (w, seed, code), 1)
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                fail("%s seed %d: correct=%s failed=%d" % (w, seed, res["correct"], res["failed"]), 1)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print("  %s seed %2d: %s" % (w, seed, "  ".join(
                "%s=%.4g" % (m, values[m][-1]) for m in bounds)), flush=True)
        print("\n%s (%d runs of %s s)" % (w, repeats, seconds))
        print("  %-16s %14s %8s %7s  %s" % ("metric", "median", "spread", "bound", ""))
        report[w] = {}
        for m, b in bounds.items():
            vs = values[m]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "OVER BOUND" if spread > b["bound"] else (
                "ok" if spread < b["bound"] / 3 else "within bound, above a third")
            if spread > b["bound"]:
                flagged.append((w, m))
            print("  %-16s %14.6g %8.4f %7.3f  %s" % (m, med, spread, b["bound"], flag))
            report[w][m] = {"median": med, "spread": spread, "bound": b["bound"], "values": vs}
        print(flush=True)
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    with open(os.path.join("perfbench", "out", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    if flagged:
        print("spread above bound: " + ", ".join("%s/%s" % p for p in flagged))
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated subset for --steadiness")
    p.add_argument("--fixed-seed", type=int,
                   help="--steadiness: repeat this one seed instead of seeds 1..N")
    a = p.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    build()
    if a.steadiness:
        names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
        steadiness(spec, names, a.repeats, seconds, a.fixed_seed)
        return
    if not a.workload:
        fail("--workload is required")
    code, _ = run_once(a.workload, a.seed, seconds, a.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
