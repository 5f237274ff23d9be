#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One measured run. The last stdout line is the JSON result.
  python3 perfbench/run.py --steadiness [--seconds S] [--out FILE]
      Runs each workload at seeds 1..10 and reports, per end-to-end metric,
      the median, the quartiles and the spread (IQR / median) against the
      bound in BENCHMARK.json; exits 1 if a spread exceeds its bound.
  python3 perfbench/run.py --regen-refs
      Rewrites perfbench/fct_reference.tsv, the pinned packet-engine FCT
      references of the hybrid workloads for seeds 1..10.
  python3 perfbench/run.py --test
      Builds and runs the benchmark's own tests (perfbench_test).

The simulator is built from the repository's src/ into .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
REFS = os.path.join(HERE, "fct_reference.tsv")
BINARY = os.path.join(BUILD, "perfbench")
# Seeds 1..SEEDS: the steadiness runs and the pinned FCT references.
SEEDS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns its exit code and stdout lines."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def measured_run(args):
    if not build("perfbench"):
        return 1
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not lines:
        log("perfbench: run failed with exit code %d" % code)
        return code or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(args):
    """Repeats every workload over seeds 1..runs and reports each spread."""
    if not build("perfbench"):
        return 1
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    ok = True
    for name in names:
        values = {}
        for seed in range(1, SEEDS + 1):
            code, lines = run_once(name, seed, seconds, 0)
            result = json.loads(lines[-1]) if code == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                log("%s seed %d: run failed or incorrect: %s"
                    % (name, seed, result))
                ok = False
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            log("%s seed %d done" % (name, seed))
        report[name] = {}
        for metric, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            report[name][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "runs": len(vs), "values": vs}
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            if spread > bound:
                flag = "  <-- spread > bound"
                ok = False
            print("%-15s %-17s median %14.6g  q1 %14.6g  q3 %14.6g  "
                  "spread %6.3f  bound %.2f%s"
                  % (name, metric, med, q1, q3, spread, bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 0 if ok else 1


def regen_refs(args):
    if not build("perfbench"):
        return 1
    spec = load_spec()
    rows = []
    for w in spec["workloads"]:
        for seed in range(1, SEEDS + 1):
            proc = subprocess.run(
                [BINARY, "--reference", "--workload", w["name"], "--seed",
                 str(seed)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if proc.returncode == 2:
                break  # a packet-engine workload has no reference
            if proc.returncode != 0:
                log("reference run failed: %s seed %d" % (w["name"], seed))
                return 1
            rows.append(proc.stdout.strip())
            log(rows[-1])
    with open(REFS, "w") as f:
        f.write("# Packet-engine FCT references for the hybrid workloads, "
                "written by run.py --regen-refs.\n"
                "# workload seed fct_median_us fct_mean_us\n")
        f.write("\n".join(rows) + "\n")
    return 0


def test(_args):
    if not build("perfbench_test"):
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--out")
    p.add_argument("--regen-refs", action="store_true")
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    if args.steadiness:
        return steadiness(args)
    if args.regen_refs:
        return regen_refs(args)
    if args.test:
        return test(args)
    if not args.workload or args.seconds is None:
        p.error("--workload and --seconds are required for a measured run")
    return measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
