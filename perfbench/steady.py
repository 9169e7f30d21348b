#!/usr/bin/env python3
"""Check that the end-to-end benchmark repeats within its own bounds.

    python3 perfbench/steady.py                  # 2 sets x 10 runs, all
    python3 perfbench/steady.py --runs 5 --workloads cold_start

Runs two sets of --runs untraced runs of every workload (each run with
its own seed, through run.py, at BENCHMARK.json's run_seconds), then
prints for each workload and end-to-end metric: each set's median and
quartiles, the spread (third minus first quartile, as a share of the
median), and the distance between the two sets' medians, as a share of
the first. A metric passes when both sets' spreads and the distance are
within its bound; the target while tuning is a spread under a third of
the bound. The failed-operation share must be identical in both sets.
Exits 1 when any check fails. --json writes every raw value, for
re-checking elsewhere.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


SETS = 2


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d failed its output checks" %
                           (workload, seed))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = spec["end_to_end"]

    # raw[workload][set] = list of result objects
    raw = {name: [[] for _ in range(SETS)] for name in names}
    seed = args.first_seed
    for s in range(SETS):
        for name in names:
            for _ in range(args.runs):
                raw[name][s].append(run_once(spec, name, seed, seconds))
                seed += 1
            print("set %d %-15s done" % (s + 1, name), file=sys.stderr)

    ok = True
    print("%-15s %-27s %5s %14s %14s %14s %7s %7s %6s" %
          ("workload", "metric", "set", "q1", "median", "q3", "spread",
           "dist", "bound"))
    for name in names:
        shares = set()
        for s in range(SETS):
            attempted = sum(r["attempted"] for r in raw[name][s])
            failed = sum(r["failed"] for r in raw[name][s])
            shares.add(failed / attempted)
        if len(shares) != 1:
            ok = False
            print("%-15s failed-operation share differs between sets: %s" %
                  (name, sorted(shares)))
        for metric in metrics:
            key, bound = metric["name"], metric["bound"]
            first_median = None
            for s in range(SETS):
                values = [r["metrics"][key]["value"] for r in raw[name][s]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                distance = ""
                verdict = ""
                if spread > bound:
                    verdict = " SPREAD"
                    ok = False
                elif spread > bound / 3:
                    verdict = " (over a third)"
                if first_median is None:
                    first_median = med
                else:
                    rel = (abs(med - first_median) / first_median
                           if first_median else float("inf"))
                    distance = "%7.3f" % rel
                    if rel > bound:
                        verdict += " DISTANCE"
                        ok = False
                print("%-15s %-27s %5d %14.6g %14.6g %14.6g %7.3f %7s %6.3f%s"
                      % (name, key, s + 1, q1, med, q3, spread, distance, bound,
                         verdict))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seconds": seconds, "runs": raw}, handle)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
