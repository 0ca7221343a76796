#!/usr/bin/env python3
"""Runs every benchmark workload and prints each metric with its unit.

    python3 perfbench/suite.py [--seeds 1,2,3] [--seconds 20] [--trace 0|1]
                               [--workloads fattree16_amrt,...]

Each (workload, seed) pair is one `perfbench/run.py` invocation, i.e. one
fresh set of processes. With several seeds the script also prints, per
workload and metric, the median and the spread (interquartile range over the
median, as `statistics.quantiles(values, n=4)` gives the quartiles), which is
how run-to-run steadiness is judged against the bounds in BENCHMARK.json.

A held-out pass is the same command with seeds not used while a change was
written, e.g. `--seeds 101,102,103`. Exits 1 if any run fails its output
checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(workloads))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            print("%s seed %d: attempted %d, failed %d" % (workload, seed, result["attempted"],
                                                          result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
                values.setdefault(name, []).append(m["value"])
        if len(seeds) >= 2 and values:
            print("%s over %d seeds:" % (workload, len(seeds)))
            for name, vals in values.items():
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
                bound = bounds.get(name)
                note = "" if bound is None else "  (bound %.2f)" % bound
                print("  %-28s median %14.6g  spread %.4f%s" % (name, med, spread, note))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
