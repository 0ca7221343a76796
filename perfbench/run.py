#!/usr/bin/env python3
"""Repository benchmark: simulator speed and simulated FCT per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
workload runner (perfbench/perfbench_run.cpp, against the simulator sources
in src/) into a subdirectory of .bench_build/ (or of $CARGO_TARGET_DIR when
that is set) named for the checkout; later calls rebuild what changed.

A run covers a fixed set of independent flow schedules derived from --seed
(SCHEDULES). Each repetition runs one schedule in a fresh perfbench_run
process, so set-up time and peak RSS belong to that workload alone. The run
cycles through the schedules until every one has run and --seconds of wall
time have passed. Host times are medians over all repetitions; simulated
results pool the flows of all schedules. Every repetition's output checks
must pass, and a repeated schedule must reproduce its first repetition's
results bit for bit; otherwise the script exits 1 without printing a result.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end").
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics ("per_layer"), including trace.overhead, the traced run
time over the untraced one, minus one.

The last line of stdout is one JSON object:
    {"correct": true, "attempted": A, "failed": 0, "metrics": {...}}
"""

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fattree16_amrt", "leafspine_fanout_mixed", "fattree16_flow", "fattree16_sharded")
SHARDS = {"fattree16_sharded": 2}
# Independent flow schedules per seed. Tail FCTs and per-packet cost both
# vary from one schedule to the next (flow mode's throughput by +-10%), so
# each run pools several schedules: simulated metrics over their pooled
# flows, host times as the median over every repetition of every schedule.
SCHEDULES = {"fattree16_amrt": 8, "fattree16_sharded": 8, "leafspine_fanout_mixed": 10,
             "fattree16_flow": 16}
MIN_REPS = 3
MIN_TRACE_PAIRS = 1
MSS_BYTES = 1460

# Simulated results every repetition of one workload and seed must repeat
# exactly, traced or not.
SIM_KEYS = (
    "digest", "flows", "completed", "requests", "offered_bytes", "delivered_bytes",
    "request_ns", "util_num", "util_den", "events", "port_pkts_sent", "enqueued", "dropped",
    "queue_peak_pkts", "flowsim_recomputes",
)
# Marker counters. leafspine_fanout_mixed times the library's mixed marker,
# whose counters cannot be read, so there they come from one extra
# --counted repetition, which must match the timed ones on SIM_KEYS.
MARKER_KEYS = ("antiecn_observed", "antiecn_kept", "antiecn_cleared", "ecn_observed",
               "ecn_marked")
EXACT_KEYS = SIM_KEYS + MARKER_KEYS
COUNTED = ("leafspine_fanout_mixed",)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def root_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root):
    """Brings the runner up to date with the checkout's sources; returns its
    path. The build tree is keyed to the checkout, so two checkouts sharing
    a build directory never share a CMake cache or a binary. The build step
    always runs: it recompiles whatever changed and is a no-op otherwise."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    key = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:16]
    build_dir = os.path.join(base, "perfbench-" + key)
    binary = os.path.join(build_dir, "perfbench_run")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_run"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.path.isfile(binary):
        fail("build produced no perfbench_run")
    return binary


def run_rep(binary, workload, seed, traced=False, reference=False, counted=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    if counted:
        cmd.append("--counted")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s produced no result (exit %d): %s" % (" ".join(cmd), proc.returncode,
                                                      proc.stderr.strip()[-2000:]))
    rep = json.loads(lines[-1])
    if proc.returncode != 0 or not rep.get("ok"):
        fail("%s failed its output checks: %s" % (" ".join(cmd), rep.get("failures")))
    return rep


def check_exact(first, rep, what, keys=EXACT_KEYS):
    for key in keys:
        if rep[key] != first[key]:
            fail("%s: %s differs across repetitions (%r vs %r)" % (what, key, first[key],
                                                                   rep[key]))


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def ratio(num, den):
    return num / den if den else 0.0


def span_totals(rep, name):
    """(calls, self ns) of one span name, summed over parents."""
    calls = sum(s["count"] for s in rep["spans"] if s["name"] == name)
    self_ns = sum(s["self_ns"] for s in rep["spans"] if s["name"] == name)
    return calls, self_ns


def percentile(xs, q):
    """Linear interpolation between order statistics, as stats::percentile."""
    xs = sorted(xs)
    rank = q * (len(xs) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0 or lo + 1 >= len(xs):
        return xs[lo]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * frac


def schedule_seeds(workload, seed):
    n = SCHEDULES.get(workload, 1)
    return [seed] if n == 1 else [seed * n + i for i in range(n)]


def end_to_end(by_seed):
    """Host times: median over all repetitions. Simulated results: pooled
    over the schedules' flows and requests."""
    def host(fn):
        return statistics.median(fn(r) for reps in by_seed.values() for r in reps)

    firsts = [reps[0] for reps in by_seed.values()]
    fct_us = [ns * 1e-3 for r in firsts for ns in r["fct_ns"]]
    request_us = [ns * 1e-3 for r in firsts for ns in r["request_ns"]]
    return {
        "delivered_pkts_per_s": (host(lambda r: r["delivered_bytes"] / MSS_BYTES / r["run_s"]),
                                 "pkts/s"),
        "setup_s": (host(lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (host(lambda r: r["peak_rss_mb"]), "MB"),
        "fct_p50_us": (percentile(fct_us, 0.50), "us"),
        "fct_p99_us": (percentile(fct_us, 0.99), "us"),
        "fct_avg_us": (statistics.fmean(fct_us), "us"),
        "request_p99_us": (percentile(request_us, 0.99), "us"),
        "link_util": (sum(r["util_num"] for r in firsts) / sum(r["util_den"] for r in firsts),
                      "fraction"),
    }


def per_layer(workload, plain, traced, counts):
    """Per-layer metrics: exact counts from the (identical) repetitions,
    marker counters from `counts`, host times as medians, span times from
    the traced repetitions."""
    first = traced[0]
    pkts = first["delivered_bytes"] / MSS_BYTES
    events = first["events"]
    run_s = median(plain, "run_s")
    traced_run_s = median(traced, "run_s")
    threads = SHARDS.get(workload, 1)

    def span_median(name):
        calls = span_totals(first, name)[0]
        self_ns = statistics.median(span_totals(r, name)[1] for r in traced)
        return calls, self_ns

    deliver_calls, deliver_ns = span_median("deliver")
    start_calls, start_ns = span_median("start_flow")
    marker_calls, marker_ns = span_median("marker")
    observer_calls, observer_ns = span_median("observer")
    covered_ns = deliver_ns + start_ns + marker_ns + observer_ns
    shard_events = first["shard_events"]
    return {
        "sim.events": (events, "count"),
        "sim.events_per_pkt": (ratio(events, pkts), "count"),
        "sim.events_per_s": (ratio(events, run_s), "1/s"),
        "sim.pending_peak": (first["pending_peak"], "count"),
        "sim.residual_ns_per_event": (
            ratio(traced_run_s * 1e9 * threads - covered_ns, events), "ns"),
        "net.build_s": (median(plain, "net_build_s"), "s"),
        "net.rss_mb": (median(plain, "net_rss_mb"), "MB"),
        "net.ports": (first["ports"], "count"),
        "net.hops_per_pkt": (ratio(first["port_pkts_sent"], pkts), "count"),
        "net.drop_ratio": (ratio(first["dropped"], first["enqueued"]), "fraction"),
        "net.queue_peak_pkts": (first["queue_peak_pkts"], "pkts"),
        "core.marker_calls": (marker_calls, "count"),
        "core.marker_ns": (ratio(marker_ns, marker_calls), "ns"),
        "core.antiecn_mark_ratio": (
            ratio(counts["antiecn_kept"], counts["antiecn_observed"]), "fraction"),
        "core.ecn_mark_ratio": (ratio(counts["ecn_marked"], counts["ecn_observed"]), "fraction"),
        "transport.attach_s": (median(plain, "attach_s"), "s"),
        "transport.data_arrivals": (first["data_arrivals"], "count"),
        "transport.ctrl_per_data": (
            ratio(first["ctrl_arrivals"], first["data_arrivals"]), "count"),
        "transport.dup_data_ratio": (
            ratio(first["data_payload_arrived"] - first["delivered_bytes"],
                  first["data_payload_arrived"]), "fraction"),
        "transport.deliver_self_ns": (ratio(deliver_ns, deliver_calls), "ns"),
        "transport.start_flow_ns": (ratio(start_ns, start_calls), "ns"),
        "stats.observer_calls": (observer_calls, "count"),
        "stats.observer_ns": (ratio(observer_ns, observer_calls), "ns"),
        "workload.generate_s": (median(plain, "generate_s"), "s"),
        "workload.flows": (first["flows"], "count"),
        "workload.offered_bytes": (first["offered_bytes"], "bytes"),
        "flowsim.fabric_build_s": (median(plain, "fabric_build_s"), "s"),
        "flowsim.events": (first["flowsim_events"], "count"),
        "flowsim.recomputes": (first["flowsim_recomputes"], "count"),
        "flowsim.recomputes_per_flow": (
            ratio(first["flowsim_recomputes"], first["flows"]), "count"),
        "flowsim.ns_per_recompute": (ratio(run_s * 1e9, first["flowsim_recomputes"]), "ns"),
        "shard.partition_s": (median(plain, "partition_s"), "s"),
        "shard.rounds": (first["shard_rounds"], "count"),
        "shard.events_per_round": (ratio(events, first["shard_rounds"]), "count"),
        "shard.imbalance": (
            ratio(max(shard_events), statistics.mean(shard_events)) if shard_events else 0.0,
            "ratio"),
        "trace.overhead": (ratio(traced_run_s, run_s) - 1.0, "fraction"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build(root_dir())
    seeds = schedule_seeds(args.workload, args.seed)

    reference = None
    if args.workload == "leafspine_fanout_mixed":
        # The benchmark must measure the program amrt_sim runs: the library's
        # own experiment runner, on the same configuration, must produce
        # the same FCT records.
        reference = run_rep(binary, args.workload, seeds[0], reference=True)["digest"]
    counted = None
    if args.workload in COUNTED:
        counted = run_rep(binary, args.workload, seeds[0], counted=True)
        if not counted["antiecn_observed"] or not counted["ecn_observed"]:
            fail("the counted repetition's markers observed no packets")

    # Untraced: cycle through the schedules until every one has run and the
    # time is up. Traced: untraced/traced pairs on the first schedule.
    by_seed = {s: [] for s in seeds}
    traced = []
    t0 = time.monotonic()
    for i in itertools.count():
        elapsed = time.monotonic() - t0
        if args.trace:
            if elapsed >= args.seconds and len(traced) >= MIN_TRACE_PAIRS:
                break
            by_seed[seeds[0]].append(run_rep(binary, args.workload, seeds[0]))
            traced.append(run_rep(binary, args.workload, seeds[0], traced=True))
        else:
            if elapsed >= args.seconds and i >= max(MIN_REPS, len(seeds)):
                break
            seed = seeds[i % len(seeds)]
            by_seed[seed].append(run_rep(binary, args.workload, seed))

    for seed, reps in by_seed.items():
        for rep in reps[1:]:
            check_exact(reps[0], rep, "repeat of schedule %d" % seed)
    plain = by_seed[seeds[0]]
    for rep in traced:
        check_exact(plain[0], rep, "traced run")
    if reference is not None and reference != plain[0]["digest"]:
        fail("digest %s differs from harness::run_leaf_spine's %s" % (plain[0]["digest"],
                                                                      reference))
    if counted is not None:
        check_exact(plain[0], counted, "counted run", SIM_KEYS)

    if args.trace:
        metrics = per_layer(args.workload, plain, traced, counted or plain[0])
    else:
        metrics = end_to_end(by_seed)
    reps = [r for rs in by_seed.values() for r in rs] + traced + ([counted] if counted else [])
    result = {
        "correct": True,
        "attempted": sum(r["flows"] for r in reps),
        "failed": sum(r["flows"] - r["completed"] for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
