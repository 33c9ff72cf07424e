#!/usr/bin/env python3
"""connlab campaign benchmark.

Builds the connlab library and the perfbench workload process from this
checkout's sources (into .bench_build/), then measures one workload:

    python3 perfbench/run.py --workload fuzz-dnsproxy --seed 42 \\
        --seconds 10 --trace 0

--trace 0 times the library's own drivers with tracing off and reports the
end-to-end metrics. --trace 1 runs a traced replica of the driver loop next
to a library reference run at the same seed, proves the two ran the same
program, and reports per-layer metrics. Human-readable lines come first;
the last line of stdout is one JSON object. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "perfbench"

# Per workload: what one operation is, the name its throughput goes by, and
# how many worker threads one campaign runs.
WORKLOADS = {
    "fuzz-dnsproxy": ("exec", "execs_per_s", 1),
    "fuzz-camstored-w2": ("exec", "execs_per_s", 2),
    "fleet-8b": ("victim", "victims_per_s", 1),
    "defense-grid": ("cell", "cells_per_s", 1),
}

# Set-up is timed as whole processes (exec + library start-up + the driver
# call at its smallest budget); the median of this many is reported.
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# A traced run whose spans leave more than this share of the traced worker
# time outside every span fails: the replica does work it does not record.
MIN_ACCOUNTED_PCT = 95.0

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Spans the replicas record: every `<span>.calls` metric. The *.driver spans
# and attack.cell are the roots: their self time is the replica's own driver
# glue.
SPANS = [name.removesuffix(".calls") for name, _ in PER_LAYER
         if name.endswith(".calls")]


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no connlab sources at {ROOT / 'src'}: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    steps.append([str(BUILD / "perfbench_tracer_test")])
    # Concurrent runs in one checkout build once; the others wait.
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                die(f"'{' '.join(cmd)}' exited {done.returncode}")


def child(mode, workload, seed, *extra, timeout=CHILD_TIMEOUT_S):
    cmd = [str(BINARY), mode, "--workload", workload, "--seed", str(seed),
           *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        die(f"'{' '.join(cmd)}' exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def campaign_failed(campaign):
    return campaign["status"] != "OK" or bool(campaign["checks"])


def report_failures(label, campaigns):
    for c in campaigns:
        if c["status"] != "OK":
            print(f"FAILED {label}: driver returned {c['status']}")
        for why in c["checks"]:
            print(f"FAILED {label}: {why}")


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))


def measure_setup(workload, seed):
    """Median wall time of whole set-up processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(BINARY), "setup", "--workload", workload, "--seed",
             str(seed)], stdout=subprocess.DEVNULL, stderr=sys.stderr)
        # A blocking wait: waiting with a timeout polls at growing intervals
        # (0.5, 1, 2, 4 ms, ...), which would round set-up times up to
        # 3.5, 7.5 or 15.5 ms. The timer kills a hung set-up instead.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        returncode = proc.wait()
        times.append(time.perf_counter() - start)
        killer.cancel()
        if returncode != 0:
            die(f"set-up process for {workload} exited {returncode}")
    return statistics.median(times)


def untraced(workload, seed, seconds):
    op, throughput_name, workers = WORKLOADS[workload]
    setup_s = measure_setup(workload, seed)
    out = child("run", workload, seed, "--seconds", str(seconds),
                timeout=seconds + CHILD_TIMEOUT_S)
    campaigns = out["campaigns"]
    report_failures(workload, campaigns)
    attempted = sum(c["ops"] for c in campaigns)
    failed = sum(c["ops"] for c in campaigns if campaign_failed(c))
    # The run cycles through a few distinct campaigns (seeds derived from
    # --seed), each round on the next CPU. Summing one repeat's time per
    # distinct campaign evens out how costly one seed's inputs are.
    # Neighbours on a shared host slow a core, for milliseconds or minutes,
    # and never speed it up, so each campaign's fastest repeat is the one
    # closest to the code's own speed. README.md has the spreads behind this.
    repeats = {}
    for c in campaigns:
        repeats.setdefault(c["seed"], []).append(c["seconds"])
    round_s = sum(min(times) for times in repeats.values())
    ops_per_round = sum(c["ops"] for c in campaigns[:len(repeats)])
    metrics = {
        "ops_per_s": ops_per_round / round_s,
        "setup_s": setup_s,
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    rates = [c["ops"] / c["seconds"] for c in campaigns]
    print(f"workload {workload}: seed {seed}, {len(campaigns)} campaigns "
          f"({len(repeats)} distinct) of {campaigns[0]['ops']} {op}s on "
          f"{workers} worker thread(s) on one CPU, tracing off")
    print(f"{throughput_name} = {metrics['ops_per_s']:.1f} 1/s "
          f"(ops_per_s; each distinct campaign's fastest repeat; single "
          f"campaigns ran {min(rates):.1f} to {max(rates):.1f})")
    print(f"setup_s = {setup_s:.6f} s (median of {SETUP_REPEATS} processes)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB")
    emit(failed == 0, attempted, failed, metrics, END_TO_END)
    return failed == 0


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(reference, traced):
    c = traced["campaign"]
    counts = c["counts"]
    ops = c["ops"]
    worker_ns = traced["wall_s"] * 1e9 * traced["threads"]
    spans = traced["spans"]
    undeclared = sorted(set(spans) - set(SPANS))
    if undeclared:
        die(f"spans {', '.join(undeclared)} have no '.calls' metric in "
            f"BENCHMARK.json")
    m = {}
    for name in SPANS:
        s = spans.get(name, {"calls": 0, "self_ns": 0})
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.self_pct"] = 100.0 * s["self_ns"] / worker_ns
    ref = reference["campaign"]
    m["trace_overhead"] = ratio(ops / traced["wall_s"],
                                ref["ops"] / ref["seconds"])
    m["trace.accounted_pct"] = 100.0 * traced["accounted_ns"] / worker_ns
    m["vm.steps_per_op"] = ratio(counts["vm.steps"], ops)
    m["loader.restores_per_op"] = ratio(counts["loader.restores"], ops)
    m["mem.pages_per_restore"] = ratio(counts["mem.dirty_pages_copied"],
                                       counts["loader.restores"])

    def get(key):
        return counts.get(key, 0)

    m["fuzz.corpus_add_ratio"] = ratio(get("fuzz.corpus_adds"),
                                       get("fuzz.execs"))
    m["fuzz.crash_ratio"] = ratio(get("fuzz.crashing_execs"),
                                  get("fuzz.execs"))
    m["fleet.ap.hit_ratio"] = ratio(get("fleet.cache_hits"),
                                    get("fleet.cache_hits")
                                    + get("fleet.cache_misses"))
    m["net.dhcp.retry_ratio"] = ratio(get("fleet.join_retries"),
                                      get("fleet.joins")
                                      + get("fleet.join_retries"))
    m["defense.pool.memo_hit_ratio"] = ratio(get("pool.memo_hits"),
                                             get("pool.memo_hits")
                                             + get("pool.evaluations"))
    m["defense.pool.lanes"] = get("pool.lanes")
    m["exploit.probes_per_cell"] = ratio(get("attack.probes"),
                                         get("attack.grid_cells"))
    return m


def stale_reasons(reference, traced):
    """Where the replica's outputs and call counts leave the library's."""
    ref, rep = reference["campaign"], traced["campaign"]
    reasons = []
    if ref["digest"] != rep["digest"]:
        reasons.append(f"digest: library {ref['digest']}, "
                       f"replica {rep['digest']}")
    for key in sorted(set(ref["counts"]) | set(rep["counts"])):
        a, b = ref["counts"].get(key), rep["counts"].get(key)
        if a != b:
            reasons.append(f"{key}: library {a}, replica {b}")
    return reasons


def print_span_table(traced):
    worker_ns = traced["wall_s"] * 1e9 * traced["threads"]
    print(f"{'span':26s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} "
          f"{'self%':>6s} {'p50_us':>9s} {'p99_us':>9s}")
    for name, s in traced["spans"].items():
        cols = []
        for key in ("p50_ns", "p99_ns"):
            v = s.get(key)
            cols.append("-" if v is None else f"{v / 1000:.2f}")
        print(f"{name:26s} {s['calls']:9d} {s['busy_ns'] / 1e9:9.4f} "
              f"{s['self_ns'] / 1e9:9.4f} "
              f"{100.0 * s['self_ns'] / worker_ns:6.2f} "
              f"{cols[0]:>9s} {cols[1]:>9s}")


def traced_run(workload, seed, seconds):
    spans_dir = BUILD_ROOT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}.tsv"
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        reference = child("reference", workload, seed)
        # Every pair runs the same campaign; one span file is enough.
        spans = () if pairs else ("--spans", str(spans_path))
        traced = child("trace", workload, seed, *spans)
        pairs.append((reference, traced))

    per_pair = [layer_metrics(*pair) for pair in pairs]
    for (_, traced), m in zip(pairs, per_pair):
        pct = m["trace.accounted_pct"]
        if pct < MIN_ACCOUNTED_PCT:
            traced["campaign"]["checks"].append(
                f"spans cover {pct:.2f}% of traced worker time, under "
                f"{MIN_ACCOUNTED_PCT:g}%")

    campaigns = [c for pair in pairs for c in
                 (pair[0]["campaign"], pair[1]["campaign"])]
    report_failures(workload, campaigns)
    attempted = sum(c["ops"] for c in campaigns)
    failed = sum(c["ops"] for c in campaigns if campaign_failed(c))

    stale = [r for pair in pairs for r in stale_reasons(*pair)]
    if stale:
        print(f"STALE: the {workload} replica no longer matches the library "
              f"driver; per-layer numbers withheld until perfbench's replica "
              f"is updated:")
        for reason in sorted(set(stale)):
            print(f"  {reason}")
        sys.exit(3)

    metrics = {name: statistics.median(m[name] for m in per_pair)
               for name, _ in PER_LAYER}
    last = pairs[-1][1]
    print(f"workload {workload}: seed {seed}, {len(pairs)} traced replica "
          f"run(s), each matching the library's digest "
          f"{last['campaign']['digest']} and "
          f"{len(last['campaign']['counts'])} exact counters")
    print(f"spans written to {spans_path}")
    print_span_table(last)
    print(f"trace.accounted_pct = {metrics['trace.accounted_pct']:.2f} % "
          f"(layer self times plus driver glue over traced worker time; "
          f"a traced campaign under {MIN_ACCOUNTED_PCT:g} % fails)")
    print(f"trace_overhead = {metrics['trace_overhead']:.4f} "
          f"(traced / untraced throughput)")
    emit(failed == 0, attempted, failed, metrics, PER_LAYER)
    return failed == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned seed, 42 "
                             "for fuzz and fleet, 4242 for the grid)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = args.seed
    if seed is None:
        seed = 4242 if args.workload == "defense-grid" else 42
    build()
    run = traced_run if args.trace else untraced
    # A failed output check still prints its result, then fails the command.
    sys.exit(0 if run(args.workload, seed, args.seconds) else 1)


if __name__ == "__main__":
    main()
