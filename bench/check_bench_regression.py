#!/usr/bin/env python3
"""CI bench-smoke regression tripwire.

Compares a freshly-measured bench JSON artifact against the committed
baseline and fails (exit 1) when a headline number regressed by more than
the threshold (default 30%). Throughput-style keys regress by dropping;
latency-style keys (microsecond costs) regress by rising.

Gated keys must exist on BOTH sides. A gated baseline key missing from the
fresh artifact fails the run — a renamed or deleted bench silently dropping
its measurement is exactly how a regression would sneak past the tripwire.
A gated key present in the fresh artifact but absent from the baseline also
fails: it means a new headline metric was added without refreshing the
committed baseline, so the gate would never actually watch it. Ungated keys
(and INFO_ONLY ones) may come and go freely.

When $GITHUB_STEP_SUMMARY is set (GitHub Actions), the per-key delta table
(baseline, fresh, % of baseline, gate verdict) is also appended there as
markdown so the job summary shows the comparison without digging in logs.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.30]
"""

import argparse
import json
import os
import sys

# Bigger is better: steps/sec, execs/sec, speedup ratios (including the
# execs_per_sec_w{N} worker-scaling ladder, matched by prefix below — but
# NOT wall_execs_per_sec_w{N}, which is whatever the runner's core count
# delivered and is recorded for the log only). speedup_w8 is the parallel
# scaling headline: aggregate w8 over aggregate w1 throughput.
HIGHER_BETTER = {
    "speedup_w8",
    "rop_steps_per_sec_legacy",
    "rop_steps_per_sec_superblock",
    "loop_steps_per_sec_legacy",
    "loop_steps_per_sec_superblock",
    "copy_steps_per_sec_legacy",
    "copy_steps_per_sec_superblock",
    "superblock_speedup",
    "reboot_speedup",
    "dirty_restore_speedup",
    "execs_per_sec",
    "execs_per_sec_legacy",
    "execs_per_sec_heap",
    "speedup",
    "fleet_victims_per_sec",
}
HIGHER_BETTER_PREFIXES = ("execs_per_sec_w",)

# Smaller is better: absolute costs in microseconds.
LOWER_BETTER = {"boot_us", "restore_us", "restore_full_us"}

# Printed for the log but never gated: boot_us is allocator-bound and swings
# ~40% run-to-run on loaded runners, restore_us is sub-microsecond (timer
# noise dominates), and the ratios derived from them inherit the swing. The
# stable anchors — restore_full_us and every throughput key — do the gating.
INFO_ONLY = {
    "boot_us",
    "restore_us",
    "dirty_restore_speedup",
    "reboot_speedup",
}


def direction(key):
    if key in HIGHER_BETTER or key.startswith(HIGHER_BETTER_PREFIXES):
        return "higher"
    if key in LOWER_BETTER:
        return "lower"
    return None


def write_step_summary(rows, missing, stale, checked, failures, threshold):
    """Appends the delta table as markdown to $GITHUB_STEP_SUMMARY, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["### Bench regression check", ""]
    lines.append("| key | baseline | fresh | % of baseline | verdict |")
    lines.append("| --- | ---: | ---: | ---: | :---: |")
    for key, base_value, new_value, ratio, marker in rows:
        lines.append(
            f"| `{key}` | {base_value:.4g} | {new_value:.4g} "
            f"| {ratio:.1%} | {marker.strip()} |"
        )
    for key in missing:
        lines.append(f"| `{key}` | — | *missing* | — | MISS |")
    for key in stale:
        lines.append(f"| `{key}` | *missing* | — | — | STALE |")
    lines.append("")
    if missing or stale:
        lines.append(
            f"**FAIL** — gated keys out of sync between baseline and fresh "
            f"artifact (missing: {len(missing)}, not in baseline: {len(stale)})."
        )
    elif failures:
        lines.append(
            f"**FAIL** — {len(failures)} metric(s) moved more than "
            f"{threshold:.0%} the wrong way: {', '.join(failures)}."
        )
    else:
        lines.append(
            f"**OK** — all {checked} gated metrics within {threshold:.0%} "
            f"of baseline."
        )
    lines.append("")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    checked = 0
    rows = []
    failures = []
    missing = []
    for key, base_value in sorted(baseline.items()):
        want = direction(key)
        if want is None:
            continue
        if key not in fresh:
            # A gated measurement vanished from the fresh artifact: warn and
            # fail rather than silently shrinking the gate's coverage.
            if key in INFO_ONLY:
                print(f"  [info] {key:32s} missing from fresh artifact")
            else:
                print(f"  [MISS] {key:32s} missing from fresh artifact")
                missing.append(key)
            continue
        new_value = fresh[key]
        if not isinstance(base_value, (int, float)) or isinstance(base_value, bool):
            continue
        if not isinstance(new_value, (int, float)) or isinstance(new_value, bool):
            continue
        if base_value <= 0:
            continue
        ratio = new_value / base_value
        if want == "higher":
            ok = ratio >= 1.0 - args.threshold
            verdict = f"{ratio:6.2%} of baseline"
        else:
            ok = ratio <= 1.0 + args.threshold
            verdict = f"{ratio:6.2%} of baseline (lower is better)"
        if key in INFO_ONLY:
            marker = "info"
        else:
            checked += 1
            marker = "ok  " if ok else "FAIL"
            if not ok:
                failures.append(key)
        rows.append((key, base_value, new_value, ratio, marker))
        print(f"  [{marker}] {key:32s} {base_value:14.4g} -> {new_value:14.4g}  {verdict}")

    # The reverse direction: a gated key the fresh artifact measures but the
    # committed baseline never recorded. The gate would silently skip it
    # forever, so force the baseline refresh instead.
    stale = []
    for key in sorted(fresh):
        if key in baseline or direction(key) is None or key in INFO_ONLY:
            continue
        print(f"  [MISS] {key:32s} gated but absent from committed baseline")
        stale.append(key)

    write_step_summary(rows, missing, stale, checked, failures, args.threshold)

    if missing:
        print(f"\nbench regression: {len(missing)} gated baseline metric(s) "
              f"missing from the fresh artifact: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    if stale:
        print(f"\nbench regression: {len(stale)} gated fresh metric(s) not in "
              f"the committed baseline (refresh it): {', '.join(stale)}",
              file=sys.stderr)
        return 1
    if checked == 0:
        print("error: no comparable keys between baseline and fresh artifact",
              file=sys.stderr)
        return 1
    if failures:
        print(f"\nbench regression: {len(failures)} metric(s) moved more than "
              f"{args.threshold:.0%} the wrong way: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"\nall {checked} compared metrics within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
