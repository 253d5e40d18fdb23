#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and gate on regressions.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--max-ratio X]
                   [--benchmarks name1,name2,...]
                   [--min-speedup SLOW_NAME,FAST_NAME,X]...
                   [--min-speedup-when-kernel KERNELS,SLOW,FAST,X]...
                   [--max-ratio-pair A,B,X]...
                   [--max-ratio-vs BASELINE_NAME,CURRENT_NAME,X]...

Each benchmark's time is its `_median` aggregate when CURRENT or
BASELINE was recorded with --benchmark_repetitions, else its single
run's real_time.

Checks, in order:
  * Regression gate: for every benchmark present in BOTH files (or only
    the --benchmarks subset when given), current real_time must be at
    most --max-ratio times the baseline real_time (default 3.0 — wide
    enough to absorb machine-to-machine variance in CI while still
    catching order-of-magnitude regressions). Benchmarks missing from
    the baseline are reported and skipped, so adding a benchmark does
    not require regenerating old baselines.
  * Intra-run speedups: every --min-speedup SLOW,FAST,X asserts
    real_time(SLOW) / real_time(FAST) >= X inside CURRENT alone. This
    is machine-independent (both numbers come from the same run), so it
    can gate properties like "4 serving workers are at least 2x the
    throughput of 1" on any CI hardware.
  * Kernel-conditional speedups: --min-speedup-when-kernel KERNELS,SLOW,
    FAST,X is the same intra-run assertion, but applied only when
    CURRENT's context reports a "fairtopk_kernel" in the |-separated
    KERNELS list (bench_micro's custom main stamps the selected bitset
    kernel there). This lets the SIMD-vs-scalar gate run hard on AVX2/
    AVX-512 machines while a scalar-only CI runner skips it instead of
    failing.
  * Intra-run ratio caps: --max-ratio-pair A,B,X asserts
    real_time(B) <= X * real_time(A) inside CURRENT alone — the
    machine-independent form of a tight overhead bound (e.g. "a
    snapshot open costs at most 0.2x a CSV cold start").
  * Cross-name baseline caps: --max-ratio-vs BASELINE_NAME,
    CURRENT_NAME,X asserts real_time(CURRENT_NAME in CURRENT) <=
    X * real_time(BASELINE_NAME in BASELINE) — for gating a NEW
    benchmark against a DIFFERENT benchmark recorded in an old
    baseline, or a benchmark against its own recording from before a
    change (e.g. the always-instrumented detect path against the
    pre-instrumentation detect bench). Skipped with a notice when
    BASELINE_NAME is absent from the baseline file. Machine-sensitive
    like --max-ratio; pick X accordingly.

Exit code 0 when every gate passes, 1 otherwise.
"""

import argparse
import json
import sys


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_report(path):
    """Returns ({benchmark name: real_time in ns}, context dict).

    A repeated benchmark is read from its `median` aggregate; one
    recorded once, from its single run.
    """
    with open(path) as f:
        doc = json.load(f)
    times, medians = {}, {}
    for bench in doc.get("benchmarks", []):
        ns = float(bench["real_time"]) * NS_PER_UNIT[
            bench.get("time_unit", "ns")]
        if bench.get("run_type") != "aggregate":
            times[bench["name"]] = ns
        elif bench.get("aggregate_name") == "median":
            medians[bench["run_name"]] = ns
    times.update(medians)
    return times, doc.get("context", {})


def check_min_speedup(current, slow, fast, minimum, failures):
    if slow not in current or fast not in current:
        failures.append(
            f"--min-speedup names missing from current run: {slow},{fast}")
        return
    speedup = current[slow] / current[fast]
    ok = speedup >= minimum
    print(f"speedup {slow} / {fast} = {speedup:.2f}x "
          f"(minimum {minimum:.2f}x){'' if ok else '  << TOO SLOW'}")
    if not ok:
        failures.append(
            f"{fast} is only {speedup:.2f}x faster than {slow} "
            f"(minimum {minimum:.2f}x)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when current/baseline exceeds this")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset to compare "
                             "(default: every benchmark in CURRENT)")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="SLOW,FAST,X",
                        help="assert real_time(SLOW)/real_time(FAST) >= X "
                             "within CURRENT (repeatable)")
    parser.add_argument("--min-speedup-when-kernel", action="append",
                        default=[], metavar="KERNELS,SLOW,FAST,X",
                        help="like --min-speedup, but only enforced when "
                             "CURRENT's context fairtopk_kernel is in the "
                             "|-separated KERNELS list (repeatable)")
    parser.add_argument("--max-ratio-pair", action="append", default=[],
                        metavar="A,B,X",
                        help="assert real_time(B) <= X * real_time(A) "
                             "within CURRENT (repeatable)")
    parser.add_argument("--max-ratio-vs", action="append", default=[],
                        metavar="BASE_NAME,CURR_NAME,X",
                        help="assert real_time(CURR_NAME in CURRENT) <= "
                             "X * real_time(BASE_NAME in BASELINE); skipped "
                             "when BASE_NAME is missing from the baseline "
                             "(repeatable)")
    args = parser.parse_args()

    baseline, _ = load_report(args.baseline)
    current, context = load_report(args.current)
    names = ([n for n in args.benchmarks.split(",") if n]
             if args.benchmarks else sorted(current))

    failures = []
    print(f"{'benchmark':55} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name in names:
        if name not in current:
            failures.append(f"benchmark '{name}' missing from {args.current}")
            continue
        if name not in baseline:
            print(f"{name:55} {'-':>12} {current[name]:>10.0f}ns "
                  f"{'new':>7}")
            continue
        ratio = current[name] / baseline[name]
        flag = "" if ratio <= args.max_ratio else "  << REGRESSION"
        print(f"{name:55} {baseline[name]:>10.0f}ns {current[name]:>10.0f}ns "
              f"{ratio:>6.2f}x{flag}")
        if ratio > args.max_ratio:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(limit {args.max_ratio:.2f}x)")

    for spec in args.min_speedup:
        parts = spec.split(",")
        if len(parts) != 3:
            failures.append(f"bad --min-speedup spec: {spec}")
            continue
        check_min_speedup(current, parts[0], parts[1], float(parts[2]),
                          failures)

    for spec in args.max_ratio_pair:
        parts = spec.split(",")
        if len(parts) != 3:
            failures.append(f"bad --max-ratio-pair spec: {spec}")
            continue
        a, b, limit = parts[0], parts[1], float(parts[2])
        if a not in current or b not in current:
            failures.append(
                f"--max-ratio-pair names missing from current run: {a},{b}")
            continue
        ratio = current[b] / current[a]
        ok = ratio <= limit
        print(f"ratio {b} / {a} = {ratio:.3f}x "
              f"(limit {limit:.3f}x){'' if ok else '  << TOO SLOW'}")
        if not ok:
            failures.append(
                f"{b} is {ratio:.3f}x of {a} (limit {limit:.3f}x)")

    for spec in args.max_ratio_vs:
        parts = spec.split(",")
        if len(parts) != 3:
            failures.append(f"bad --max-ratio-vs spec: {spec}")
            continue
        base_name, curr_name, limit = parts[0], parts[1], float(parts[2])
        if curr_name not in current:
            failures.append(
                f"--max-ratio-vs benchmark '{curr_name}' missing from "
                f"{args.current}")
            continue
        if base_name not in baseline:
            print(f"skipping cross-name cap {curr_name} vs {base_name} "
                  f"(not in baseline)")
            continue
        ratio = current[curr_name] / baseline[base_name]
        ok = ratio <= limit
        print(f"ratio {curr_name} / baseline {base_name} = {ratio:.3f}x "
              f"(limit {limit:.3f}x){'' if ok else '  << REGRESSION'}")
        if not ok:
            failures.append(
                f"{curr_name} is {ratio:.3f}x of baseline {base_name} "
                f"(limit {limit:.3f}x)")

    kernel = context.get("fairtopk_kernel", "")
    for spec in args.min_speedup_when_kernel:
        parts = spec.split(",")
        if len(parts) != 4:
            failures.append(f"bad --min-speedup-when-kernel spec: {spec}")
            continue
        kernels = parts[0].split("|")
        if kernel not in kernels:
            print(f"skipping kernel-gated speedup {parts[1]} / {parts[2]} "
                  f"(kernel '{kernel}' not in {parts[0]})")
            continue
        check_min_speedup(current, parts[1], parts[2], float(parts[3]),
                          failures)

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall perf gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
