#!/usr/bin/env python3
"""Benchmark regression gate for the session frame cache.

Reads a google-benchmark JSON file produced by `bench_microbench --json`
and checks the cached/uncached throughput ratios of the BM_ReconfigExperiment
pairs. Ratios compare two runs of the same binary on the same machine inside
one CI job, so the gate is machine-independent - absolute nanoseconds are
never compared across hosts. When the file holds repeated runs
(--benchmark_repetitions=N), each benchmark's `_median` aggregate is used, so
one noisy repetition cannot swing a ratio; a file without aggregates (such as
the committed baseline) is read from its single iteration entries.

Checks (any failure exits non-zero):
  1. The GSR pair ratio must be >= --min-gsr-ratio (default 1.3): the
     reconfiguration-dominated regime the cache targets must stay fast.
  2. Every *Cached benchmark must not be slower than its *Uncached partner
     by more than --tolerance (default 10%): the cache must never be a
     pessimization.
  3. With --baseline, each pair's ratio must be within --tolerance of the
     committed baseline's ratio for the same pair: a >10% drop in cache
     effectiveness on any pair fails the PR.

Usage:
  tools/check_bench_regression.py current.json [--baseline BENCH_microbench.json]
"""

import argparse
import json
import sys


def throughput(entry):
    # items_per_second when the bench reports it, else inverse real_time.
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    return 1.0 / float(entry["real_time"])


def throughputs(benchmarks):
    # name -> throughput, from the _median aggregates when any exist.
    medians = {
        b["run_name"]: throughput(b)
        for b in benchmarks
        if b.get("run_type") == "aggregate"
        and b.get("aggregate_name") == "median"
    }
    if medians:
        return medians
    return {
        b["name"]: throughput(b)
        for b in benchmarks
        if b.get("run_type", "iteration") == "iteration" and "name" in b
    }


def cache_ratios(path):
    with open(path) as f:
        data = json.load(f)
    by_name = throughputs(data.get("benchmarks", []))
    ratios = {}
    for name, ips in by_name.items():
        if not name.endswith("Cached") or name.endswith("Uncached"):
            continue
        partner = name[: -len("Cached")] + "Uncached"
        if partner in by_name and by_name[partner] > 0:
            ratios[name[: -len("Cached")]] = ips / by_name[partner]
    return ratios


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="bench_microbench --json output to check")
    ap.add_argument("--baseline", help="committed baseline JSON to compare against")
    ap.add_argument("--min-gsr-ratio", type=float, default=1.3)
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()

    ratios = cache_ratios(args.current)
    if not ratios:
        print("error: no Cached/Uncached benchmark pairs found in", args.current)
        return 1
    failed = False
    for pair, ratio in sorted(ratios.items()):
        print(f"{pair}: cached/uncached = {ratio:.2f}x")
        if ratio < 1.0 - args.tolerance:
            print(f"  FAIL: cache is a >{args.tolerance:.0%} pessimization")
            failed = True

    gsr = [r for p, r in ratios.items() if "Gsr" in p]
    if not gsr:
        print("error: GSR benchmark pair missing")
        failed = True
    elif gsr[0] < args.min_gsr_ratio:
        print(
            f"FAIL: GSR pair ratio {gsr[0]:.2f}x below the "
            f"{args.min_gsr_ratio:.1f}x floor"
        )
        failed = True

    if args.baseline:
        base = cache_ratios(args.baseline)
        # A pair present in the baseline but absent from the current run is a
        # hard failure naming the culprit - a silently dropped benchmark must
        # not read as "no regression".
        for pair in sorted(set(base) - set(ratios)):
            print(
                f"FAIL: baseline benchmark pair {pair} "
                f"(e.g. BM_{pair}Cached) is missing from {args.current}"
            )
            failed = True
        for pair, ratio in sorted(ratios.items()):
            if pair not in base:
                print(f"{pair}: new pair, not in baseline - skipping ratio check")
                continue
            floor = base[pair] * (1.0 - args.tolerance)
            status = "ok" if ratio >= floor else "FAIL"
            print(
                f"{pair}: baseline {base[pair]:.2f}x -> current {ratio:.2f}x "
                f"(floor {floor:.2f}x) {status}"
            )
            if ratio < floor:
                failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
