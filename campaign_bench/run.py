#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Run from the repository root:

  python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 campaign_bench/run.py --all [--seed N] [--seconds S]
  python3 campaign_bench/run.py --test

The first form builds the driver (Release, from ../src) if needed and runs
one workload; the last line of its standard output is the JSON result. The
second runs every workload untraced and prints a table of the end-to-end
metrics. The third builds and runs the benchmark's own tests.

Build outputs go to $CARGO_TARGET_DIR (default .bench_build) under the
repository root.
"""
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fades-pulse-lut", "fades-bitflip-mem-x2", "vfit-compiled-records"]
END_TO_END = ["setup_s", "campaign_s", "experiments_per_s", "peak_rss_mb",
              "modeled_s_per_fault"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "campaign_bench")


def build(target):
    """Configure once, then build `target`; build logs go to stderr."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch files inside
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
                shutil.rmtree(out, ignore_errors=True)
                sys.exit("error: configuring the campaign benchmark failed")
        jobs = str(os.cpu_count() or 1)
        if subprocess.call(["cmake", "--build", out, "--target", target,
                            "-j", jobs], stdout=sys.stderr, env=env) != 0:
            sys.exit("error: building the campaign benchmark failed")
    return out


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, so a run names the
    code it measured even in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "campaign_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def driver_command(out, args):
    return [os.path.join(out, "campaign_bench"), *args,
            "--work-dir", os.path.join(out, "work"),
            "--commit", commit(), "--source-digest", source_digest()]


def option(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 >= len(args):
            sys.exit(f"error: {flag} needs a value")
        return args[i + 1]
    return default


def run_all(args):
    """Every workload untraced; a table of the end-to-end metrics."""
    seed = option(args, "--seed", "2006")
    seconds = option(args, "--seconds", "30")
    out = build("campaign_bench")
    rows = []
    status = 0
    for w in WORKLOADS:
        cmd = driver_command(out, ["--workload", w, "--seed", seed,
                                   "--seconds", seconds, "--trace", "0"])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            rows.append((w, None))
            status = 1
            continue
        result = json.loads(lines[-1])
        status = status or proc.returncode
        rows.append((w, result))
    for w, result in rows:
        print(f"{w}:")
        if result is None:
            print("  no result")
            continue
        for name in END_TO_END:
            m = result["metrics"][name]
            print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<22} {frac:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
        print(f"  {'correct':<22} {result['correct']!s:>14}")
    return status


def run_tests():
    out = build("campaign_bench_test")
    return subprocess.call(["ctest", "--test-dir", out, "--output-on-failure"])


def main():
    args = sys.argv[1:]
    if args[:1] == ["--all"]:
        return run_all(args[1:])
    if args == ["--test"]:
        return run_tests()
    out = build("campaign_bench")
    sys.stdout.flush()
    cmd = driver_command(out, args)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
