#!/usr/bin/env python3
"""Build and run the cwfmem host-speed benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mem_bound --seed 1 --seconds 10 --trace 0

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default .bench_build), then run. The binary
prints the result as the last stdout line; this script checks that the
metric names match BENCHMARK.json and passes the exit code through.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Hard limit on one measuring process, so a hung run still ends.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        fail(f"{ROOT} holds no cwfmem sources (crates/sim is missing); nothing to measure")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT)
    if build.returncode != 0:
        fail("benchmark build failed")

    exe = os.path.join(target, "release", "cwfmem-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(target, "perfbench-out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    key = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metric set differs from BENCHMARK.json {key}: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
