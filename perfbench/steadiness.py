#!/usr/bin/env python3
"""Measure how steady the benchmark is, workload by workload.

Runs `perfbench/run.py` (untraced) once per seed and workload, one run
at a time, then prints for every end-to-end metric the median and the
spread: the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median. It also
compares the best-of repetition time the benchmark reports with the
median repetition time, computed from the same runs.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--record]

With --record, each workload's runs (metrics plus every repetition's
time) are written to perfbench/steadiness/<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    out_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                           "perfbench-out")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in names:
        runs = []
        for seed in seeds_of(args.seeds):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(p.stdout.strip().split("\n")[-1])
            with open(os.path.join(out_dir, f"series-{w}-seed{seed}-trace0.json")) as f:
                series = json.load(f)
            runs.append({"seed": seed, "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "cells": series["cells"]})
            ok &= result["correct"]
        if len(runs) < 4:
            continue
        print(f"== {w} ({len(runs)} runs)")
        summary = {}
        for name, bound in bounds.items():
            xs = [r["metrics"][name] for r in runs]
            s = spread(xs)
            summary[name] = {"median": statistics.median(xs), "spread": s, "bound": bound}
            flag = "" if name == "setup_s" or s <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<18} median {statistics.median(xs):<14.6g} spread {100 * s:6.2f}%"
                  f"  (bound {100 * bound:.0f}%){flag}")
        # Best-of vs median-of-repetitions, per run: sum over cells.
        best = [sum(min(c["host_ns"]) for c in r["cells"]) for r in runs]
        med = [sum(statistics.median(c["host_ns"]) for c in r["cells"]) for r in runs]
        summary["rep_best_vs_median"] = {"best_spread": spread(best), "median_spread": spread(med)}
        print(f"  repetition time: best-of spread {100 * spread(best):.2f}%, "
              f"median-of-reps spread {100 * spread(med):.2f}%")
        if args.record:
            os.makedirs(os.path.join(HERE, "steadiness"), exist_ok=True)
            with open(os.path.join(HERE, "steadiness", f"{w}.json"), "w") as f:
                json.dump({"workload": w, "run_seconds": spec["run_seconds"],
                           "summary": summary, "runs": runs}, f, indent=1)
                f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
