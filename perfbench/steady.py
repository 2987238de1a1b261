#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json --runs times, each run on another
seed, alternating the order of the workloads from one pass to the next,
and prints for each end-to-end metric its median, quartiles and spread
(interquartile distance over the median) against the metric's bound.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --compare perfbench/_out/steady-A.json perfbench/_out/steady-B.json

Run from the root of the repository. Each set is saved under
perfbench/_out/ so that two sets of runs can be compared afterwards:
--compare prints how far the second set's medians moved against the
first's, as a share of the first, next to each bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - t0
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        rs = runs[w["name"]]
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"\n{w['name']}: {len(rs)} runs, correct={all(r['correct'] for r in rs)}, "
              f"failed shares={sorted(shares)}, "
              f"run wall time max {max(r['wall_s'] for r in rs):.1f} s")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'spread/bound':>12s}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, spread = summary(vals)
            flag = "" if name == "setup_s" else ("  OK" if spread < bound / 3 else
                                                 ("  within bound" if spread <= bound else "  WIDE"))
            print(f"  {name:24s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bound:6.3f} {spread / bound:12.2f}{flag}")


def compare(spec, a, b):
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for w in spec["workloads"]:
            va = [r["metrics"][name]["value"] for r in a[w["name"]]]
            vb = [r["metrics"][name]["value"] for r in b[w["name"]]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            print(f"{w['name']:14s} {name:24s} {ma:12.5g} -> {mb:12.5g} "
                  f"worse by {worse:+.3f} (bound {bound})"
                  f"{'  EXCEEDS' if worse > bound else ''}")
    for w in spec["workloads"]:
        sa = {r["failed"] / r["attempted"] for r in a[w["name"]]}
        sb = {r["failed"] / r["attempted"] for r in b[w["name"]]}
        print(f"{w['name']:14s} failed shares {sorted(sa)} vs {sorted(sb)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            compare(spec, json.load(fa), json.load(fb))
        return
    names = [w["name"] for w in spec["workloads"]]
    runs = {w["name"]: [] for w in spec["workloads"]}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.first_seed + i
            r = run_once(spec, name, seed)
            runs[name].append(r)
            print(f"run {i + 1}/{args.runs} {name} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
    os.makedirs("perfbench/_out", exist_ok=True)
    path = f"perfbench/_out/steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w") as f:
        json.dump(runs, f)
    report(spec, runs)
    print(f"\nsaved to {path}")


if __name__ == "__main__":
    main()
