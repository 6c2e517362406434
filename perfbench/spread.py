#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [WORKLOAD ...]
    python3 perfbench/spread.py --counts [WORKLOAD ...]

Runs perfbench/run.py once per seed (1..runs) on each workload with tracing
off and prints, per metric, the median and the distance between the first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json. Exits 1 if a run fails or a spread (setup_s excepted)
exceeds its bound. With --counts it instead runs the traced pass twice at
seed 1 and checks that every exact per-layer count repeats.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def check_counts(spec, workloads, seconds):
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "sim_s")]
    ok = True
    for w in workloads:
        a, b = (run_once(w, 1, seconds, 1) for _ in range(2))
        if a is None or b is None or a["failed"] or b["failed"]:
            print(f"{w}: traced run failed")
            ok = False
            continue
        diff = [n for n in exact
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        print(f"{w}: {len(exact) - len(diff)}/{len(exact)} exact counts "
              f"repeat" + (f"; differ: {', '.join(diff)}" if diff else ""))
        ok = ok and not diff
    return 0 if ok else 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    if args.counts:
        return check_counts(spec, args.workloads, args.seconds)
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            res = run_once(w, seed, args.seconds, 0)
            if res is None or res["failed"] != 0:
                print(f"{w} seed {seed}: run failed")
                ok = False
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag = "  OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"{w:14s} {m['name']:18s} median {med:12.6g} {m['unit']:8s}"
                  f" spread {spread:7.2%} bound {m['bound']:.0%}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
