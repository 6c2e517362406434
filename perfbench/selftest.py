#!/usr/bin/env python3
"""Self-test of the benchmark itself, on the tiny `smoke` grid.

    python3 perfbench/selftest.py

Checks that run.py prints every metric BENCHMARK.json names, with its unit,
in both modes; that a wrong pinned digest fails every run (failed ==
attempted) and exits non-zero; that off the default seed only the identity
checks apply; and that a grid- or engine-changing environment variable is
refused without a result. Exits 1 on the first check that fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra, env=None, seed=1, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "smoke", "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, env=env)
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, res = run(trace=trace)
        check(code == 0 and res is not None and res["correct"]
              and res["failed"] == 0 and res["attempted"] >= 1,
              f"trace {trace}: clean run, exit 0")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, f"trace {trace}: every {key} metric with its unit")
        check(all(isinstance(v["value"], (int, float))
                  for v in res["metrics"].values()),
              f"trace {trace}: numeric values")

    code, res = run("--expect-digest", "0123456789abcdef")
    check(code != 0 and res is not None and not res["correct"]
          and res["failed"] == res["attempted"] > 0,
          "wrong pinned digest: failed_frac = 1, non-zero exit")

    code, res = run("--expect-digest", "0123456789abcdef", seed=2)
    check(code == 0 and res is not None and res["failed"] == 0,
          "off the default seed the digest is not checked")

    for var, val in (("IRS_BENCH_JOBS", "2"), ("IRS_ENGINE_QUEUE", "binary")):
        code, res = run(env=dict(os.environ, **{var: val}))
        check(code != 0 and res is None, f"{var} set: refused, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
