#!/usr/bin/env python3
"""Build and run the Hyder benchmark; print one JSON result line.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload replay|oltp|recover --seed N \
        --seconds S --trace 0|1

Builds perfbench/hbench.exe from source with dune, runs it, and prints
its metrics with the units BENCHMARK.json gives them: every end-to-end
metric with --trace 0, every per-layer metric with --trace 1.  A traced
run also writes perfbench/out/<workload>-<seed>.spans.tsv (the span dump)
and .layers.txt (the per-layer table from analyze.py).  Progress and the
table go to stderr; the last line of stdout is the result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing beside the sources
import analyze  # noqa: E402


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no hyder sources (dune-project, lib/) beside perfbench/")

    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/hbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        fail("build failed")

    out = os.path.join(HERE, "out")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "hbench.exe")
    proc = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=170)
    if proc.returncode != 0:
        fail("hbench.exe exited with %d" % proc.returncode)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = res["metrics"]
    print("run.py: %s" % json.dumps(res["info"]), file=sys.stderr)

    if args.trace:
        base = os.path.join(out, "%s-%d" % (args.workload, args.seed))
        spans = analyze.load(base + ".spans.tsv")
        metrics.update(analyze.span_metrics(spans))
        text = analyze.table(spans, metrics)
        with open(base + ".layers.txt", "w") as f:
            f.write(text + "\n")
        print(text, file=sys.stderr)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    result = {}
    for m in wanted:
        v = metrics.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s missing or not finite: %r" % (m["name"], v))
        result[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": result}))


if __name__ == "__main__":
    main()
