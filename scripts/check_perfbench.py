#!/usr/bin/env python3
"""Correctness gate for one perfbench run.

Usage:
    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0 \
        | python3 scripts/check_perfbench.py W

Reads the result line that perfbench/run.py prints last and exits
non-zero unless it reports "correct": true and "failed": 0 (the
benchmark's own validator: backward OCC check on the commit set,
decisions against the reference run, final and recovered state).
Timings are printed but never gated.
"""

import json
import sys


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "perfbench"
    lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
    if not lines:
        sys.exit("%s: no result line (run.py failed?)" % name)
    try:
        res = json.loads(lines[-1])
    except ValueError:
        sys.exit("%s: last line is not JSON: %r" % (name, lines[-1]))
    ok = res.get("correct") is True and res.get("failed") == 0
    metrics = {k: v.get("value") for k, v in res.get("metrics", {}).items()}
    print("%s: correct=%s attempted=%s failed=%s %s" % (
        name, res.get("correct"), res.get("attempted"), res.get("failed"),
        json.dumps(metrics)))
    if not ok:
        sys.exit("%s: FAILED (correct must be true and failed 0)" % name)


if __name__ == "__main__":
    main()
