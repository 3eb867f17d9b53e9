#!/usr/bin/env python3
"""Trace analyser: turn hbench's span dump into a per-layer table.

Each span is one call from the benchmark into a layer's public function
(plus the benchmark's own `bench.*` root spans).  A span's self time is
its duration minus the time its direct children cover.  The table groups
spans by pass (setup, seq, pipe, recovery.seq, recovery.pipe) and name,
and shows count, self time, latency percentiles, minor words per call and
the end-to-end metric each layer should move.

Usage:
    python3 perfbench/analyze.py perfbench/out/replay-1.spans.tsv
"""

import math
import sys

# Layer of each span and the end-to-end metric it should move (on which
# workload).  README.md explains the map.
LAYERS = {
    "bench.setup": ("bench", "setup_s (all)"),
    "bench.rep": ("bench", "glue of the benchmark itself"),
    "executor.txn": ("executor", "txn_per_s, commit_p50_ms on oltp; flat on replay"),
    "codec.encode": ("codec", "txn_per_s on oltp; intention bytes move ds everywhere"),
    "codec.split": ("codec", "txn_per_s on oltp"),
    "codec.reassemble": ("codec", "txn_per_s on oltp; recovery_s"),
    "log.append": ("log", "txn_per_s on oltp only"),
    "log.read": ("log", "txn_per_s on oltp; recovery_s"),
    "pipeline.decode": ("pipeline ds", "melds_per_s.seq on replay, recover; oltp throughput"),
    "pipeline.submit": ("meld tail", "melds_per_s on recover most"),
    "pipeline.flush": ("meld tail", "melds_per_s on recover most"),
    "pipeline.submit_wire_batch": ("runtime", "melds_per_s.pipe on replay; .seq flat"),
    "pipeline.prune": ("state_store", "recover only"),
    "checkpoint.capture": ("checkpoint", "melds_per_s on recover only"),
    "checkpoint.retry": ("checkpoint", "melds_per_s on recover only"),
    "checkpoint.restore": ("checkpoint", "recovery_s"),
}

US, MS = 1e-3, 1e-6  # ns -> us, ns -> ms

# (metric, span name, passes (None = every pass), statistic, scale)
SPAN_METRICS = [
    ("executor.txn_us.p50", "executor.txn", None, "p50", US),
    ("executor.txn_us.p99", "executor.txn", None, "p99", US),
    ("executor.minor_words_per_txn", "executor.txn", None, "words", 1),
    ("codec.encode_us.p50", "codec.encode", None, "p50", US),
    ("codec.encode_minor_words", "codec.encode", None, "words", 1),
    ("log.append_us.p50", "log.append", None, "p50", US),
    ("log.read_us.p50", "log.read", None, "p50", US),
    ("pipeline.decode_us.p50", "pipeline.decode", ("seq",), "p50", US),
    ("pipeline.decode_us.p99", "pipeline.decode", ("seq",), "p99", US),
    ("pipeline.decode_minor_words", "pipeline.decode", ("seq",), "words", 1),
    ("pipeline.submit_us.p50", "pipeline.submit", ("seq",), "p50", US),
    ("pipeline.submit_us.p99", "pipeline.submit", ("seq",), "p99", US),
    ("runtime.slab_us.p50", "pipeline.submit_wire_batch", ("pipe",), "p50", US),
    ("pipeline.prune_us.p50", "pipeline.prune", None, "p50", US),
    ("checkpoint.capture_ms.p50", "checkpoint.capture", None, "p50", MS),
    ("checkpoint.restore_ms", "checkpoint.restore", None, "p50", MS),
]


def load(path):
    """Spans as dicts with dur and self (ns) filled in."""
    spans = []
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            spans.append({
                "name": row["name"],
                "pass": row["pass"],
                "parent": int(row["parent"]),
                "dur": int(row["end_ns"]) - int(row["start_ns"]),
                "words": float(row["minor_words"]),
            })
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["dur"]
    for s, c in zip(spans, child):
        s["self"] = s["dur"] - c
    return spans


def percentile(sorted_values, q):
    """Nearest rank, as hbench.ml computes its latency percentiles."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    k = max(0, min(n - 1, math.ceil(q * n) - 1))
    return float(sorted_values[k])


def select(spans, name, passes=None):
    return [s for s in spans
            if s["name"] == name and (passes is None or s["pass"] in passes)]


def stat(group, what):
    if not group:
        return 0.0
    if what == "words":
        return sum(s["words"] for s in group) / len(group)
    durs = sorted(s["dur"] for s in group)
    return percentile(durs, 0.5 if what == "p50" else 0.99)


def span_metrics(spans):
    """The per-layer metrics that come from spans."""
    out = {m: stat(select(spans, name, passes), what) * scale
           for m, name, passes, what, scale in SPAN_METRICS}
    caps = len(select(spans, "checkpoint.capture"))
    retries = len(select(spans, "checkpoint.retry"))
    out["checkpoint.retry_share"] = retries / (caps + retries) if caps + retries else 0.0
    return out


def table(spans, metrics=None):
    """Per-layer table: self time per pass and span, with the metric each
    row should move, and the tracing overhead when [metrics] carries it."""
    groups = {}
    for s in spans:
        groups.setdefault((s["pass"], s["name"]), []).append(s)
    totals = {}
    for (p, _), g in groups.items():
        totals[p] = totals.get(p, 0) + sum(s["self"] for s in g)
    head = ("pass", "span", "layer", "count", "self_ms", "self%",
            "p50_us", "p99_us", "minor_w", "should move")
    rows = [head]
    order = ["setup", "seq", "pipe", "recovery.seq", "recovery.pipe"]
    for key in sorted(groups, key=lambda k: (order.index(k[0]) if k[0] in order else 99, k[1])):
        g = groups[key]
        self_ns = sum(s["self"] for s in g)
        layer, moves = LAYERS.get(key[1], ("?", ""))
        rows.append((key[0], key[1], layer, str(len(g)),
                     "%.1f" % (self_ns * MS),
                     "%.1f" % (100.0 * self_ns / totals[key[0]] if totals[key[0]] else 0),
                     "%.1f" % (stat(g, "p50") * US), "%.1f" % (stat(g, "p99") * US),
                     "%.0f" % stat(g, "words"), moves))
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    if metrics:
        for mode in ("seq", "pipe"):
            key = "trace.overhead_share." + mode
            if key in metrics:
                lines.append("tracing overhead (%s): %.1f%% of untraced melds/s"
                             % (mode, 100.0 * metrics[key]))
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(table(load(sys.argv[1])))
