.PHONY: all build test check loc bench-smoke bench-macro bench-macro-baseline bench perfbench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: everything compiles and the full test suite passes.
check:
	dune build && dune runtest

# Tracked size of the library: lines in lib/**/*.ml and lib/**/*.mli.
loc:
	@echo "lib_loc=$$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"

# ~60-second smoke of the benchmark harness: the runtime-backends
# cross-check replays one premeld-bound history through seq, pipe:2 and
# pipe:4 and verifies bit-identical results,
# pipeline-overlap replays one wire stream through seq/pipe:4 and
# records per-stage stage_us plus the pipelined backend's offload stats,
# and fig11 (nodes visited by final meld per optimization) contributes
# four cluster runs so BENCH_SMOKE.json carries real perf data
# (write_tps, stage_us, conflict-zone stats) for the trajectory.  The
# gate script then enforces the pipelining regression contract: pipe:4
# bit-identical to seq with a strictly lower driver critical path.
bench-smoke:
	dune exec bench/main.exe -- --json=BENCH_SMOKE.json --quick runtime pipeline-overlap fig11
	python3 scripts/check_bench_smoke.py BENCH_SMOKE.json

# Tracked macro-benchmark: replays one mixed read/write history through
# seq, seq-eager and pipe:4, measuring the final-meld critical path
# (fm_ns_per_txn) and exact per-stage GC words/txn.  The fresh run is
# gated against the committed BENCH_MACRO.json baseline: any backend
# diverging from sequential, the fm loop allocating more minor words/txn
# (tight tolerance — the number is deterministic) or a large fm-ns/txn
# regression (loose tolerance — wall clock on shared CI) fails the make.
# A second, flight-recorded run (kept out of the gated timing run so the
# recorder cannot touch the tracked melds/s) then feeds the analyzer,
# whose per-stage wait/service waterfall (FLIGHT_REPORT.json) is itself
# gated: no negative waits, stage sums bounded by end-to-end time, and
# the p50 stage-sum covering the p50 end-to-end latency within 5%.
bench-macro:
	dune exec bench/main.exe -- --json=BENCH_MACRO.run.json macro
	python3 scripts/check_bench_smoke.py --macro BENCH_MACRO.run.json BENCH_MACRO.json
	dune exec bench/main.exe -- --flight=FLIGHT.jsonl macro
	dune exec bin/hyder_cli.exe -- analyze FLIGHT.jsonl --json FLIGHT_REPORT.json
	python3 scripts/check_bench_smoke.py --flight FLIGHT_REPORT.json

# Refresh the committed baseline (run on a quiet machine, then commit).
bench-macro-baseline:
	dune exec bench/main.exe -- --json=BENCH_MACRO.json macro
	python3 scripts/check_bench_smoke.py --macro BENCH_MACRO.json

bench:
	dune exec bench/main.exe

# Benchmark correctness: one run of each perfbench workload (seed 1),
# failing unless the benchmark's own validator reports "correct": true
# and 0 failed operations.  Timings are not gated.  PERFBENCH_SECONDS
# sets the measured phase (BENCHMARK.json runs 20; CI uses a short one).
PERFBENCH_SECONDS ?= 20
perfbench:
	for w in replay oltp recover; do \
	  python3 perfbench/run.py --workload $$w --seed 1 \
	    --seconds $(PERFBENCH_SECONDS) --trace 0 \
	    | python3 scripts/check_perfbench.py $$w || exit 1; \
	done

clean:
	dune clean
