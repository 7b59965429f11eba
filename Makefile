# Convenience targets for the IDS evaluation reproduction.

GO ?= go

.PHONY: all build test race bench benchhot benchgate benchtrace benchobs benchsim benchserve ci eval sweep traces faultscenarios faultgolden smoke crashmatrix tracereport clean

all: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate a change must pass before merging. Each step runs once:
# - build and vet;
# - the whole suite under the race detector, uncached (-count=1). The
#   parallel evaluation pipeline makes -race part of correctness. This
#   one pass covers the fuzz seed corpora as regression tests, the
#   telemetry and fault determinism guards, the campaign crash-safety
#   contracts and the shard coordinator's barrier protocol;
# - faultscenarios: the shipped fault scenarios reproduce their golden
#   degradation curves byte for byte;
# - smoke: the campaign, live-observability and idsevald chaos
#   scenarios against the built binaries (cmd/smoke);
# - crashmatrix: every storage commit point crossed with every
#   single-fault schedule a hostile disk can produce (cmd/crashtorture);
# - benchgate: hot-path MB/s and sharded events/sec within 15% of their
#   committed baselines, the telemetry disabled path within its ns/op
#   bound at zero allocations, and idsevald ingest allocs/op.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -count=1 ./...
	$(MAKE) faultscenarios
	$(MAKE) smoke
	$(MAKE) crashmatrix
	$(MAKE) benchgate

# Regenerate every table and figure of the paper.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path microbenchmarks with allocation counts, captured as JSON so
# successive runs can be diffed (benchcmp-style) across commits. The
# committed BENCH_hotpath.json doubles as the benchgate baseline.
HOTBENCH := SignatureInspect|AhoCorasick|NaiveScan4K|MatcherConstruct|ScanBatch|ScanSetInto|HTTPRequest|HTTPResponse|SyslogMessage|BulkChunk|FrameDialogue

benchhot:
	$(GO) test -run=NONE -bench='$(HOTBENCH)' \
		-benchmem -count=1 -json ./internal/detect/ ./internal/traffic/ > BENCH_hotpath.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_hotpath.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_hotpath.json"

# Throughput regression gate: rerun the benchhot and benchsim suites
# into scratch files and fail if any gated benchmark (MB/s for the scan
# hot path, events/sec for the sharded kernel) dropped more than 15%
# against the committed baselines. On hosts with >= 4 CPUs the sim gate
# additionally enforces the 4-shard/1-shard scaling floor; single-core
# hosts report the ratio and skip. Regenerate baselines with `make
# benchhot` / `make benchsim` (and commit them) after an intentional
# perf change.
benchgate:
	$(GO) test -run=NONE -bench='$(HOTBENCH)' \
		-benchmem -count=1 -json ./internal/detect/ ./internal/traffic/ > /tmp/BENCH_hotpath.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_hotpath.json \
		-current /tmp/BENCH_hotpath.current.json -max-drop-pct 15
	$(GO) test -run=NONE -bench='$(SIMBENCH)' \
		-benchmem -count=1 -json ./internal/eval/ > /tmp/BENCH_sim.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_sim.json \
		-current /tmp/BENCH_sim.current.json -max-drop-pct 15 \
		-speedup-num BenchmarkShardedScaleShards4 \
		-speedup-den BenchmarkShardedScaleShards1 -min-speedup 2.5
	$(GO) test -run=NONE -bench='$(OBSBENCH)' \
		-benchmem -count=1 -json ./internal/obs/ > /tmp/BENCH_obs.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json \
		-current /tmp/BENCH_obs.current.json \
		-gate-ns Disabled -max-ns-grow-pct 100 -ns-slack-ns 2 \
		-require-zero-allocs Disabled
	$(GO) test -run=NONE -bench='$(SERVEBENCH)' \
		-benchmem -count=1 -json ./internal/serve/ > /tmp/BENCH_serve.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_serve.json \
		-current /tmp/BENCH_serve.current.json \
		-gate-allocs ServeIngest -max-allocs-grow-pct 10

# Sharded-kernel throughput benchmarks: the >= 10k-host LargeConfig run
# at 1, 2, 4, and 8 executor goroutines, captured as JSON. The committed
# BENCH_sim.json doubles as the benchgate baseline; a trailing note
# records the measuring host's CPU count, because parallel speedup is
# physically bounded by cores (benchgate arms its scaling floor only on
# >= 4-CPU hosts).
SIMBENCH := ShardedScaleShards

benchsim:
	$(GO) test -run=NONE -bench='$(SIMBENCH)' \
		-benchmem -count=1 -json ./internal/eval/ > BENCH_sim.json
	@echo '{"Action":"output","Package":"benchsim-host","Output":"# host-cpus: '"$$(nproc)"'"}' >> BENCH_sim.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_sim.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_sim.json (host cpus: $$(nproc))"

# Trace codec benchmarks (IDT2 encode/decode throughput, allocation
# counts, and the replay live-heap comparison), captured as JSON so
# successive runs can be diffed across commits.
benchtrace:
	$(GO) test -run=NONE -bench='StreamEncode|StreamDecode|StreamDecodePipelined|ReplayLiveHeap' \
		-benchmem -count=1 -json ./internal/trace/ > BENCH_trace.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_trace.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_trace.json"

# Telemetry-overhead benchmarks: the disabled (nil-instrument) path must
# stay at a few ns/op with zero allocations — the contract that lets
# instrumentation live permanently in simulation hot paths. The
# committed BENCH_obs.json doubles as the benchgate baseline: the
# *Disabled benchmarks gate on ns/op growth (with absolute slack, since
# the path is sub-nanosecond) and must report exactly 0 allocs/op.
OBSBENCH := CounterInc|GaugeUpdate|HistogramObserve|Span|Snapshot|Flight

benchobs:
	$(GO) test -run=NONE -bench='$(OBSBENCH)' \
		-benchmem -count=1 -json ./internal/obs/ > BENCH_obs.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_obs.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_obs.json"

# Service ingest benchmark: chunk acceptance through the full durable
# path (spool append + fsync, ack journal append + fsync, ledger
# booking). The committed BENCH_serve.json doubles as the benchgate
# baseline. allocs/op is the gated dimension — the path sits at 2
# allocs per chunk, and the regression worth catching (an accidental
# copy or buffer per chunk) shows up there deterministically, while
# MB/s on a syscall-bound path swings severalfold with host IO and is
# reported but not gated.
SERVEBENCH := ServeIngest

benchserve:
	$(GO) test -run=NONE -bench='$(SERVEBENCH)' \
		-benchmem -count=1 -json ./internal/serve/ > BENCH_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_serve.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_serve.json"

# The paper's full prototype evaluation (all four products, both postures).
eval:
	$(GO) run ./cmd/idseval -posture realtime
	$(GO) run ./cmd/idseval -posture distributed

# Figure-4 sweeps for the two interesting products.
sweep:
	$(GO) run ./cmd/eersweep -product TrueSecure -points 6
	$(GO) run ./cmd/eersweep -product NetRecorder -points 6

FAULT_SCENARIOS := span-degrade sensor-outage pipeline-outage
FAULTSWEEP_FLAGS := -quick -points 3 -seed 11

# Pin the shipped fault scenarios to golden degradation curves: for a
# fixed seed, scenario, and severity grid the sweep output is part of
# the determinism contract and must stay byte-identical.
faultscenarios:
	@for s in $(FAULT_SCENARIOS); do \
		echo "fault scenario $$s"; \
		$(GO) run ./cmd/faultsweep -scenario examples/faults/$$s.json $(FAULTSWEEP_FLAGS) \
			| diff -u examples/faults/golden/$$s.txt - || exit 1; \
	done

# Regenerate the golden curves after an intentional behaviour change.
faultgolden:
	@for s in $(FAULT_SCENARIOS); do \
		$(GO) run ./cmd/faultsweep -scenario examples/faults/$$s.json $(FAULTSWEEP_FLAGS) \
			> examples/faults/golden/$$s.txt; \
		echo "wrote examples/faults/golden/$$s.txt"; \
	done

SMOKE_DIR := /tmp/repro-smoke

# End-to-end smoke of the built binaries: cmd/smoke runs the campaign
# interrupt/resume, live-observability and idsevald chaos scenarios in
# sequence (see its package comment for every check).
smoke:
	rm -rf $(SMOKE_DIR)
	mkdir -p $(SMOKE_DIR)/bin
	$(GO) build -o $(SMOKE_DIR)/bin/ ./cmd/campaign ./cmd/idsevald ./cmd/trafficgen
	$(GO) run ./cmd/smoke -campaign $(SMOKE_DIR)/bin/campaign \
		-idsevald $(SMOKE_DIR)/bin/idsevald -trafficgen $(SMOKE_DIR)/bin/trafficgen \
		-dir $(SMOKE_DIR)/run
	rm -rf $(SMOKE_DIR)

# Storage-fault matrix: cmd/crashtorture probes each workload's exact
# filesystem-operation trace, then replays it once per (operation ×
# fault class) — ENOSPC, EIO, short writes, lying fsyncs, crash-stop,
# torn tails, crash around rename/remove — recovering on the real
# filesystem after every schedule and checking the durability
# invariants: byte-identical campaign resume, balanced idsevald
# ledger, resume point == durable ack prefix, no torn file at a final
# path. Entirely in-process; the whole matrix (~300 schedules) runs in
# a few seconds. DESIGN.md §16 documents the fault model.
crashmatrix:
	$(GO) run ./cmd/crashtorture

# Capture a flight-recorder timeline of the sharded at-scale run as
# Chrome trace_event JSON. Open trace_sharded.json in Perfetto
# (https://ui.perfetto.dev) to see per-domain window spans, barrier
# waits, and harness marks on the sim timeline.
tracereport:
	$(GO) run ./cmd/idseval -shards 4 -scale-segments 4 -scale-hosts 8 \
		-scale-duration 1s -product TrueSecure -trace-out trace_sharded.json
	@echo "wrote trace_sharded.json — open in https://ui.perfetto.dev"

# Canned-trace workflow (Lesson 2).
traces:
	$(GO) run ./cmd/trafficgen -o /tmp/eval.idt2 -seconds 60 -pps 600
	$(GO) run ./cmd/replay -trace /tmp/eval.idt2 -product TrueSecure

# The BENCH_*.json files are NOT cleaned: they are committed baselines,
# regenerated deliberately via their bench* targets.
clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt trace_sharded.json
