# Convenience targets for the IDS evaluation reproduction.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmtcheck test race bench benchmark ci eval sweep traces faultscenarios faultgolden smoke crashmatrix tracereport clean

all: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

# Fail when any tracked Go file (e2ebench included) is not gofmt-clean.
fmtcheck:
	@files=$$(git ls-files '*.go') || exit 1; \
	bad=$$($(GOFMT) -l $$files); \
	if [ -n "$$bad" ]; then echo "gofmt -l lists:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate a change must pass before merging. Each step runs once:
# - build, vet, and fmtcheck (every tracked Go file is gofmt-clean);
# - the whole suite under the race detector, uncached (-count=1). The
#   parallel evaluation pipeline makes -race part of correctness. This
#   one pass covers the fuzz seed corpora as regression tests, the
#   telemetry and fault determinism guards, the campaign crash-safety
#   contracts, the shard coordinator's barrier protocol and the
#   allocation contracts of the hot paths (testing.AllocsPerRun);
# - the e2ebench module (its own go.mod, so ./... above never compiles
#   it): vet and short tests, so an internal API change cannot break
#   the benchmark unnoticed;
# - faultscenarios: the shipped fault scenarios reproduce their golden
#   degradation curves byte for byte;
# - smoke: the campaign, live-observability and idsevald chaos
#   scenarios against the built binaries (cmd/smoke);
# - crashmatrix: every storage commit point crossed with every
#   single-fault schedule a hostile disk can produce (cmd/crashtorture).
# Speed is not gated here: throughput is only comparable between runs
# on one host, so `make benchmark` measures it parent-vs-change.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmtcheck
	$(GO) test -race -count=1 ./...
	cd e2ebench && $(GO) vet ./... && $(GO) test -short ./...
	$(MAKE) faultscenarios
	$(MAKE) smoke
	$(MAKE) crashmatrix

# Regenerate every table and figure of the paper.
bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares (e2ebench/README.md),
# once per workload. One workload alone, or per-layer metrics:
# bash e2ebench/run.sh --workload daemon --trace 1.
benchmark:
	@for w in scorecard campaign daemon atscale; do \
		bash e2ebench/run.sh --workload $$w || exit 1; \
	done

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

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt trace_sharded.json
