GO ?= go

# The committed replays (replay.Replays), each run by detourd -replay.
REPLAYS = churn multipath grayfail crashsafe pressure telemetry overload

.PHONY: build test vet race bench perfbench check fleet chaos overload stress churn multipath grayfail crashsafe pressure telemetry

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Bench: every Go benchmark (scheduler drain bare vs instrumented,
# registry hot path, transfer kernels). The end-to-end benchmark is
# perfbench below.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Perfbench: the layered benchmark's self-test (perfbench/README.md):
# BENCHMARK.json and the program agree, every workload passes its
# correctness gates, and a traced and an untraced run of each workload
# give the same determinism digest. Builds into .bench_build.
perfbench:
	bash perfbench/run.sh --selftest --seed 3

# Fleet: the 600-job multi-tenant trace through the scheduler daemon.
fleet:
	$(GO) run ./cmd/detourd

# Chaos: the fault-injection tests race-clean, then a 300-job fleet
# trace drained under the canned fault schedule.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourd -chaos -jobs 300

# Overload: the flash-crowd trace replayed with and without the
# overload-control stack (admission control, fair queuing, shedding,
# hedging, brownout), comparing goodput and fairness.
overload:
	$(GO) run ./cmd/detourd -replay overload

# Churn: the routing-dynamics tests race-clean (staged convergence,
# push invalidation, make-before-break reroute/reattach), then the BGP
# reconvergence storm replayed with and without the churn stack.
churn:
	$(GO) test -race ./internal/bgppol/ ./internal/sched/ ./internal/replay/ ./internal/core/
	$(GO) run ./cmd/detourd -replay churn

# Multipath: the striping tests race-clean (chunk ledger, hedging,
# drains, churn digest property), then the striped-vs-single replay.
multipath:
	$(GO) test -race ./internal/multipath/ ./internal/stats/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourd -replay multipath

# Grayfail: the gray-failure detection tests race-clean (stall
# watchdogs, outlier ejection with canary re-admission, retry budgets),
# then the silent-degradation replay with and without the health stack.
grayfail:
	$(GO) test -race ./internal/health/ ./internal/faults/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourd -replay grayfail

# Crashsafe: the crash-consistency tests race-clean (journal framing,
# replay fold, torn tails, snapshot equivalence, the full crash-point
# sweep), the journal record-decode fuzzer holds up for a short smoke
# run, then the sweep replay: kill at every crash point, restart on the
# journal, converge byte-identical with zero duplicate commits.
crashsafe:
	$(GO) test -race ./internal/journal/ ./internal/sched/ ./internal/replay/
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) run ./cmd/detourd -replay crashsafe

# Pressure: the storage-exhaustion tests race-clean (staging-disk
# admission/eviction/conservation, quota reclaim/spill/park ladder,
# journal ENOSPC compaction and degraded mode), then the replay:
# disks fill, quota drains, the journal device fills — the full stack
# vs the no-mitigation ablation.
pressure:
	$(GO) test -race ./internal/rsyncx/ ./internal/sched/ ./internal/replay/ ./internal/cloudsim/ ./internal/journal/
	$(GO) run ./cmd/detourd -replay pressure

# Telemetry: the observability-plane tests race-clean (registry hot
# path, histogram merges, sampler wraparound/pause, flight-recorder
# retention, determinism, no-observer-effect), then the instrumented
# flash-crowd replay: live dumps, dashboard sparklines, failed-job
# decision traces, Prometheus dump.
telemetry:
	$(GO) test -race ./internal/telemetry/ ./internal/sched/ ./internal/replay/
	$(GO) run ./cmd/detourd -replay telemetry

# Stress: the scheduler suite repeated under the race detector to
# shake out ordering-dependent bugs in the queue and overload layer.
stress:
	$(GO) test -race -count=5 ./internal/sched/ ./internal/replay/

# The gate PRs must pass: every Go file is gofmt-clean, everything
# compiles, vets clean, the full test suite (including the
# really-concurrent scheduler) is race-clean, the delta-encoding and
# journal-decode fuzzers hold up for a short smoke run, the chaos fleet
# drains, and every committed replay (REPLAYS) is byte-identical across
# two runs of the same seed — for telemetry that covers the whole
# observability plane: metric dumps, time series, sparklines, and
# flight-recorder traces. The eviction-safety suites
# get an explicit race pass (cheap, and kept even if the blanket ./...
# leg above is ever narrowed).
check:
	@out=$$(gofmt -l *.go cmd examples internal perfbench); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) test -race ./internal/rsyncx/ ./internal/sched/
	$(GO) test -fuzz=FuzzDelta -fuzztime=10s ./internal/rsyncx
	$(GO) test -fuzz=FuzzScan -fuzztime=5s ./internal/journal
	$(GO) run ./cmd/detourd -chaos -jobs 300 -stats 0 >/dev/null
	for r in $(REPLAYS); do \
		$(GO) run ./cmd/detourd -replay $$r >.replay.a.tmp && \
		$(GO) run ./cmd/detourd -replay $$r >.replay.b.tmp && \
		cmp .replay.a.tmp .replay.b.tmp || exit 1; \
	done
	rm -f .replay.a.tmp .replay.b.tmp
