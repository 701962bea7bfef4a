# Development targets. `make check` is the tier-1 gate plus static checks
# and the race detector; CI and pre-commit should run it.

GO ?= go

.PHONY: build test race vet fmt check audit-smoke trace-smoke perf-smoke chaos-smoke fuzz-smoke bench-module

build:
	$(GO) build ./...

# Also the determinism gate: internal/lint's TestModule checks every package
# for wall clocks, global RNGs, environment reads and order-leaking map
# iteration, and fails listing each finding.
test:
	$(GO) test ./...

# The whole suite under the race detector. This is also the compute-phase
# purity gate: the workers2 rows of TestGolden (both architectures) and its
# workers2 and workers4 observed rows (probe, auditor, profiler, fault plans
# and lsf corruptions attached) run two and four shards at once, so a node
# Tick that writes shared state — a collector, the tracer, the auditor, a
# commit-only field, a shared counter — instead of staging it is reported as
# a data race (DESIGN.md §15). TestParallelKernelRegParity takes, on one shard, the
# register a neighbour on another shard wrote the cycle before, with one
# barrier per cycle. The sweep worker pool and its parallel-vs-sequential
# determinism tests (internal/sweep, TestFig10SweepDeterminism in
# internal/exp) run here too.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short audited simulation under the race detector: the runtime QoS
# auditor checks every scheduler invariant and delay bound and the command
# exits non-zero on any violation. Both architectures run so the GSF-side
# conformance records stay covered too. Audited sharded runs are the goldens'
# workers2 and workers4 observed rows under `make race`.
audit-smoke:
	for arch in loft gsf; do \
		$(GO) run -race ./cmd/loftsim -arch $$arch -pattern case1 -rate 0.6 \
			-warmup 500 -cycles 2000 -audit || exit 1; \
	done

# A tiny simulation exporting a run directory, then the offline toolchain
# over it: summary and decompose must parse the artifacts, and the run
# diffed against itself must report zero delta and exit 0. A two-seed run
# into a 20000-event ring then decomposes a multi-run stream whose head the
# ring dropped; it must report no timing violation.
trace-smoke:
	@dir="$$(mktemp -d)"; set -e; \
	$(GO) run ./cmd/loftsim -arch loft -pattern case1 -rate 0.6 \
		-warmup 200 -cycles 1500 -audit -probe -out "$$dir/run"; \
	$(GO) run ./cmd/lofttrace summary "$$dir/run" > /dev/null; \
	$(GO) run ./cmd/lofttrace decompose "$$dir/run" > /dev/null; \
	$(GO) run ./cmd/lofttrace diff "$$dir/run" "$$dir/run"; \
	$(GO) run ./cmd/loftsim -arch loft -pattern uniform -rate 0.1 \
		-warmup 200 -cycles 1500 -seeds 2 -probe -probe-events 20000 -out "$$dir/seeds" > /dev/null; \
	$(GO) run ./cmd/lofttrace decompose -json "$$dir/seeds" > "$$dir/seeds.json"; \
	if grep -q '"errors"' "$$dir/seeds.json"; then \
		echo "trace-smoke: timing violations in the two-seed decomposition" >&2; exit 1; \
	fi; \
	rm -rf "$$dir"

# A profiled simulation exporting a run directory, then the perf toolchain
# over it: the stage-attribution table must render, the folded flamegraph
# must be non-empty, and the run diffed against itself (perf metrics
# included) must report zero regression breaches and exit 0.
perf-smoke:
	@dir="$$(mktemp -d)"; set -e; \
	$(GO) run ./cmd/loftsim -arch loft -pattern uniform -rate 0.2 \
		-warmup 200 -cycles 1500 -perf -probe -out "$$dir/run"; \
	$(GO) run ./cmd/lofttrace perf "$$dir/run"; \
	$(GO) run ./cmd/lofttrace diff "$$dir/run" "$$dir/run"; \
	test -s "$$dir/run/perf.folded"; \
	rm -rf "$$dir"

# Graceful degradation under a full five-kind fault plan, audited, across
# three seeds and under the race detector: victim flows must keep every
# delay bound and the adversary must stay inside its quarantine cap, so the
# command exits non-zero on any violation. Besides mesh links, the plan
# downs and drops transmissions on the aggressors' injection links (nodes
# 48 and 56) and stalls the hotspot sink's ejection credits (node 63), so
# the NI and the sink take their faulted forward and credit paths too.
# The golden's observed-chaos rows check that the engine's worker count
# does not change a faulted run's bytes.
chaos-smoke:
	@set -e; plan='link-down node=7 dir=south from=700 to=900; flit-loss node=3 dir=east rate=0.3 from=600 to=1800; credit-stall node=15 dir=south from=1000 to=1060; router-stall node=9 from=1200 to=1210; adversary flow=1 factor=3 cap=0.6 from=800; link-down node=48 dir=inject from=900 to=1000; flit-loss node=56 dir=inject rate=0.3 from=700 to=1700; credit-stall node=63 dir=eject from=1300 to=1340'; \
	for seed in 1 2 3; do \
		$(GO) run -race ./cmd/loftsim -pattern case1 -rate 0.6 \
			-warmup 500 -cycles 2000 -seed $$seed -fault "$$plan" -audit; \
	done

# Ten seconds of coverage-guided fuzzing per target. Three run an optimized
# structure in lock-step with its plain reference: FuzzTableOps runs
# lsf.Table beside the reference table of internal/lsf/reftable_test.go over
# arbitrary operation sequences, FuzzGSFArbitration runs GSF's
# candidate-list arbitration against the nested scans of
# internal/gsf/arbitration_test.go, and FuzzLookaheadOrder LOFT's per-output
# look-ahead lists against the per-VC FIFOs and nested scans of
# internal/loft/laorder_test.go, over arbitrary small configurations.
# FuzzFaultPlan feeds arbitrary text to the fault-plan parser, which must
# reject it or accept a plan of finite values that round-trips exactly.
# FuzzReadEventsJSONL decodes arbitrary events.jsonl dumps with and without
# the direct scan of writer-shaped lines, which must agree on the events,
# the drop count and the error. Any failure leaves its input under the
# package's testdata/fuzz, where `go test` replays it from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTableOps$$' -fuzztime 10s -parallel 2 ./internal/lsf
	$(GO) test -run '^$$' -fuzz '^FuzzGSFArbitration$$' -fuzztime 10s -parallel 2 ./internal/gsf
	$(GO) test -run '^$$' -fuzz '^FuzzLookaheadOrder$$' -fuzztime 10s -parallel 2 ./internal/loft
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime 10s -parallel 2 ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzReadEventsJSONL$$' -fuzztime 10s -parallel 2 ./internal/trace

# The frozen benchmark (bench/, its own module with `replace loft => ../`)
# is invisible to the root `go build ./...`, yet it constructs loft.Options,
# gsf.Options, core.RunSpec and exp.Options with keyed literals and
# type-switches on both Network types: a refactor here can break its compile
# surface silently. Vet it and run its own tests (about 15 s).
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

check: build vet fmt test race audit-smoke trace-smoke perf-smoke chaos-smoke fuzz-smoke bench-module

