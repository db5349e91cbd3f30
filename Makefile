# Development targets for the compsynth repository. Everything is
# stdlib-only Go; no external tools are required beyond the toolchain.

GO ?= go

.PHONY: all build test test-short race cover bench bench-smoke bench-module bench-json effort-gate fuzz-smoke experiments examples obs-smoke obs-demo service-smoke log-smoke fleet-smoke fleet-ha-smoke fleet-chaos docs-lint fmt fmt-check vet clean

# Tier-1 verification: build, the gofmt check, vet, the full test
# suite, the race detector over the packages with real concurrency
# (the work-stealing branch-and-prune engine and, ten runs each, its
# steal hammer and worker-count invariance over per-worker box batches
# kept across spans, the batched tape interpreters, the synthesis
# service's worker pool, its parallel startup recovery and its journal
# replays off the manager lock racing Get, Delete and Abort, and ten
# runs each over the
# point checks' pooled lane scratch, repairs holding
# pooled scenario batches on one shared system, Program.Eval's
# pooled 1-lane batches from concurrent goroutines, a stepper's Close
# racing its in-flight NextBatch, and recovered sessions that compute
# nothing until polled), a
# one-iteration compile check of every benchmark, smoke tests of the
# observability HTTP endpoint, the compsynthd service layer, the
# structured log stream, the multi-node fleet (router + daemons + chaos
# loadgen over real HTTP), the replicated-journal failover path (a member
# SIGKILLed and never restarted, its sessions adopted elsewhere), the
# oracle-effort regression gate, the end-to-end benchmark module's vet
# and -short tests, a short fuzz of the differential evaluation
# targets, and the documentation gate.
all: build fmt-check vet test race bench-smoke bench-module obs-smoke service-smoke log-smoke fleet-smoke fleet-ha-smoke effort-gate fuzz-smoke docs-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -count=10 -run '^(TestPruneStealHammer|TestPruneWorkerCountInvariance)$$' ./internal/solver/
	$(GO) test -race -count=10 -run '^TestSystemPointChecks$$' ./internal/solver/
	$(GO) test -race -count=10 -run '^TestRepairMatchesReference$$' ./internal/solver/
	$(GO) test -race -count=10 -run '^TestProgramEvalConcurrent$$' ./internal/expr/
	$(GO) test -race -count=10 -run '^(TestStepperClose|TestRecoveryIdleUntilPolled)$$' ./internal/core/ ./internal/service/
	$(GO) test -race ./internal/sketch/ ./internal/solver/ ./internal/core/ ./internal/obs/ ./internal/service/ ./internal/fleet/ ./internal/expr/

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark under -short: catches benchmarks
# that no longer compile or panic without paying for real measurement.
# Part of tier-1 `all`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# Vet and -short test the end-to-end benchmark (bench/). It is a
# separate module, so the root `go test ./...` never compiles it; this
# catches a change to an API it uses. Part of tier-1 `all`.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Archive hot-path benchmark results (ns/op, B/op, allocs/op, custom
# metrics like queries/run) as JSON for cross-commit perf tracking.
# Also refreshes the oracle-effort baseline that `make effort-gate`
# enforces.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_solver.json

# Oracle-effort regression gate: re-run the pinned queries-to-
# convergence benchmark and fail if the planner needs more oracle
# queries than the baseline archived in BENCH_solver.json, or saves
# less than 30% over planner-off. Part of tier-1 `all`.
effort-gate:
	$(GO) run ./cmd/effortgate

# Fuzz each differential evaluation target for 10 s: random programs,
# deep ones included, through Program.Eval, a scenario batch's full
# pass over scenario lanes at one hole vector and over hole-vector
# lanes at one variable vector, a box batch's interval pass over
# scenario lanes, and a scenario batch's hole moves and commits,
# checked against the AST interpreter, with every move that Unchanged
# proves a no-op held to its kept rows and a box batch moved through a
# chain of boxes held row by row to a full pass at each. Then fuzz the
# two parsers of network input for 10 s each: the transcript decoder
# (PUT …/transcript) and the expression parser (inline spec sketches).
# Part of tier-1 `all`.
fuzz-smoke:
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzDifferentialEval$$' -fuzztime 10s
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzDifferentialBatch$$' -fuzztime 10s
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzDifferentialMove$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzReadTranscript$$' -fuzztime 10s
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s

# Boot the live observability endpoint: /metrics (Prometheus text),
# /debug/vars (expvar), /debug/pprof, /trace (JSONL spans).
obs-smoke:
	$(GO) test -short -run TestServe ./internal/obs/

# Smoke the compsynthd service layer without full synthesis runs: API
# error contract, journal crash tolerance, recovery quarantine and
# parallel recovery, replays racing Get, Delete and Abort, and the
# telemetry mounts (the -short subset of the service tests).
service-smoke:
	$(GO) test -short -run 'TestHTTP|TestHandlerMountsObs|TestJournal|TestRecovery|Replay' ./internal/service/

# Boot a real compsynthd, drive a session over HTTP, and assert every
# emitted log line is valid JSON carrying the session/request_id
# correlation attributes.
log-smoke:
	$(GO) test -run TestLogSmoke ./cmd/compsynthd/

# Boot a real fleet — router + 2 compsynthd processes — and run the
# chaos loadgen short: concurrent sessions over real HTTP through
# kill/restart, migrate, and drain events, every completed transcript
# bit-identical to a single-process batch run, all logs valid JSON,
# fleet metrics live. Part of tier-1 `all`.
fleet-smoke:
	mkdir -p .fleet-smoke/bin
	$(GO) build -o .fleet-smoke/bin/ ./cmd/compsynthd ./cmd/compsynth-router ./cmd/synthload
	.fleet-smoke/bin/synthload -sessions 6 -daemons 2 -events 4 \
		-concurrency 4 -event-interval 100ms \
		-daemon-bin .fleet-smoke/bin/compsynthd \
		-router-bin .fleet-smoke/bin/compsynth-router

# Failover smoke (DESIGN.md §16): a replicated 3-member fleet where
# one chaos event SIGKILLs a member permanently — no restart. Its
# sessions must complete through automatic adoption of the replica
# journals (fleet_adoptions_total >= 1 is asserted by synthload), with
# every transcript still bit-identical to a batch run. Part of
# tier-1 `all`.
fleet-ha-smoke:
	mkdir -p .fleet-smoke/bin
	$(GO) build -o .fleet-smoke/bin/ ./cmd/compsynthd ./cmd/compsynth-router ./cmd/synthload
	.fleet-smoke/bin/synthload -sessions 6 -daemons 3 -events 4 \
		-replicas 2 -dead-kills 1 \
		-concurrency 4 -event-interval 100ms \
		-daemon-bin .fleet-smoke/bin/compsynthd \
		-router-bin .fleet-smoke/bin/compsynth-router

# The full chaos acceptance bar: 200 sessions across a 3-member fleet
# with 20 kill/restart/migrate/drain events, five of them permanent
# owner deaths recovered only by replica adoption. A run whose load
# ends before a kill/restart (journal replay on restart) fails.
fleet-chaos:
	mkdir -p .fleet-smoke/bin
	$(GO) build -o .fleet-smoke/bin/ ./cmd/compsynthd ./cmd/compsynth-router ./cmd/synthload
	.fleet-smoke/bin/synthload -sessions 200 -daemons 3 -events 20 \
		-replicas 2 -dead-kills 5 \
		-daemon-bin .fleet-smoke/bin/compsynthd \
		-router-bin .fleet-smoke/bin/compsynth-router

# End-to-end demo of the -obs endpoint: run a small experiment campaign
# with the endpoint attached, scrape /metrics while it lingers.
obs-demo:
	$(GO) run ./cmd/experiments -table1 -runs 2 -fast -effort \
		-obs 127.0.0.1:8090 -obs-linger 6s & \
	sleep 4 && curl -sf http://127.0.0.1:8090/metrics | grep -E '^compsynth_' | head -20; \
	wait

# Regenerate every paper artifact at full fidelity (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -all -runs 9 -seed 1

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/swan-te
	$(GO) run ./examples/abr-qoe
	$(GO) run ./examples/homenet
	$(GO) run ./examples/perflow-te

# Documentation gate: every internal/cmd package has a godoc package
# comment, every relative link in the top-level docs resolves, and
# every Test/Benchmark/Fuzz function the current docs cite exists.
docs-lint:
	$(GO) run ./cmd/doclint

fmt:
	gofmt -w .

# Fail when gofmt would rewrite a tracked Go file. Listing files with
# git skips build output such as .bench_build/ and .fleet-smoke/. Part
# of tier-1 `all`.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
	rm -rf .fleet-smoke
