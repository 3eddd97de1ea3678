GO ?= go

.PHONY: check build test race vet staticcheck sivet fuzz-smoke bench bench-smoke bench-check serving shardscale reorder live live-smoke flat flat-smoke serve serve-smoke metrics-smoke views views-smoke overhead-gate

## check: the CI gate — vet, build, and race-enabled tests.
check: vet build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

## bench-smoke: the CI benchmark gate — every benchmark runs once.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

## bench-check: the CI gate for the repo's benchmark (sibm, BENCHMARK.json).
## benchmarks/ is a nested module, so `go test ./...` above never sees it:
## vet and test it (contract, determinism, hygiene, oracle, trace), then
## run all four workloads once on smoke-sized data (≈ 10 s, checks on).
bench-check:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...
	bash benchmarks/run.sh --workload all --smoke

## staticcheck: run honnef.co/go/tools if installed (CI runs it always).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; CI runs it (https://staticcheck.dev)"

## sivet: the project-invariant analyzers — uncharged reads past the
## ExecStats charge points, lock-discipline violations on `guarded by`
## fields, untyped or wrongly-compared errors, and wire structs whose
## JSON tags drift from snake_case. Exits nonzero with file:line
## diagnostics; DESIGN.md §10 maps each analyzer to the invariant it pins.
sivet:
	$(GO) run ./cmd/sivet ./...

## fuzz-smoke: the CI fuzz gate — each native fuzz target gets a 10s
## coverage-guided run: the DSL parser (no panics, positioned errors,
## print→parse fixpoint), the Prometheus exporter against its own strict
## parser, and the injective tuple-key encoding every index ride on.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDSLParser -fuzztime=10s ./internal/parser/
	$(GO) test -run=NONE -fuzz=FuzzExpfmtRoundTrip -fuzztime=10s ./internal/obs/
	$(GO) test -run=NONE -fuzz=FuzzTupleKeyInjective -fuzztime=10s ./internal/relation/

serving:
	$(GO) run ./cmd/sibench -serving

## shardscale: concurrent-client throughput vs shard count.
shardscale:
	$(GO) run ./cmd/sibench -shardscale

## reorder: cost-ordered vs analysis-order plans, reads/op and µs/op.
reorder:
	$(GO) run ./cmd/sibench -reorder

## live: maintenance reads per commit vs full re-execution on watched Q2.
live:
	$(GO) run ./cmd/sibench -live

## live-smoke: the CI gate — quick -live run; exits nonzero unless
## maintenance is strictly cheaper than re-execution.
live-smoke:
	$(GO) run ./cmd/sibench -live -quick

## flat: the commit-flatness measurement — median commit wall latency on
## the mixed stream at |D|≈30k vs |D|≈150k must stay within 2x.
flat:
	$(GO) run ./cmd/sibench -flat

## flat-smoke: the CI gate — quick -flat run; exits nonzero if the large
## instance's commit p50 exceeds 2x the small one's (write latency grew
## with |D|).
flat-smoke:
	$(GO) run ./cmd/sibench -flat -quick

## serve: load-test the HTTP serving tier — q/s, p50/p99, admission
## reject counts under concurrent clients, a committer, and a watcher.
serve:
	$(GO) run ./cmd/sibench -serve

## serve-smoke: the CI gate — quick -serve run; exits nonzero on a bound
## violation, a misclassified rejection, or a goroutine leak through drain.
serve-smoke:
	$(GO) run ./cmd/sibench -serve -quick

## metrics-smoke: the CI exporter gate — drive a live serving tier, scrape
## GET /metricsz over HTTP, strict-parse the Prometheus text exposition,
## and fail on any malformed line, missing family, or miscounted traffic.
metrics-smoke:
	$(GO) run ./cmd/sibench -metricsz

## views: materialized-view serving — reads/op base-plan vs view-plan on
## Q7, rescued Q6 cost, and transactional maintenance across a commit
## stream.
views:
	$(GO) run ./cmd/sibench -views

## views-smoke: the CI gate — quick -views run; exits nonzero if the
## optimizer picks a strictly worse view plan, a rescued query exceeds
## its static bound, or a view-served answer diverges from the oracle.
views-smoke:
	$(GO) run ./cmd/sibench -views -quick

## overhead-gate: the CI instrumentation budget — default-on telemetry
## must cost at most 5% wall time on the prepared-exec hot path.
overhead-gate:
	SI_OVERHEAD_GATE=1 $(GO) test -run TestInstrumentationOverheadGate -v .
