GO ?= go

.PHONY: check build vet test race staticcheck sivet fuzz-smoke bench-smoke bench-check overhead-gate

## check: the one-command local gate — vet, the project-invariant
## analyzers (sivet), build, tests without and with the race detector.
## CI runs the same steps, sivet as a step of its own.
check: vet sivet build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## test: the tests without the race detector — the only run that includes
## the `//go:build !race` gates (allocation pins, the per-tuple footprint),
## which measure what the detector's instrumentation would distort.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

## bench-smoke: the CI benchmark gate — every benchmark runs once, with
## allocation reporting.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

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
## print→parse fixpoint, ParseServing agreeing with ParseCQ-then-ParseQuery;
## seeded with the serving pack Q1–Q7, the showcase views and a catalog),
## the Prometheus exporter against its own strict
## parser, the injective tuple-key encoding every index rides on, the
## TupleSet hash table against a map under random operation sequences,
## the index slot table against a map of groups (same order, slot
## invariants, forced tag collisions), and the /query row codec against
## encoding/json from both ends.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDSLParser -fuzztime=10s ./internal/parser/
	$(GO) test -run=NONE -fuzz=FuzzExpfmtRoundTrip -fuzztime=10s ./internal/obs/
	$(GO) test -run=NONE -fuzz=FuzzTupleKeyInjective -fuzztime=10s ./internal/relation/
	$(GO) test -run=NONE -fuzz=FuzzTupleSetOps -fuzztime=10s ./internal/relation/
	$(GO) test -run=NONE -fuzz=FuzzIndexOps -fuzztime=10s ./internal/index/
	$(GO) test -run=NONE -fuzz=FuzzQueryLine -fuzztime=10s ./internal/server/

## overhead-gate: the CI instrumentation budget — default-on telemetry
## must cost at most 5% wall time on the prepared-exec hot path.
overhead-gate:
	SI_OVERHEAD_GATE=1 $(GO) test -run TestInstrumentationOverheadGate -v .
