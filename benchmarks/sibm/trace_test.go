package main

import (
	"context"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

func testEnv(seed int64) *env {
	return &env{ctx: context.Background(), aborted: new(atomic.Bool), seed: seed, seconds: 1, smoke: true}
}

// inTempDir runs the rest of the test in a fresh directory.
func inTempDir(t *testing.T) {
	t.Helper()
	was, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(was); err != nil {
			t.Error(err)
		}
	})
}

// TestTracedBackendChangesNothing pins that wrapping the store for tracing
// alters no plan and no result: for Q1–Q7, an engine on tracedBackend and
// one on the bare store give identical EXPLAIN text, answers and
// TupleReads.
func TestTracedBackendChangesNothing(t *testing.T) {
	tr := newTracer(1024)
	tr.on.Store(true)
	build := func(tr *tracer) *rig {
		r, err := buildRig(rigOpts{persons: 300, seed: 11, views: viewsBoth, tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	bare, traced := build(nil), build(tr)
	rng := rand.New(rand.NewSource(2))
	ctx := context.Background()
	for q, def := range queryPack {
		parsed, err := parseServing(def.src)
		if err != nil {
			t.Fatal(err)
		}
		var preps [2]*core.PreparedQuery
		for i, r := range []*rig{bare, traced} {
			if preps[i], err = r.eng.Prepare(parsed, query.NewVarSet(def.ctrl...)); err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
		}
		if a, b := preps[0].Explain(), preps[1].Explain(); a != b {
			t.Errorf("%s: EXPLAIN differs on the traced backend:\n%s\n--- traced ---\n%s", def.name, a, b)
		}
		for i := 0; i < 20; i++ {
			op := readOp{q: uint8(q), p: int64(rng.Intn(300)), yy: int64(bare.cfg.Years[rng.Intn(3)])}
			a, err := preps[0].Exec(ctx, op.bindings(), core.WithoutTrace())
			if err != nil {
				t.Fatal(err)
			}
			b, err := preps[1].Exec(ctx, op.bindings(), core.WithoutTrace())
			if err != nil {
				t.Fatal(err)
			}
			if !a.Tuples.Equal(b.Tuples) || a.Cost.TupleReads != b.Cost.TupleReads {
				t.Errorf("%s p=%d: bare %d answers / %d reads, traced %d / %d", def.name, op.p,
					a.Tuples.Len(), a.Cost.TupleReads, b.Tuples.Len(), b.Cost.TupleReads)
			}
		}
	}
	if len(tr.snapshot()) == 0 {
		t.Error("the traced backend recorded no span")
	}
}

// TestSelfTimesSumToRoot checks the trace arithmetic on a hand-made trace:
// a child that outlasts its parent is counted only inside it, and the self
// times of an operation add up to its root span.
func TestSelfTimesSumToRoot(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{name: spOp, op: 1, parent: noSpan, start: us(0), end: us(100)},
		{name: spClient, op: 1, parent: 0, start: us(5), end: us(90)},
		{name: spHandler, op: 1, parent: 1, start: us(20), end: us(95)}, // outlasts the client call
		{name: spFetch, op: 1, parent: 2, start: us(30), end: us(40)},
		{name: spFetch, op: 1, parent: 2, start: us(50), end: us(92)},
	}
	self := selfTimes(spans)
	want := []time.Duration{us(15), us(15), us(20), us(10), us(40)}
	var sum time.Duration
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %v, want %v", i, spans[i].name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, the root span is %v", sum, spans[0].dur())
	}
	if n, failures := selfSumCheck(spans, func(int64) bool { return true }); n != 1 || len(failures) != 0 {
		t.Errorf("selfSumCheck: %d checks, failures %v", n, failures)
	}
}

// TestTracedRuns runs every workload's traced run at smoke size: each must
// finish with no failed op or check (the per-operation self-time sum among
// them), report every per-layer metric and write its span file.
func TestTracedRuns(t *testing.T) {
	inTempDir(t) // the span files go to ./benchmarks/out

	for _, name := range workloadNames {
		out, err := runWorkload(testEnv(3), name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed() != 0 {
			t.Errorf("%s: %d failed: %v", name, out.failed(), out.errs)
		}
		if _, err := os.Stat(traceOutDir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
		if v := out.metrics["open_p99_us"]; v <= 0 {
			t.Errorf("%s: open_p99_us = %v", name, v)
		}
	}
}
