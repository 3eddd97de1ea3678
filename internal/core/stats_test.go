package core

import (
	"context"
	"testing"

	"repro/internal/query"
)

// TestEngineStatsSnapshot drives one of everything through the engine —
// a cached prepare, a commit, a live watch — and checks the unified
// snapshot reflects each subsystem's counters.
func TestEngineStatsSnapshot(t *testing.T) {
	ctx := context.Background()
	eng, prep, l := watchQ1(t, 30, 1)
	defer l.Close()

	s0 := eng.Stats()
	if s0.Size == 0 {
		t.Fatal("Stats.Size = 0 on a populated backend")
	}
	if s0.Watchers != 1 {
		t.Fatalf("Stats.Watchers = %d, want 1", s0.Watchers)
	}
	if s0.PlanCacheLen != 1 || s0.PlanCache.Misses == 0 {
		t.Fatalf("plan cache stats %+v len %d, want one miss-filled entry", s0.PlanCache, s0.PlanCacheLen)
	}
	if s0.CommitSeq != 0 || s0.StoreSeq != 0 {
		t.Fatalf("fresh engine reports commit seq %d / store LSN %d, want 0/0", s0.CommitSeq, s0.StoreSeq)
	}
	if s0.Optimizer != OptimizerOn.String() {
		t.Fatalf("Stats.Optimizer = %q, want %q", s0.Optimizer, OptimizerOn.String())
	}

	u := newPersonUpdate(1, 950_000)
	if _, err := eng.Commit(ctx, u); err != nil {
		t.Fatal(err)
	}
	// A second prepare of the same query is a cache hit.
	if _, err := eng.Prepare(prep.Stmt(), query.NewVarSet("p")); err != nil {
		t.Fatal(err)
	}
	s1 := eng.Stats()
	if s1.CommitSeq != 1 {
		t.Fatalf("Stats.CommitSeq = %d after one commit, want 1", s1.CommitSeq)
	}
	if v := eng.DB.Version(); s1.StoreSeq != v {
		t.Fatalf("Stats.StoreSeq = %d, backend reports %d", s1.StoreSeq, v)
	}
	if s1.CommittedVolume["person"] != 1 || s1.CommittedVolume["friend"] != 1 {
		t.Fatalf("Stats.CommittedVolume = %v, want person:1 friend:1", s1.CommittedVolume)
	}
	if s1.PlanCache.Hits <= s0.PlanCache.Hits {
		t.Fatalf("plan cache hits did not advance: %d -> %d", s0.PlanCache.Hits, s1.PlanCache.Hits)
	}
	if s1.Size != s0.Size+2 {
		t.Fatalf("Stats.Size = %d after inserting 2 tuples into %d", s1.Size, s0.Size)
	}

	l.Close()
	if _, err := eng.Commit(ctx, newPersonUpdate(1, 950_001)); err != nil {
		t.Fatal(err)
	}
	if s2 := eng.Stats(); s2.Watchers != 0 {
		t.Fatalf("Stats.Watchers = %d after close + prune, want 0", s2.Watchers)
	}

	// The mutating map is a copy: callers can't corrupt engine state.
	s1.CommittedVolume["person"] = 999
	if eng.Stats().CommittedVolume["person"] == 999 {
		t.Fatal("Stats.CommittedVolume aliases engine state")
	}

	// A zero-value engine answers Stats without panicking.
	var zero Engine
	if s := zero.Stats(); s.Size != 0 || s.Watchers != 0 {
		t.Fatalf("zero-value engine stats %+v", s)
	}
}
