package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// Commit-flatness thresholds: the large instance's median commit may cost
// at most flatMaxRatio times the small one's, unless it is already under
// flatEscape in absolute terms, where fixed per-commit overhead and timer
// noise dominate any |D|-dependent term.
const (
	flatMaxRatio = 2.0
	flatEscape   = 500 * time.Microsecond
)

// TestCommitLatencyFlat is the write-path analogue of the paper's
// "reads independent of |D|": the same-shape mixed commit stream, with
// live Q2 watchers attached, is replayed at |D| ≈ 30k (2k persons) and
// |D| ≈ 150k (10k persons). With O(1) swap-remove deletion a commit costs
// in |ΔD| and the maintenance bounds, not in |D|, so the median commit
// wall latency must stay within flatMaxRatio. Medians are exact, read
// from the sorted per-commit latencies; tails are scheduler noise on a
// shared box and are not checked.
func TestCommitLatencyFlat(t *testing.T) {
	small := commitP50(t, 2000)
	large := commitP50(t, 10000)
	ratio := float64(large) / float64(small)
	t.Logf("commit p50: %v at 2k persons, %v at 10k persons (%.2fx)", small, large, ratio)
	if large <= flatEscape {
		return
	}
	if ratio > flatMaxRatio {
		t.Fatalf("commit p50 grew %.2fx (%v -> %v) from 2k to 10k persons, limit %.1fx: write latency is not flat in |D|",
			ratio, small, large, flatMaxRatio)
	}
}

// commitP50 replays 250 mixed commits against a fresh single-node
// instance of the default workload with 16 Q2 watchers on hot persons and
// returns the exact median commit wall latency.
func commitP50(t *testing.T, persons int) time.Duration {
	t.Helper()
	const commits, watchers = 250, 16
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = 7
	db, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hot []int64
	for i := 0; i < watchers; i++ {
		hot = append(hot, int64((i*7)%persons))
	}
	stream := workload.MixedCommits(db, cfg, commits, hot, 99)
	st, err := store.Open(db, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustRuleOrQ(t, workload.Q2Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range hot {
		l, err := prep.Watch(ctx, query.Bindings{"p": relation.Int(p)})
		if err != nil {
			t.Fatalf("watch p=%d: %v", p, err)
		}
		defer l.Close()
	}
	lats := make([]time.Duration, 0, len(stream))
	for _, u := range stream {
		start := time.Now()
		if _, err := eng.Commit(ctx, u); err != nil {
			t.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	slices.Sort(lats)
	return lats[len(lats)/2]
}
