package core

// Plan-cache observability: the engine exports atomic hit/miss/evict
// counters so serving dashboards (and sibm's core.plan_cache_hit_rate)
// can see whether the analysis cost is actually being amortized.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/query"
)

func TestPlanCacheStats(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 30, 3, 3, 9)
	eng := NewEngine(st)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")

	if s := eng.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("fresh engine has nonzero cache stats %+v", s)
	}
	if _, err := eng.Prepare(q, query.NewVarSet("p")); err != nil {
		t.Fatal(err)
	}
	if s := eng.PlanCacheStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first prepare: %+v, want 1 miss", s)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Prepare(q, query.NewVarSet("p")); err != nil {
			t.Fatal(err)
		}
	}
	if s := eng.PlanCacheStats(); s.Hits != 5 || s.Misses != 1 {
		t.Fatalf("after five re-prepares: %+v, want 5 hits / 1 miss", s)
	}

	// Negative outcomes are cached and counted as hits too.
	bad := mustQ(t, "QN(name) := exists id, p (friend(p, id) and person(id, name, 'NYC'))")
	for i := 0; i < 2; i++ {
		if _, err := eng.Prepare(bad, query.NewVarSet("name")); err == nil {
			t.Fatal("expected ErrNotControllable")
		}
	}
	s := eng.PlanCacheStats()
	if s.Misses != 2 || s.Hits != 6 {
		t.Fatalf("after cached negative outcome: %+v, want 2 misses / 6 hits", s)
	}

	// LRU pressure shows up as evictions.
	eng.SetPlanCacheSize(2)
	for i := 0; i < 4; i++ {
		qi := mustQ(t, fmt.Sprintf("QE%d(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))", i))
		if _, err := eng.Prepare(qi, query.NewVarSet("p")); err != nil {
			t.Fatal(err)
		}
	}
	if s := eng.PlanCacheStats(); s.Evictions < 2 {
		t.Fatalf("after overflowing a 2-entry cache with 4 plans: %+v, want ≥ 2 evictions", s)
	}

	// The counters are safe under concurrent serving.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				eng.Prepare(q, query.NewVarSet("p")) //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	if s := eng.PlanCacheStats(); s.Hits+s.Misses < 400 {
		t.Fatalf("concurrent prepares undercounted: %+v", s)
	}
}
