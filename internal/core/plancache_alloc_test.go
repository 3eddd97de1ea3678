//go:build !race

package core

import (
	"testing"

	"repro/internal/query"
)

// TestPlanCacheHitAllocs: a hit by a query object other than the cached
// one compares the two structurally and allocates nothing; a query of the
// same name with a different body misses and evicts the entry. (The race
// detector's instrumentation allocates on its own.)
func TestPlanCacheHitAllocs(t *testing.T) {
	c := newPlanCache(2)
	p := &PreparedQuery{}
	c.put("Q1", mustQ(t, q1Src), p, nil)
	// Two distinct objects with the text of the cached query, alternated
	// so that every hit finds the other one's pointer in the entry.
	equal := [2]*query.Query{mustQ(t, q1Src), mustQ(t, q1Src)}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		i++
		if hit, _, ok := c.get("Q1", equal[i%2]); !ok || hit != p {
			t.Fatal("an equal query object missed")
		}
	})
	if got != 0 {
		t.Errorf("%.0f allocations per hit by an equal query object, want 0", got)
	}
	other := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'LA'))")
	if _, _, ok := c.get("Q1", other); ok {
		t.Fatal("a query with a different body hit")
	}
	if n, ev := c.len(), c.stats().Evictions; n != 0 || ev != 1 {
		t.Errorf("after the mismatch: %d entries, %d evictions; want 0 and 1", n, ev)
	}
}
