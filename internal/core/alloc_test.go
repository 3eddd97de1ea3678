//go:build !race

package core

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestAnalyzeAllocs caps the allocations of one controllability analysis
// of Q2 and Q3 on the social access schema. The analysis runs on variable
// bit masks over one numbering of the formula (plan.Vars) and builds a
// name set only for each derivation it returns; building them per
// candidate set, chase step and subformula, as name sets do, costs 291
// and 328 allocations, and numbering through a name map with per-node
// masks in a formula-keyed map and name sets for every returned node
// costs 61 and 60. The caps are today's 27 and 27 plus a tenth. (The race
// detector's instrumentation allocates on its own.)
func TestAnalyzeAllocs(t *testing.T) {
	an := NewAnalyzer(workload.Access(workload.DefaultConfig()))
	for _, tc := range []struct {
		src string
		max float64
	}{
		{workload.Q2Src, 29},
		{workload.Q3Src, 29},
	} {
		q := mustRuleOrQ(t, tc.src)
		got := testing.AllocsPerRun(100, func() {
			if _, err := an.AnalyzeQuery(q); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per analysis, want at most %.0f", q.Name, got, tc.max)
		}
	}
}

// TestCommitAllocs caps the allocations of a 1-tuple visit commit by a
// person who is no friend of any of 16 Q2 watchers: every watcher's
// friend(p, id) guard misses, so maintenance is 16 membership probes and
// opens no plan. What is left is the commit itself — building the
// update, the store's index apply and the result: 11. The delta digest,
// the group decisions, the work list and the one ExecStats live in
// scratch the engine reuses; collecting the touched watchers, cloning
// the registry and allocating a work list per commit cost 19. Opening
// the rest plan after a failed guard anyway costs 451 (and 16 reads);
// unifying through a binding map and opening the whole plan per watcher,
// as maintenance did before guards, cost 687. The cap is today's count
// plus a tenth.
func TestCommitAllocs(t *testing.T) {
	const persons, watchers = 400, 16
	w := newWatchedQ2(t, persons, watchers)
	data := w.st.Data()
	stranger := int64(-1)
	for id := int64(watchers); id < persons && stranger < 0; id++ {
		stranger = id
		for p := range int64(watchers) {
			if data.Rel("friend").Contains(relation.Ints(p, id)) {
				stranger = -1
				break
			}
		}
	}
	if stranger < 0 {
		t.Fatal("every person is a friend of a watcher")
	}
	visit := relation.NewTuple(relation.Int(stranger), nycARestaurant(t, data), relation.Int(3000), relation.Int(1), relation.Int(1))
	var notified int
	var reads int64
	got := testing.AllocsPerRun(100, func() {
		res := w.toggle(t, "visit", visit)
		notified += res.Watchers
		reads += res.Maintenance.TupleReads
		w.discard()
	})
	if notified != 101*watchers || reads != 0 {
		t.Errorf("%d watchers notified over 101 commits, %d reads charged; want %d, 0", notified, reads, 101*watchers)
	}
	if max := 12.0; got > max {
		t.Errorf("%.0f allocations per guarded-out commit, want at most %.0f", got, max)
	}
}
