//go:build !race

package core_test

import (
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestPrepareColdAllocs caps the allocations of one cold Prepare (plan
// cache off) of Q1 and Q2 with the VFol view registered. Both queries tie
// with their VFol rewritings, so a Prepare that analysed and compiled the
// rewriting it never adopts takes 248 and 440 allocations; pricing the
// rewriting first skips it. (The race detector's instrumentation
// allocates on its own.)
func TestPrepareColdAllocs(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st)
	if _, err := eng.CreateView(goldenCQ(t, backendtest.VFolSrc), access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
		t.Fatal(err)
	}
	eng.SetPlanCacheSize(0)
	for _, tc := range []struct {
		src string
		max float64
	}{
		{workload.Q1Src, 150},
		{workload.Q2Src, 260},
	} {
		q := goldenQuery(t, tc.src)
		x := query.NewVarSet("p")
		got := testing.AllocsPerRun(100, func() {
			if _, err := eng.Prepare(q, x); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per cold Prepare, want at most %.0f", q.Name, got, tc.max)
		}
	}
}
