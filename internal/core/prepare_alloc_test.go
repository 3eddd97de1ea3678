//go:build !race

package core_test

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestPrepareColdAllocs caps the allocations of one cold Prepare (plan
// cache off) of Q1 and Q2 with the VFol view registered. Both queries tie
// with their VFol rewritings, so a Prepare that analysed and compiled the
// rewriting it never adopts takes 248 and 440 allocations; pricing the
// rewriting first skips it. Numbering the variables once for the analysis
// and the plan took them from 101 and 168 to 77 and 105; the caps are
// those plus a tenth. (The race detector's instrumentation allocates on
// its own.)
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
		{workload.Q1Src, 84},
		{workload.Q2Src, 115},
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

// TestExecAllocs caps the allocations of one Exec of prepared Q1 and Q2
// under WithoutTrace, for the first person with a non-empty Q2 answer on
// a 60-person instance, pinned at today's 373 and 820. Operators keep
// their variables as masks and their sorted out-names from construction,
// so no Exec builds a variable set; when every deduplicating cursor
// sorted its variables' names on opening, one Exec took 555 and 1 229.
// (The race detector's instrumentation allocates on its own.)
func TestExecAllocs(t *testing.T) {
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
	ctx := context.Background()
	q1, q2 := goldenQuery(t, workload.Q1Src), goldenQuery(t, workload.Q2Src)
	x := query.NewVarSet("p")
	p1, err := eng.Prepare(q1, x)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Prepare(q2, x)
	if err != nil {
		t.Fatal(err)
	}
	var fixed query.Bindings
	for p := int64(0); fixed == nil && p < int64(cfg.Persons); p++ {
		b := query.Bindings{"p": relation.Int(p)}
		if ans, err := p2.Exec(ctx, b, core.WithoutTrace()); err == nil && ans.Tuples.Len() > 0 {
			fixed = b
		}
	}
	if fixed == nil {
		t.Fatal("no person with a Q2 answer")
	}
	for _, tc := range []struct {
		prep *core.PreparedQuery
		max  float64
	}{
		{p1, 373},
		{p2, 820},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := tc.prep.Exec(ctx, fixed, core.WithoutTrace()); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s %v: %.0f allocations per Exec, want at most %.0f", tc.prep.Stmt().Name, fixed, got, tc.max)
		}
	}
}
