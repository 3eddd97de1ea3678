package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workload"
)

// TestRewritePricingAdmissible checks that plan.PriceBelow is a lower
// bound: for every rewriting of Q1–Q7, a probe-heavy mutual-friend query
// and 150 seeded random CQs over VFol, VNYC and six generated views —
// the trivial rewriting included — and every derivation its body's
// analysis returns, the price of the body under the derivation's
// controlling set is at most the compiled plan's Bound.Reads, with the
// optimizer off and on. Prepare skips a rewriting whose price cannot get
// below the incumbent; a price above some plan's bound would skip a
// rewriting that wins.
func TestRewritePricingAdmissible(t *testing.T) {
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
	if _, err := eng.CreateView(goldenCQ(t, backendtest.VNYCSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := backendtest.CreateGenViews(eng, 6, 39); err != nil {
		t.Fatal(err)
	}
	var vs []*views.View
	for _, info := range eng.Views() {
		v, err := views.NewView(goldenCQ(t, info.Def))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	acc := st.Access()

	srcs := []string{
		workload.Q1Src, workload.Q2Src, workload.Q3Src, backendtest.Q4Src,
		backendtest.Q5Src, backendtest.Q6Src, backendtest.Q7Src,
		// The second friend atom is fully bound by the first: a plan
		// probes it, and its price is the probe's.
		"QM(p, f) :- friend(p, f), friend(f, p)",
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 150; i++ {
		srcs = append(srcs, core.RandomSocialCQ(rng))
	}
	var checked, tight int
	for _, src := range srcs {
		cq, ok := query.AsCQ(goldenQuery(t, src))
		if !ok {
			continue // a safe negation: no rewritings
		}
		rws, err := views.FindRewritings(cq, vs, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rws {
			rq, err := r.Body.Query()
			if err != nil {
				continue
			}
			res, err := eng.An.AnalyzeQuery(rq)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Derivs {
				for _, mode := range []core.OptimizerMode{core.OptimizerOff, core.OptimizerOn} {
					reads := core.CompilePlan(d, st, mode).Bound.Reads
					if reads >= plan.CostCap {
						continue // a saturated bound: no price exceeds it
					}
					checked++
					if !plan.PriceBelow(acc, r.Body.Atoms, d.Ctrl, reads+1) {
						t.Fatalf("%s controlled by %s, optimizer %s: priced above its plan's %d reads", r, d.Ctrl, mode, reads)
					}
					if !plan.PriceBelow(acc, r.Body.Atoms, d.Ctrl, reads) {
						tight++
					}
				}
			}
		}
	}
	if checked < 500 || tight < checked/4 {
		t.Fatalf("checked %d plans, %d priced exactly at their bound: too few to test the bound", checked, tight)
	}
	t.Logf("checked %d plans, %d priced exactly at their bound", checked, tight)
}
