package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestZeroBoundEntry prices plans through entries with N = 0, which the
// access schema accepts (an empty group is a legal bound). A fetch through
// one lets no candidate through, whether or not it binds a new variable:
// the analysis (CostOf), the compiled plan's Bound with the optimizer off
// and on, and PriceBelow must agree on the price, and Exec must read no
// more than it. QR's only derivation is a chase whose one fetch binds
// nothing new and verifies r(a, b, c), with s(a, b) probed after it; QT
// fetches t through a plain N = 0 entry that binds d.
func TestZeroBoundEntry(t *testing.T) {
	cat, err := parser.ParseCatalog(`
relation r(a, b, c)
relation s(a, b)
relation t(a, d)
access r(a, b -> a, b) limit 0 time 1
access t(a -> *) limit 0 time 1
`)
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase(cat.Relational)
	db.MustInsert("s", relation.Ints(1, 2))
	st, err := store.Open(db, cat.Access)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st)
	for _, tc := range []struct {
		src   string
		ctrl  []string
		fixed query.Bindings
	}{
		{"QR(a, b) := exists c (r(a, b, c) and s(a, b))", []string{"a", "b"}, query.Bindings{"a": relation.Int(1), "b": relation.Int(2)}},
		{"QT(a, d) :- t(a, d), s(a, d)", []string{"a"}, query.Bindings{"a": relation.Int(1)}},
	} {
		q := goldenQuery(t, tc.src)
		x := query.NewVarSet(tc.ctrl...)
		res, err := eng.An.AnalyzeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Controls(x)
		if d == nil {
			t.Fatalf("%s: not controlled by %s (family %v)", q.Name, x, res.Family())
		}
		want := core.CostOf(d)
		if want != (plan.Cost{}) {
			t.Errorf("%s: CostOf %+v, want no candidates and no reads", q.Name, want)
		}
		for _, mode := range []core.OptimizerMode{core.OptimizerOff, core.OptimizerOn} {
			if got := core.CompilePlan(d, st, mode).Bound; got != want {
				t.Errorf("%s, optimizer %s: Bound %+v, CostOf %+v", q.Name, mode, got, want)
			}
		}
		cq, ok := query.AsCQ(q)
		if !ok {
			t.Fatalf("%s is not conjunctive", q.Name)
		}
		if !plan.PriceBelow(st.Access(), cq.Atoms, x, want.Reads+1) || plan.PriceBelow(st.Access(), cq.Atoms, x, want.Reads) {
			t.Errorf("%s: PriceBelow does not price the body at CostOf's %d reads", q.Name, want.Reads)
		}
		prep, err := eng.Prepare(q, x)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := prep.Exec(context.Background(), tc.fixed)
		if err != nil {
			t.Fatal(err)
		}
		if r := ans.Cost.TupleReads; r > ans.Plan.Bound.Reads {
			t.Errorf("%s: %d reads above the bound %d", q.Name, r, ans.Plan.Bound.Reads)
		}
		if ans.Tuples.Len() != 0 {
			t.Errorf("%s: answers %v over an empty relation", q.Name, ans.Tuples.Tuples())
		}
	}
}
