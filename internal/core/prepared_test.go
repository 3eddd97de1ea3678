package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/relation"
)

const q1Src = "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))"

// Prepare once, execute with many bindings: every answer matches the
// one-shot Answer path and the naive oracle.
func TestPreparedExecMatchesAnswer(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 60, 6, 10, 3)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)

	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 15; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		got, err := prep.Exec(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Answer(q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tuples.Equal(want.Tuples) {
			t.Fatalf("p=%d: prepared %v != answer %v", p, got.Tuples.Tuples(), want.Tuples.Tuples())
		}
		naive, err := eval.Answers(eval.DBSource{DB: st.Data()}, q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tuples.Equal(naive) {
			t.Fatalf("p=%d: prepared %v != naive %v", p, got.Tuples.Tuples(), naive.Tuples())
		}
		if got.DQ == nil || got.Cost.TupleReads > prep.Plan().Bound.Reads {
			t.Fatalf("p=%d: cost %s exceeds static bound %s", p, got.Cost, prep.Plan().Bound)
		}
	}
}

// The plan cache returns the same prepared query for the same (name,
// controlling set), evicts on a query mismatch, and can be disabled.
func TestPlanCache(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 30, 4, 5, 4)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	x := query.NewVarSet("p")

	p1, err := eng.Prepare(q, x)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Prepare(q, x)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("re-Prepare missed the plan cache")
	}
	if eng.PlanCacheLen() != 1 {
		t.Errorf("cache len = %d, want 1", eng.PlanCacheLen())
	}

	// Same name and controlling set, different body: must not reuse.
	q2 := mustQ(t, "Q1(p, id) := friend(p, id)")
	p3, err := eng.Prepare(q2, x)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("query guard failed: different query reused a stale plan")
	}

	// Answer goes through the cache too.
	eng2 := NewEngine(st)
	if _, err := eng2.Answer(q, query.Bindings{"p": relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if eng2.PlanCacheLen() != 1 {
		t.Errorf("Answer did not populate the cache: len = %d", eng2.PlanCacheLen())
	}

	// Disabled cache: everything still works, nothing is retained.
	eng2.SetPlanCacheSize(0)
	if _, err := eng2.Answer(q, query.Bindings{"p": relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if eng2.PlanCacheLen() != 0 {
		t.Errorf("disabled cache retained %d plans", eng2.PlanCacheLen())
	}
}

// The LRU evicts the least recently used plan at capacity, validates
// hits by pointer identity (fast path) or structural equality, and
// evicts on a mismatch.
func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2)
	qa, qb, qc := mustQ(t, "A(x) := R(x)"), mustQ(t, "B(x) := R(x)"), mustQ(t, "C(x) := R(x)")
	pa, pb, pc := &PreparedQuery{}, &PreparedQuery{}, &PreparedQuery{}
	c.put("a", qa, pa, nil)
	c.put("b", qb, pb, nil)
	if p, _, ok := c.get("a", qa); !ok || p != pa { // touch a: b becomes LRU
		t.Fatal("miss on a")
	}
	c.put("c", qc, pc, nil)
	if _, _, ok := c.get("b", qb); ok {
		t.Error("b should have been evicted")
	}
	pA, _, okA := c.get("a", qa)
	pC, _, okC := c.get("c", qc)
	if !okA || pA != pa || !okC || pC != pc {
		t.Error("a and c should survive")
	}
	// A different but equal object still hits...
	if p, _, ok := c.get("a", mustQ(t, "A(x) := R(x)")); !ok || p != pa {
		t.Error("equal query object missed")
	}
	// ...but the same name with a different body evicts.
	if _, _, ok := c.get("a", mustQ(t, "A(x) := S(x)")); ok {
		t.Error("stale entry served for a different query body")
	}
	if _, _, ok := c.get("a", qa); ok {
		t.Error("mismatched entry should have been evicted")
	}
}

// Negative outcomes are cached too: re-preparing a non-controllable query
// (e.g. a client retrying it) skips re-analysis.
func TestPlanCacheNegative(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 3, 5, 12)
	eng := NewEngine(st)
	q := mustQ(t, "Q(x, y) := friend(x, y)")

	_, err := eng.Prepare(q, query.NewVarSet("y"))
	if !errors.Is(err, ErrNotControllable) {
		t.Fatalf("want ErrNotControllable, got %v", err)
	}
	if eng.PlanCacheLen() != 1 {
		t.Fatalf("negative outcome not cached: len = %d", eng.PlanCacheLen())
	}
	_, err2 := eng.Prepare(q, query.NewVarSet("y"))
	if !errors.Is(err2, ErrNotControllable) {
		t.Fatalf("cached negative: want ErrNotControllable, got %v", err2)
	}
}

func TestErrNotControllable(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 3, 5, 5)
	eng := NewEngine(st)
	// friend has an access entry on id1 only: {y} cannot control.
	q := mustQ(t, "Q(x, y) := friend(x, y)")

	_, err := eng.Prepare(q, query.NewVarSet("y"))
	if !errors.Is(err, ErrNotControllable) {
		t.Fatalf("Prepare: want ErrNotControllable, got %v", err)
	}
	_, err = eng.Answer(q, query.Bindings{"y": relation.Int(1)})
	if !errors.Is(err, ErrNotControllable) {
		t.Fatalf("Answer: want ErrNotControllable, got %v", err)
	}
}

func TestErrBudgetExceeded(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 60, 6, 10, 6)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	// Find a person whose evaluation reads more than one tuple, then rerun
	// with a budget of 1: the run must fail with ErrBudgetExceeded.
	for p := int64(0); p < 60; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		ans, err := prep.Exec(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Cost.TupleReads <= 1 {
			continue
		}
		_, err = prep.Exec(context.Background(), fixed, WithMaxReads(1))
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("want ErrBudgetExceeded, got %v", err)
		}
		// A budget at the static bound never trips.
		if _, err := prep.Exec(context.Background(), fixed, WithMaxReads(prep.Plan().Bound.Reads)); err != nil {
			t.Fatalf("budget at static bound tripped: %v", err)
		}
		return
	}
	t.Fatal("no binding read more than one tuple; workload too small")
}

func TestErrCanceled(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 3, 5, 7)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = prep.Exec(ctx, query.Bindings{"p": relation.Int(1)})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled must also wrap context.Canceled, got %v", err)
	}
}

func TestWithoutTraceSkipsWitness(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 30, 4, 5, 8)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	ans, err := eng.AnswerContext(context.Background(), q, query.Bindings{"p": relation.Int(1)}, WithoutTrace())
	if err != nil {
		t.Fatal(err)
	}
	if ans.DQ != nil {
		t.Error("WithoutTrace still produced a witness set")
	}
	if ans.Cost.TupleReads == 0 && ans.Tuples.Len() > 0 {
		t.Error("counters not charged without trace")
	}
}

// Eight goroutines share one engine and one prepared query; per-call
// counters and witness sets must never cross (run under -race).
func TestConcurrentPreparedExec(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 120, 6, 10, 10)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	// Sequential oracle per binding.
	want := make([]*relation.TupleSet, 120)
	for p := range want {
		ans, err := prep.Exec(context.Background(), query.Bindings{"p": relation.Int(int64(p))})
		if err != nil {
			t.Fatal(err)
		}
		want[p] = ans.Tuples
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				p := (g*37 + i) % 120
				ans, err := prep.Exec(context.Background(), query.Bindings{"p": relation.Int(int64(p))})
				if err != nil {
					t.Error(err)
					return
				}
				if !ans.Tuples.Equal(want[p]) {
					t.Errorf("g%d p=%d: concurrent answer diverged", g, p)
					return
				}
				if ans.Cost.TupleReads > prep.Plan().Bound.Reads {
					t.Errorf("g%d p=%d: per-call cost %s exceeds bound %s (stats cross-talk?)", g, p, ans.Cost, prep.Plan().Bound)
					return
				}
				if ans.DQ.Distinct() > int(prep.Plan().Bound.Reads) {
					t.Errorf("g%d p=%d: witness set %d exceeds bound (trace cross-talk?)", g, p, ans.DQ.Distinct())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// An Engine built as a struct literal (bypassing NewEngine) must still
// answer queries — plan caching is simply disabled.
func TestStructLiteralEngine(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 3, 5, 13)
	eng := &Engine{DB: st, An: NewAnalyzer(st.Access())}
	q := mustQ(t, q1Src)
	if _, err := eng.Answer(q, query.Bindings{"p": relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Prepare(q, query.NewVarSet("p")); err != nil {
		t.Fatal(err)
	}
	if eng.PlanCacheLen() != 0 {
		t.Errorf("nil cache retained %d plans", eng.PlanCacheLen())
	}
	eng.SetPlanCacheSize(4) // no-op on a zero-value engine, must not panic
}
