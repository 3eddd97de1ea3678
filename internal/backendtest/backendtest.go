// Package backendtest is the conformance suite every store.Backend must
// pass: a table-driven harness asserting that a backend under test is
// observationally identical to the single-node reference on the
// experiment workload — identical answers AND identical TupleReads on the
// bounded plans of Q1–Q4 and on naive full-scan evaluation, reads within
// the static bound M, runtime budget enforcement (ErrBudgetExceeded),
// deadline interruption (ErrCanceled), and answer/accounting stability
// under updates.
//
// Wire it up per backend:
//
//	func TestConformance(t *testing.T) {
//	    backendtest.Run(t, func(d *relation.Database, a *access.Schema) (store.Backend, error) {
//	        return shard.Open(d, a, 4)
//	    })
//	}
package backendtest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// OpenFunc opens the backend under test over data and access schema.
type OpenFunc func(data *relation.Database, acc *access.Schema) (store.Backend, error)

// Q4Src extends the paper's Q1–Q3 with a fourth serving shape: all
// restaurants a person visited, controlled by the person alone — a
// two-hop plan through the visit-by-id and restr-by-rid constraints.
const Q4Src = "Q4(p, rn) := exists rid, yy, mm, dd, city, rating (visit(p, rid, yy, mm, dd) and restr(rid, rn, city, rating))"

// Q5Src is the reordering showcase: restaurants visited by p's friends
// who do NOT live in NYC. The safe negation keeps the chase away, so the
// analysis-emitted conjunct order runs the visit expansion before the
// person filter; the cost-based optimizer pushes the ¬person emptiness
// probe ahead of the ×N visit expansion, strictly cutting reads.
const Q5Src = "Q5(p, rn) := exists f, rid, yy, mm, dd, city, rating (friend(p, f) and visit(f, rid, yy, mm, dd) and restr(rid, rn, city, rating) and not (exists fn (person(f, fn, 'NYC'))))"

// queryCase is one (query, controlling set, binding generator) row.
type queryCase struct {
	name string
	src  string
	ctrl []string
	bind func(i int) query.Bindings
}

func cases(cfg workload.Config) []queryCase {
	p := func(i int) query.Bindings {
		return query.Bindings{"p": relation.Int(int64(i % cfg.Persons))}
	}
	return []queryCase{
		{"Q1", workload.Q1Src, []string{"p"}, p},
		{"Q2", workload.Q2Src, []string{"p"}, p},
		{"Q3", workload.Q3Src, []string{"p", "yy"}, func(i int) query.Bindings {
			return query.Bindings{
				"p":  relation.Int(int64(i % cfg.Persons)),
				"yy": relation.Int(int64(cfg.Years[i%len(cfg.Years)])),
			}
		}},
		{"Q4", Q4Src, []string{"p"}, p},
	}
}

// Run exercises the backend opened by open against the single-node
// reference on the same generated data.
func Run(t *testing.T, open OpenFunc) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = 240
	cfg.Seed = 11
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := workload.Access(cfg)
	ref, err := store.Open(data.Clone(), acc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := open(data.Clone(), acc)
	if err != nil {
		t.Fatal(err)
	}
	engRef, engB := core.NewEngine(ref), core.NewEngine(b)

	t.Run("bounded", func(t *testing.T) { boundedConformance(t, cfg, engRef, engB) })
	t.Run("naive", func(t *testing.T) { naiveConformance(t, ref, b) })
	t.Run("budget", func(t *testing.T) { budgetEnforcement(t, cfg, engB) })
	t.Run("deadline", func(t *testing.T) { deadlineInterruption(t, cfg, engB, b) })
	t.Run("updates", func(t *testing.T) { updateConformance(t, cfg, engRef, engB) })
	t.Run("streaming", func(t *testing.T) { streamingConformance(t, cfg, engRef, engB) })
	t.Run("planequiv", func(t *testing.T) { planEquivalence(t, cfg, engRef.DB, b) })
	t.Run("analyze", func(t *testing.T) { analyzeConformance(t, cfg, b) })
	t.Run("livemaint", func(t *testing.T) { liveMaintenance(t, cfg, engRef, engB) })
	t.Run("viewserve", func(t *testing.T) { viewServe(t, cfg, engRef, engB) })
}

// planEquivalence pins the plan-IR executor's optimizer: on every
// experiment query (Q1–Q4 plus the Q5 reordering showcase), the
// cost-optimized plan and the analysis-order plan produce bit-identical
// answers — on the reference backend and the backend under test alike —
// the optimized plan never charges more TupleReads than the analysis
// order, both stay within their static bound M, and the backend under
// test charges exactly the reference's reads under both modes.
func planEquivalence(t *testing.T, cfg workload.Config, ref, b store.Backend) {
	ctx := context.Background()
	qcs := append(cases(cfg), queryCase{"Q5", Q5Src, []string{"p"}, func(i int) query.Bindings {
		return query.Bindings{"p": relation.Int(int64(i % cfg.Persons))}
	}})
	type lane struct {
		name string
		eng  *core.Engine
	}
	mk := func(db store.Backend, mode core.OptimizerMode) *core.Engine {
		e := core.NewEngine(db)
		e.SetOptimizer(mode)
		return e
	}
	lanes := []lane{
		{"ref/opt", mk(ref, core.OptimizerOn)},
		{"ref/analysis", mk(ref, core.OptimizerOff)},
		{"backend/opt", mk(b, core.OptimizerOn)},
		{"backend/analysis", mk(b, core.OptimizerOff)},
	}
	for _, qc := range qcs {
		q := mustQuery(t, qc.src)
		preps := make([]*core.PreparedQuery, len(lanes))
		for i, l := range lanes {
			preps[i] = mustPrepare(t, l.eng, q, qc.ctrl)
		}
		// Reads are compared as totals over the sampled bindings: a static
		// reorder cannot be pointwise-never-worse (an N=1 lookup hoisted
		// before a fan-out loses by one read on a binding whose fan-out is
		// empty), but over the workload the cost order must not read more.
		// Cross-backend identity IS pointwise: same plan, same data, same
		// charges.
		var totals [4]int64
		for i := 0; i < 24; i++ {
			fixed := qc.bind(i * 7)
			answers := make([]*relation.TupleSet, len(lanes))
			reads := make([]int64, len(lanes))
			for j, prep := range preps {
				ans, err := prep.Exec(ctx, fixed)
				if err != nil {
					t.Fatalf("%s %v on %s: %v", qc.name, fixed, lanes[j].name, err)
				}
				if ans.Cost.TupleReads > prep.Plan().Bound.Reads {
					t.Fatalf("%s %v on %s: %d reads exceed static bound %d",
						qc.name, fixed, lanes[j].name, ans.Cost.TupleReads, prep.Plan().Bound.Reads)
				}
				answers[j], reads[j] = ans.Tuples, ans.Cost.TupleReads
				totals[j] += ans.Cost.TupleReads
			}
			for j := 1; j < len(lanes); j++ {
				if !answers[j].Equal(answers[0]) {
					t.Fatalf("%s %v: answers diverge between %s and %s", qc.name, fixed, lanes[j].name, lanes[0].name)
				}
			}
			if reads[2] != reads[0] || reads[3] != reads[1] {
				t.Fatalf("%s %v: backend reads (%d opt / %d analysis) differ from reference (%d / %d)",
					qc.name, fixed, reads[2], reads[3], reads[0], reads[1])
			}
		}
		if totals[0] > totals[1] {
			t.Fatalf("%s: optimized plan charged %d total reads, analysis order %d — optimizer made it worse",
				qc.name, totals[0], totals[1])
		}
		if qc.name == "Q5" && totals[0] >= totals[1] {
			t.Fatalf("Q5: cost-ordered plan did not charge fewer total reads than analysis order (%d vs %d) — the reordering showcase is broken",
				totals[0], totals[1])
		}
	}
}

// streamingConformance pins the cursor path to the materializing path on
// the backend under test: a drained Rows is bit-identical to Exec
// (answers, TupleReads, witness size) on every experiment query, and an
// early-terminated cursor (WithLimit(1) / First) charges strictly fewer
// reads than the full drain on multi-answer bindings.
func streamingConformance(t *testing.T, cfg workload.Config, engRef, engB *core.Engine) {
	ctx := context.Background()
	for _, qc := range cases(cfg) {
		q := mustQuery(t, qc.src)
		prepRef := mustPrepare(t, engRef, q, qc.ctrl)
		prepB := mustPrepare(t, engB, q, qc.ctrl)
		earlyExitChecked := false
		for i := 0; i < 24; i++ {
			fixed := qc.bind(i * 7)
			ansRef, err := prepRef.Exec(ctx, fixed)
			if err != nil {
				t.Fatalf("%s %v on reference: %v", qc.name, fixed, err)
			}
			rows, err := prepB.Query(ctx, fixed)
			if err != nil {
				t.Fatalf("%s %v on backend: %v", qc.name, fixed, err)
			}
			got := relation.NewTupleSet(0)
			for rows.Next() {
				got.Add(rows.Tuple())
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s %v: cursor failed: %v", qc.name, fixed, err)
			}
			if !got.Equal(ansRef.Tuples) {
				t.Fatalf("%s %v: %d streamed answers, %d from reference Exec", qc.name, fixed, got.Len(), ansRef.Tuples.Len())
			}
			if rows.Cost().TupleReads != ansRef.Cost.TupleReads {
				t.Fatalf("%s %v: cursor charged %d tuple reads, reference Exec %d", qc.name, fixed, rows.Cost().TupleReads, ansRef.Cost.TupleReads)
			}
			if rows.DQ().Distinct() != ansRef.DQ.Distinct() {
				t.Fatalf("%s %v: cursor witness |D_Q| %d, reference %d", qc.name, fixed, rows.DQ().Distinct(), ansRef.DQ.Distinct())
			}
			if earlyExitChecked || ansRef.Tuples.Len() < 2 {
				continue
			}
			// Early termination: one answer must cost strictly less than all
			// of them (granted the full drain charged more than one read).
			lim, err := prepB.Query(ctx, fixed, core.WithLimit(1))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for lim.Next() {
				n++
			}
			if err := lim.Err(); err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("%s %v: WithLimit(1) delivered %d answers", qc.name, fixed, n)
			}
			if lim.Cost().TupleReads >= ansRef.Cost.TupleReads {
				t.Fatalf("%s %v: limited cursor charged %d reads, full drain %d — early exit saved nothing",
					qc.name, fixed, lim.Cost().TupleReads, ansRef.Cost.TupleReads)
			}
			tup, err := prepB.First(ctx, fixed)
			if err != nil {
				t.Fatal(err)
			}
			if !ansRef.Tuples.Contains(tup) {
				t.Fatalf("%s %v: First = %v, not an answer", qc.name, fixed, tup)
			}
			earlyExitChecked = true
		}
		if !earlyExitChecked {
			t.Fatalf("%s: no multi-answer binding exercised the early-exit check; widen the sampled bindings", qc.name)
		}
	}
}

// boundedConformance proves the core property: for every experiment query
// and many bindings, the backend under test returns the same answers,
// charges the same TupleReads, and stays within the plan's static bound M.
func boundedConformance(t *testing.T, cfg workload.Config, engRef, engB *core.Engine) {
	ctx := context.Background()
	for _, qc := range cases(cfg) {
		q := mustQuery(t, qc.src)
		prepRef := mustPrepare(t, engRef, q, qc.ctrl)
		prepB := mustPrepare(t, engB, q, qc.ctrl)
		if got, want := prepB.Plan().Bound.Reads, prepRef.Plan().Bound.Reads; got != want {
			t.Fatalf("%s: static bound %d on backend, %d on reference (the bound is a property of the plan, not the backend)", qc.name, got, want)
		}
		for i := 0; i < 24; i++ {
			fixed := qc.bind(i * 7)
			ansRef, err := prepRef.Exec(ctx, fixed)
			if err != nil {
				t.Fatalf("%s %v on reference: %v", qc.name, fixed, err)
			}
			ansB, err := prepB.Exec(ctx, fixed)
			if err != nil {
				t.Fatalf("%s %v on backend: %v", qc.name, fixed, err)
			}
			if !ansB.Tuples.Equal(ansRef.Tuples) {
				t.Fatalf("%s %v: %d answers on backend, %d on reference", qc.name, fixed, ansB.Tuples.Len(), ansRef.Tuples.Len())
			}
			if ansB.Cost.TupleReads != ansRef.Cost.TupleReads {
				t.Fatalf("%s %v: backend charged %d tuple reads, reference %d", qc.name, fixed, ansB.Cost.TupleReads, ansRef.Cost.TupleReads)
			}
			if ansB.Cost.TupleReads > prepB.Plan().Bound.Reads {
				t.Fatalf("%s %v: %d reads exceed static bound %d", qc.name, fixed, ansB.Cost.TupleReads, prepB.Plan().Bound.Reads)
			}
			if ansB.DQ.Distinct() != ansRef.DQ.Distinct() {
				t.Fatalf("%s %v: witness |D_Q| %d on backend, %d on reference", qc.name, fixed, ansB.DQ.Distinct(), ansRef.DQ.Distinct())
			}
		}
	}
}

// naiveConformance runs the full-scan oracle through both backends:
// answers and scan accounting (TupleReads, TimeUnits) must agree.
func naiveConformance(t *testing.T, ref, b store.Backend) {
	q := mustQuery(t, workload.Q1Src)
	for _, p := range []int64{3, 41, 99} {
		fixed := query.Bindings{"p": relation.Int(p)}
		esRef, esB := &store.ExecStats{}, &store.ExecStats{}
		ansRef, err := eval.Answers(eval.NewStoreSource(ref, esRef), q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		ansB, err := eval.Answers(eval.NewStoreSource(b, esB), q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !ansB.Equal(ansRef) {
			t.Fatalf("naive Q1 p=%d: answers differ", p)
		}
		if esB.Counters.TupleReads != esRef.Counters.TupleReads {
			t.Fatalf("naive Q1 p=%d: %d reads on backend, %d on reference", p, esB.Counters.TupleReads, esRef.Counters.TupleReads)
		}
		if esB.Counters.TimeUnits != esRef.Counters.TimeUnits {
			t.Fatalf("naive Q1 p=%d: %d time units on backend, %d on reference", p, esB.Counters.TimeUnits, esRef.Counters.TimeUnits)
		}
	}
}

// budgetEnforcement sets the runtime budget one read below a measured
// execution: the re-execution must fail with ErrBudgetExceeded.
func budgetEnforcement(t *testing.T, cfg workload.Config, engB *core.Engine) {
	ctx := context.Background()
	for _, qc := range cases(cfg) {
		q := mustQuery(t, qc.src)
		prep := mustPrepare(t, engB, q, qc.ctrl)
		var fixed query.Bindings
		var reads int64
		for i := 0; i < 60 && reads == 0; i++ {
			fixed = qc.bind(i)
			ans, err := prep.Exec(ctx, fixed)
			if err != nil {
				t.Fatal(err)
			}
			reads = ans.Cost.TupleReads
		}
		if reads == 0 {
			t.Fatalf("%s: no binding with nonzero reads found", qc.name)
		}
		if _, err := prep.Exec(ctx, fixed, core.WithMaxReads(reads-1)); !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("%s with budget %d: err = %v, want ErrBudgetExceeded", qc.name, reads-1, err)
		}
		if _, err := prep.Exec(ctx, fixed, core.WithMaxReads(reads)); err != nil {
			t.Fatalf("%s with exact budget %d: %v", qc.name, reads, err)
		}
	}
}

// deadlineInterruption verifies an expired context stops both the bounded
// path and a raw backend scan with ErrCanceled.
func deadlineInterruption(t *testing.T, cfg workload.Config, engB *core.Engine, b store.Backend) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := mustQuery(t, workload.Q1Src)
	prep := mustPrepare(t, engB, q, []string{"p"})
	if _, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(1)}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("bounded exec under canceled ctx: err = %v, want ErrCanceled", err)
	}
	es := &store.ExecStats{Ctx: ctx}
	if _, err := b.ScanInto(es, "friend"); !errors.Is(err, store.ErrCanceled) {
		t.Fatalf("scan under canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// updateConformance commits the same ΔD through both engines' write
// pipelines and re-checks answer and accounting identity, then undoes it.
// The backend's commit-log sequence (Backend.Version) must advance
// identically on both.
func updateConformance(t *testing.T, cfg workload.Config, engRef, engB *core.Engine) {
	ctx := context.Background()
	u := relation.NewUpdate()
	u.Insert("person", relation.Tuple{relation.Int(70001), relation.Str("new-p"), relation.Str("NYC")})
	for i := int64(0); i < 5; i++ {
		u.Insert("friend", relation.Tuple{relation.Int(7), relation.Int(70001 + i)})
	}
	for i := int64(1); i < 5; i++ {
		u.Insert("person", relation.Tuple{relation.Int(70001 + i), relation.Str(fmt.Sprintf("new-%d", i)), relation.Str("LA")})
	}
	for _, eng := range []*core.Engine{engRef, engB} {
		res, err := eng.Commit(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		// The recorded LSN must be real and current.
		if res.StoreSeq == 0 || res.StoreSeq != eng.DB.Version() {
			t.Fatalf("commit recorded store LSN %d, backend reports %d", res.StoreSeq, eng.DB.Version())
		}
	}
	q := mustQuery(t, workload.Q1Src)
	prepRef := mustPrepare(t, engRef, q, []string{"p"})
	prepB := mustPrepare(t, engB, q, []string{"p"})
	for _, p := range []int64{7, 70001, 3} {
		fixed := query.Bindings{"p": relation.Int(p)}
		ansRef, err := prepRef.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		ansB, err := prepB.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !ansB.Tuples.Equal(ansRef.Tuples) || ansB.Cost.TupleReads != ansRef.Cost.TupleReads {
			t.Fatalf("after update, Q1 p=%d: answers/reads diverge (%d/%d reads)", p, ansB.Cost.TupleReads, ansRef.Cost.TupleReads)
		}
	}
	inv := u.Inverse()
	for _, eng := range []*core.Engine{engRef, engB} {
		if _, err := eng.Commit(ctx, inv); err != nil {
			t.Fatal(err)
		}
	}
	if !engB.DB.CloneData().Equal(engRef.DB.CloneData()) {
		t.Fatal("backends diverged after update + inverse")
	}
}

func mustQuery(t *testing.T, src string) *query.Query {
	t.Helper()
	q, err := parser.ParseServing(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustPrepare(t *testing.T, eng *core.Engine, q *query.Query, ctrl []string) *core.PreparedQuery {
	t.Helper()
	p, err := eng.Prepare(q, query.NewVarSet(ctrl...))
	if err != nil {
		t.Fatalf("prepare %s for %v: %v", q.Name, ctrl, err)
	}
	return p
}

// OverfullFriends generates the workload at cfg and gives person p friends
// until p has n of them. With n > cfg.MaxFriends the stored data breaks
// the friend(id1) entry — a data fault, for tests of how each path
// reports one.
func OverfullFriends(cfg workload.Config, p int64, n int) (*relation.Database, error) {
	data, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	friend := data.Rel("friend")
	have := 0
	for _, t := range friend.Tuples() {
		if t[0] == relation.Int(p) {
			have++
		}
	}
	for id := int64(0); have < n; id++ {
		if ok, err := data.Insert("friend", relation.Ints(p, id)); err != nil {
			return nil, err
		} else if ok {
			have++
		}
	}
	return data, nil
}
