package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workload"
)

// X44QCntl exercises Theorem 4.4: QCntl / QCntl_min on growing chain
// conjunctions — analysis time and family size grow with the query.
func X44QCntl(quick bool) ([]*Table, error) {
	t := NewTable("X4.4", "QCntl on chain queries R1(x1,x2) ∧ ... ∧ Rk(xk,xk+1)",
		"k (atoms)", "minimal sets", "smallest |x̄|", "QCntl(1)", "time")
	ks := []int{2, 4, 6, 8}
	if quick {
		ks = []int{2, 4, 6}
	}
	for _, k := range ks {
		catalog := ""
		qbody := ""
		head := ""
		for i := 0; i < k; i++ {
			catalog += fmt.Sprintf("relation R%d(a, b)\naccess R%d(a -> *) limit 3 time 1\n", i, i)
			if i > 0 {
				qbody += " and "
				head += ", "
			}
			qbody += fmt.Sprintf("R%d(x%d, x%d)", i, i, i+1)
			head += fmt.Sprintf("x%d", i)
		}
		head += fmt.Sprintf(", x%d", k)
		cat, err := parser.ParseCatalog(catalog)
		if err != nil {
			return nil, err
		}
		q, err := parser.ParseQuery(fmt.Sprintf("Q(%s) := %s", head, qbody))
		if err != nil {
			return nil, err
		}
		an := core.NewAnalyzer(cat.Access)
		start := time.Now()
		res, err := an.AnalyzeQuery(q)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		_, ok, err := core.QCntl(an, q, 1)
		if err != nil {
			return nil, err
		}
		fam := res.Family()
		t.Row(k, len(fam), fam.MinSize(), ok, elapsed)
	}
	t.Notes = "a chain is controlled by {x1} alone (cascading keys): QCntl(1) = yes at every k; the family of minimal sets grows with k."
	return []*Table{t}, nil
}

// X45Embedded is Proposition 4.5 / Example 4.6: Q3 under the embedded
// access schema (366-day bound + FD), bounded vs naive as |D| grows.
func X45Embedded(quick bool) ([]*Table, error) {
	t := NewTable("X4.5", "Q3(rn, p₀, 2013) with embedded entries: bounded vs naive",
		"persons", "|D|", "naive reads", "bounded reads+probes")
	sizes := []int{500, 2000}
	if quick {
		sizes = []int{300, 1200}
	}
	q := mustParseQuery(workload.Q3Src)
	for _, n := range sizes {
		st, _, err := openSocial(n, 45)
		if err != nil {
			return nil, err
		}
		fixed := query.Bindings{"p": relation.Int(7), "yy": relation.Int(2013)}
		var naiveES store.ExecStats
		naive, err := eval.Answers(eval.NewStoreSource(st, &naiveES), q, fixed)
		if err != nil {
			return nil, err
		}

		eng := core.NewEngine(st)
		ans, err := eng.Answer(q, fixed)
		if err != nil {
			return nil, err
		}
		c := ans.Cost
		if !ans.Tuples.Equal(naive) {
			return nil, fmt.Errorf("X4.5: bounded and naive answers differ at n=%d", n)
		}
		t.Row(n, st.Size(), naiveES.Counters.TupleReads, c.TupleReads+c.Memberships)
	}
	t.Notes = "without the embedded entries Q3 is not (p,yy)-controlled (Example 4.1); with them the chase gives a bounded plan. Answers identical."
	return []*Table{t}, nil
}

// X54Maintenance is Theorem 5.4 / Proposition 5.5 on the serving engine:
// Q(a,b,c) := R(a,b) ∧ S(b,c) prepared on {a} and watched at a = ā, under
// a mixed insert/delete stream on R and S that touches ā's groups. Every
// commit is maintained by Engine.Commit; the snapshot is checked against
// recomputation after each one.
func X54Maintenance(quick bool) ([]*Table, error) {
	t := NewTable("X5.4", "σ_a=ā(R ⋈ S) watched on {a}: maintenance reads per update vs |D|",
		"|D|", "controlled", "maintained", "deletions", "reads/update", "bound/update", "maintain time", "recompute time")
	cat, err := parser.ParseCatalog(`
relation R(a, b)
relation S(b, c)
access R(a -> *) limit 4 time 1
access S(b -> *) limit 4 time 1
`)
	if err != nil {
		return nil, err
	}
	q := mustParseQuery("Q(a, b, c) := R(a, b) and S(b, c)")
	const abar = 7
	fixed := query.Bindings{"a": relation.Int(abar)}
	res, err := core.NewAnalyzer(cat.Access).AnalyzeQuery(q)
	if err != nil {
		return nil, err
	}
	controlled := res.Controls(fixed.Vars()) != nil
	sizes := []int{500, 2000, 8000}
	if quick {
		sizes = []int{300, 1200}
	}
	ctx := context.Background()
	for _, n := range sizes {
		db := relation.NewDatabase(cat.Relational)
		for i := 0; i < n; i++ {
			db.MustInsert("R", relation.Ints(int64(i), int64(i)))
			db.MustInsert("S", relation.Ints(int64(i), int64(3*i)))
		}
		st, err := store.Open(db, cat.Access)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(st)
		prep, err := eng.Prepare(q, fixed.Vars())
		if err != nil {
			return nil, err
		}
		live, err := prep.Watch(ctx, fixed)
		if err != nil {
			return nil, err
		}
		ups := x54Stream(abar, 40)
		var reads int64
		var maintainTime, recomputeTime time.Duration
		for k, u := range ups {
			start := time.Now()
			cr, err := eng.Commit(ctx, u)
			if err != nil {
				return nil, err
			}
			maintainTime += time.Since(start)
			reads += cr.Maintenance.TupleReads + cr.Maintenance.Memberships
			start = time.Now()
			want, err := eval.Answers(eval.NewStoreSource(st, nil), q, fixed)
			if err != nil {
				return nil, err
			}
			recomputeTime += time.Since(start)
			if !live.Snapshot().Equal(want) {
				return nil, fmt.Errorf("X5.4: maintained and recomputed answers differ at n=%d after update %d", n, k)
			}
		}
		live.Close()
		var bound int64
		for d, err := range live.Deltas() {
			if err != nil {
				return nil, err
			}
			bound += d.Bound
		}
		per := func(x int64) float64 { return float64(x) / float64(len(ups)) }
		t.Row(st.Size(), controlled, live.Maintained(), live.SupportsDeletions(),
			per(reads), per(bound), maintainTime, recomputeTime)
	}
	t.Notes = "maintained by Engine.Commit on the Watch handle (Prop 5.5): reads per update are flat in |D| and within the N-derived bound; deletions re-verify without re-execution. Snapshot identical to recomputation after every update."
	return []*Table{t}, nil
}

// x54Stream is a deterministic mixed insert/delete stream in which every
// update touches ā's groups: it toggles R(ā, b) for b in a fixed pool, or
// S(b, c) for a current partner b of ā and c in a fixed pool. Groups stay
// within N = 4 — R(ā) holds at most the four pool values, S(b) at most
// its base tuple plus three — and the stream is the same at every |D|.
func x54Stream(abar int64, n int) []*relation.Update {
	rng := rand.New(rand.NewSource(54))
	bs := []int64{abar, 1_000_001, 1_000_002, 1_000_003}
	cs := []int64{2_000_001, 2_000_002, 2_000_003}
	inR := []bool{true, false, false, false} // the base data holds R(ā, ā)
	inS := make([][]bool, len(bs))
	for i := range inS {
		inS[i] = make([]bool, len(cs))
	}
	toggle := func(u *relation.Update, present *bool, rel string, t relation.Tuple) {
		if *present {
			u.Delete(rel, t)
		} else {
			u.Insert(rel, t)
		}
		*present = !*present
	}
	out := make([]*relation.Update, n)
	for k := range out {
		u := relation.NewUpdate()
		i := rng.Intn(len(bs))
		if j := rng.Intn(2 * len(cs)); j < len(cs) && inR[i] {
			toggle(u, &inS[i][j], "S", relation.Ints(bs[i], cs[j]))
		} else {
			toggle(u, &inR[i], "R", relation.Ints(abar, bs[i]))
		}
		out[k] = u
	}
	return out
}

// X61VQSI is Theorem 6.1: the VQSI decision procedure on the paper's
// example and on complete-rewriting instances.
func X61VQSI(quick bool) ([]*Table, error) {
	t := NewTable("X6.1", "VQSI decisions",
		"query", "views", "M", "InVSQ", "reason/witness", "time")
	q2 := mustParseCQ(workload.Q2Src)
	v1 := mustView("V1(rid, rn, rating) :- restr(rid, rn, 'NYC', rating)")
	v2 := mustView("V2(id, rid) :- visit(id, rid, yy, mm, dd), person(id, pn, 'NYC')")
	cases := []struct {
		name string
		q    *query.CQ
		vs   []*views.View
		m    int
	}{
		{"Q2", q2, []*views.View{v1, v2}, 1},
		{"Q2", q2, []*views.View{v1, v2}, 4},
		{"identity", mustParseCQ("Q(x, y) :- R0(x, y)"),
			[]*views.View{mustView("VR(x, y) :- R0(x, y)")}, 0},
		{"boolean", mustParseCQ("Q() :- friend(p, id), visit(id, rid, yy, mm, dd)"),
			[]*views.View{v2}, 2},
	}
	for _, c := range cases {
		start := time.Now()
		dec, err := views.DecideVQSI(c.q, c.vs, c.m, 0)
		if err != nil {
			return nil, err
		}
		detail := dec.Reason
		if dec.InVSQ {
			detail = dec.Rewriting.String()
			if len(detail) > 48 {
				detail = detail[:48] + "…"
			}
		}
		t.Row(c.name, len(c.vs), c.m, dec.InVSQ, detail, time.Since(start))
	}
	t.Notes = "Q2 is not in VSQ for small M (rn stays unconstrained — Thm 6.1's characterization); for larger M the trivial rewriting qualifies for Boolean shape; a complete rewriting gives M = 0."
	return []*Table{t}, nil
}
