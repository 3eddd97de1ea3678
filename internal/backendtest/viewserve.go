package backendtest

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
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

// Q6Src is the rescue showcase: names of people who befriended p (the
// reverse friendship direction). friend is only accessible by id1, so the
// query is NOT x̄={p}-controllable over the base relations — the serving
// tier can only answer it through a materialized view (Theorem 6.1).
const Q6Src = "Q6(p, fn) :- friend(f, p), person(f, fn, c)"

// VFolSrc inverts the friendship relation. Its body gives no bound on a
// person's in-degree, so the entry making the rescue plan possible is
// caller-supplied (the paper's "views can be indexed at will").
const VFolSrc = "VFol(p, f) :- friend(f, p)"

// VNYCSrc pre-joins dated visits with the NYC person filter — a view the
// optimizer can substitute into Q2-shaped plans. Its access entry on id is
// derived from the definition's own controllability.
const VNYCSrc = "VNYC(id, rid) :- visit(id, rid, yy, mm, dd), person(id, pn, 'NYC')"

// Q7Src is the base-vs-view flip showcase: restaurants p visited as a NYC
// person. The base plan must read visit(p) AND probe person; a VNYC plan
// reads the view alone, so its bound is strictly smaller and re-Prepare
// after CreateView must switch — through the plan cache, via the view
// epoch in the cache key.
const Q7Src = "Q7(p, rid) := exists yy, mm, dd, pn (visit(p, rid, yy, mm, dd) and person(p, pn, 'NYC'))"

// viewServe is the conformance subtest for materialized views as serving
// citizens, on the reference engine and the engine under test in lockstep:
//
//   - Q6 fails Prepare with ErrNotControllable on base relations, and
//     after CreateView(VFol) is served through a rescued view rewriting
//     (Plan().Rescued, the view named in Plan().Views and EXPLAIN), with
//     answers bit-identical to naive evaluation and reads within the
//     rewriting's static bound;
//   - CreateView flips a cached base plan (Q7) to a strictly cheaper
//     view plan on re-Prepare: view-epoch plan-cache invalidation;
//   - a randomized 200-commit mixed stream is committed through both
//     engines; after every prefix the view extents equal a from-scratch
//     materialization of their definitions, view maintenance charges
//     identical reads on both backends without advancing the store LSN,
//     and the view-served queries stay ≡ fresh naive evaluation;
//   - DropView makes Q6 unanswerable again (epoch bump un-caches the
//     rescued plan).
func viewServe(t *testing.T, cfg workload.Config, engRef, engB *core.Engine) {
	ctx := context.Background()
	engines := []struct {
		name string
		eng  *core.Engine
	}{{"reference", engRef}, {"backend", engB}}

	q6 := mustQuery(t, Q6Src)
	q7 := mustQuery(t, Q7Src)
	q2 := mustQuery(t, workload.Q2Src)
	ctrlP := query.NewVarSet("p")

	// Without views, Q6 is not controllable (and the failure is cached).
	for _, en := range engines {
		if _, err := en.eng.Prepare(q6, ctrlP); !errors.Is(err, core.ErrNotControllable) {
			t.Fatalf("Prepare Q6 on %s without views: err = %v, want ErrNotControllable", en.name, err)
		}
	}
	// Q7 prepares to a pure base plan; its bound is the flip baseline.
	prep7Base := mustPrepare(t, engB, q7, []string{"p"})
	if len(prep7Base.Plan().Views) != 0 || prep7Base.Plan().Rescued {
		t.Fatalf("Q7 base plan reads views %v before any view exists", prep7Base.Plan().Views)
	}
	q7BaseBound := prep7Base.Plan().Bound.Reads

	// Register both views on both engines. VFol needs a caller-supplied
	// entry on p: the in-degree bound no base entry implies.
	folDef, err := parser.ParseCQ(VFolSrc)
	if err != nil {
		t.Fatal(err)
	}
	nycDef, err := parser.ParseCQ(VNYCSrc)
	if err != nil {
		t.Fatal(err)
	}
	folCap := cfg.MaxFriends + 64
	for _, en := range engines {
		infoFol, err := en.eng.CreateView(folDef, access.Plain("VFol", []string{"p"}, folCap, 1))
		if err != nil {
			t.Fatalf("CreateView VFol on %s: %v", en.name, err)
		}
		infoNYC, err := en.eng.CreateView(nycDef)
		if err != nil {
			t.Fatalf("CreateView VNYC on %s: %v", en.name, err)
		}
		if infoFol.Rows == 0 || infoNYC.Rows == 0 {
			t.Fatalf("%s: empty initial view extent (VFol %d rows, VNYC %d rows)", en.name, infoFol.Rows, infoNYC.Rows)
		}
	}
	refViews, bViews := engRef.Views(), engB.Views()
	if len(refViews) != 2 || len(bViews) != 2 {
		t.Fatalf("view registry: %d views on reference, %d on backend, want 2", len(refViews), len(bViews))
	}
	for i := range refViews {
		if refViews[i].Name != bViews[i].Name || refViews[i].Rows != bViews[i].Rows {
			t.Fatalf("view %d diverges across backends: %+v vs %+v", i, refViews[i], bViews[i])
		}
	}

	// Rescue: Q6 now prepares through the VFol rewriting on both engines
	// (the cached ErrNotControllable outcome aged out via the view epoch).
	prep6 := make([]*core.PreparedQuery, len(engines))
	for i, en := range engines {
		p, err := en.eng.Prepare(q6, ctrlP)
		if err != nil {
			t.Fatalf("Prepare Q6 on %s with VFol registered: %v", en.name, err)
		}
		if !p.Plan().Rescued {
			t.Fatalf("Q6 plan on %s is not marked rescued", en.name)
		}
		if !slices.Contains(p.Plan().Views, "VFol") {
			t.Fatalf("Q6 plan on %s reads views %v, want VFol", en.name, p.Plan().Views)
		}
		exp := p.Explain()
		if !strings.Contains(exp, "VFol") || !strings.Contains(exp, "rescued") || !strings.Contains(exp, "view freshness:") {
			t.Fatalf("Q6 EXPLAIN on %s lacks view provenance:\n%s", en.name, exp)
		}
		prep6[i] = p
	}
	if prep6[0].Plan().Bound.Reads != prep6[1].Plan().Bound.Reads {
		t.Fatalf("Q6 rescue bound %d on reference, %d on backend", prep6[0].Plan().Bound.Reads, prep6[1].Plan().Bound.Reads)
	}

	// Flip: re-Prepare Q7 must now pick the strictly cheaper VNYC plan.
	prep7 := make([]*core.PreparedQuery, len(engines))
	for i, en := range engines {
		p := mustPrepare(t, en.eng, q7, []string{"p"})
		if !slices.Contains(p.Plan().Views, "VNYC") {
			t.Fatalf("Q7 plan on %s after CreateView reads views %v, want VNYC — the view epoch did not invalidate the cached base plan",
				en.name, p.Plan().Views)
		}
		if p.Plan().Rescued {
			t.Fatalf("Q7 is base-controllable; its view plan on %s must not be marked rescued", en.name)
		}
		if p.Plan().Bound.Reads >= q7BaseBound {
			t.Fatalf("Q7 view plan bound %d on %s is not strictly below the base bound %d", p.Plan().Bound.Reads, en.name, q7BaseBound)
		}
		prep7[i] = p
	}
	// Q2 keeps serving (base or view rewriting, whichever bounds fewer
	// reads) and must never get worse than its base plan.
	prep2 := make([]*core.PreparedQuery, len(engines))
	for i, en := range engines {
		prep2[i] = mustPrepare(t, en.eng, q2, []string{"p"})
	}
	if prep2[0].Plan().Bound.Reads != prep2[1].Plan().Bound.Reads {
		t.Fatalf("Q2 bound %d on reference, %d on backend", prep2[0].Plan().Bound.Reads, prep2[1].Plan().Bound.Reads)
	}

	hot := []int64{3, 4, 5, 41}
	// The naive oracle reads the reference store's data uncounted (the lane
	// is single-threaded between commits), so the keyed DBSource join keeps
	// it linear in |D|.
	refData := engRef.DB.(*store.DB).Data()
	checkServed := func(stage string) {
		t.Helper()
		for _, served := range []struct {
			name  string
			q     *query.Query
			preps []*core.PreparedQuery
		}{{"Q6", q6, prep6}, {"Q7", q7, prep7}, {"Q2", q2, prep2}} {
			for _, p := range hot {
				fixed := query.Bindings{"p": relation.Int(p)}
				want, err := eval.Answers(eval.DBSource{DB: refData}, served.q, fixed)
				if err != nil {
					t.Fatalf("%s: naive %s p=%d: %v", stage, served.name, p, err)
				}
				var reads [2]int64
				for i, en := range engines {
					ans, err := served.preps[i].Exec(ctx, fixed)
					if err != nil {
						t.Fatalf("%s: %s p=%d on %s: %v", stage, served.name, p, en.name, err)
					}
					if !ans.Tuples.Equal(want) {
						t.Fatalf("%s: %s p=%d on %s: %d view-served answers, naive evaluation has %d",
							stage, served.name, p, en.name, ans.Tuples.Len(), want.Len())
					}
					if ans.Cost.TupleReads > served.preps[i].Plan().Bound.Reads {
						t.Fatalf("%s: %s p=%d on %s: %d reads exceed the rewriting bound %d",
							stage, served.name, p, en.name, ans.Cost.TupleReads, served.preps[i].Plan().Bound.Reads)
					}
					reads[i] = ans.Cost.TupleReads
				}
				if reads[0] != reads[1] {
					t.Fatalf("%s: %s p=%d: %d reads on reference, %d on backend", stage, served.name, p, reads[0], reads[1])
				}
			}
		}
	}
	checkViewExtents := func(stage string) {
		t.Helper()
		base := engRef.DB.CloneData()
		nycPersons := make(map[relation.Value]bool)
		for _, tu := range base.Rel("person").Tuples() {
			if tu[2] == relation.Str("NYC") {
				nycPersons[tu[0]] = true
			}
		}
		wantFol := relation.NewTupleSet(0)
		for _, tu := range base.Rel("friend").Tuples() {
			wantFol.Add(relation.Tuple{tu[1], tu[0]})
		}
		wantNYC := relation.NewTupleSet(0)
		for _, tu := range base.Rel("visit").Tuples() {
			if nycPersons[tu[0]] {
				wantNYC.Add(relation.Tuple{tu[0], tu[1]})
			}
		}
		for _, en := range engines {
			data := en.eng.DB.CloneData()
			for _, v := range []struct {
				name string
				want *relation.TupleSet
			}{{"VFol", wantFol}, {"VNYC", wantNYC}} {
				got := relation.NewTupleSet(data.Rel(v.name).Len())
				got.AddAll(data.Rel(v.name).Tuples())
				if !got.Equal(v.want) {
					t.Fatalf("%s: %s extent on %s has %d tuples, from-scratch materialization %d",
						stage, v.name, en.name, got.Len(), v.want.Len())
				}
			}
		}
	}
	checkServed("before commits")
	checkViewExtents("before commits")

	// The randomized mixed stream: friend and visit churn plus fresh
	// persons, committed through both engines in lockstep.
	commits := workload.MixedCommits(engRef.DB.CloneData(), cfg, 200, hot, 97)
	for ci, u := range commits {
		resRef, err := engRef.Commit(ctx, u)
		if err != nil {
			t.Fatalf("commit %d on reference: %v", ci, err)
		}
		resB, err := engB.Commit(ctx, u)
		if err != nil {
			t.Fatalf("commit %d on backend: %v", ci, err)
		}
		if resRef.ViewsMaintained != resB.ViewsMaintained || resRef.ViewReads != resB.ViewReads {
			t.Fatalf("commit %d: view maintenance %d views/%d reads on reference, %d/%d on backend",
				ci, resRef.ViewsMaintained, resRef.ViewReads, resB.ViewsMaintained, resB.ViewReads)
		}
		if len(u.Ins["friend"])+len(u.Del["friend"]) > 0 && resRef.ViewsMaintained == 0 {
			t.Fatalf("commit %d touches friend but maintained no view", ci)
		}
		// View deltas ride the commit (ApplyDerived): the backend LSN must
		// reflect the base commit only.
		for _, en := range []struct {
			name string
			res  *core.CommitResult
			eng  *core.Engine
		}{{"reference", resRef, engRef}, {"backend", resB, engB}} {
			if v := en.eng.DB.Version(); en.res.StoreSeq != v {
				t.Fatalf("commit %d on %s: store LSN %d recorded, backend reports %d — view maintenance advanced the commit log",
					ci, en.name, en.res.StoreSeq, v)
			}
			for _, vi := range en.eng.Views() {
				if vi.Broken != "" {
					t.Fatalf("commit %d on %s: view %s broke: %s", ci, en.name, vi.Name, vi.Broken)
				}
				if vi.FreshSeq != en.res.Seq {
					t.Fatalf("commit %d on %s: view %s fresh@%d, commit seq %d", ci, en.name, vi.Name, vi.FreshSeq, en.res.Seq)
				}
			}
		}
		checkViewExtents("commit " + strconv.Itoa(ci))
		if (ci+1)%10 == 0 || ci == len(commits)-1 {
			checkServed("commit " + strconv.Itoa(ci))
		}
	}

	// DropView un-registers the rescue view on both engines; Q6 reverts to
	// unanswerable (the epoch bump makes the cached rescued plan
	// unreachable).
	for _, en := range engines {
		if err := en.eng.DropView("VFol"); err != nil {
			t.Fatalf("DropView VFol on %s: %v", en.name, err)
		}
		if _, err := en.eng.Prepare(q6, ctrlP); !errors.Is(err, core.ErrNotControllable) {
			t.Fatalf("Prepare Q6 on %s after DropView: err = %v, want ErrNotControllable", en.name, err)
		}
		if n := en.eng.NumViews(); n != 1 {
			t.Fatalf("%s: %d views registered after DropView, want 1", en.name, n)
		}
	}
}
