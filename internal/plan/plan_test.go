package plan_test

// The plan package is exercised end-to-end by internal/core's executor
// tests, the backendtest conformance suite (planequiv) and the optimizer
// property test; the tests here pin the contracts the rest of the system
// leans on directly: cost-model parity between derivations and their
// compiled plans, plan-time routing resolution, and the shape of EXPLAIN
// output.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

func socialStore(t testing.TB, persons int, shards int) store.Backend {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = 11
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := workload.Access(cfg)
	if shards > 0 {
		s, err := shard.Open(data, acc, shards)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, err := store.Open(data, acc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustQuery(t testing.TB, src string) *query.Query {
	t.Helper()
	if cq, err := parser.ParseCQ(src); err == nil {
		q, err := cq.Query()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestCompileBoundMatchesCostOf pins cost-model parity: the 1:1 compiled
// plan of every derivation the analyzer emits for the experiment queries
// carries exactly the derivation's static bound. (The optimizer may then
// tighten it — never loosen it.)
func TestCompileBoundMatchesCostOf(t *testing.T) {
	st := socialStore(t, 60, 0)
	an := core.NewAnalyzer(st.Access())
	for _, src := range []string{
		workload.Q1Src, workload.Q2Src, workload.Q3Src,
		"QB(p) := exists id (friend(p, id) and not (exists n (person(id, n, 'NYC'))))",
		"QD(p, n) := exists id (friend(p, id) and (person(id, n, 'NYC') or person(id, n, 'LA')))",
	} {
		q := mustQuery(t, src)
		res, err := an.AnalyzeQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, d := range res.Derivs {
			got := core.Compile(d).Bound()
			want := core.CostOf(d)
			if got != want {
				t.Errorf("%s ctrl %s: compiled bound %v != derivation cost %v", q.Name, d.Ctrl, got, want)
			}
		}
	}
}

// TestOptimizedBoundNeverLooser: the engine's optimized plan bound is
// never above the analysis-order bound for the same (query, ctrl).
func TestOptimizedBoundNeverLooser(t *testing.T) {
	st := socialStore(t, 60, 0)
	engOn, engOff := core.NewEngine(st), core.NewEngine(st)
	engOff.SetOptimizer(core.OptimizerOff)
	for _, src := range []string{workload.Q1Src, workload.Q2Src, workload.Q3Src} {
		q := mustQuery(t, src)
		ctrl := query.NewVarSet("p")
		if q.Name == "Q3" {
			ctrl = query.NewVarSet("p", "yy")
		}
		pOn, err := engOn.Prepare(q, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		pOff, err := engOff.Prepare(q, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if pOn.Plan().Bound.Reads > pOff.Plan().Bound.Reads {
			t.Errorf("%s: optimized bound %d looser than analysis bound %d", q.Name, pOn.Plan().Bound.Reads, pOff.Plan().Bound.Reads)
		}
	}
}

// TestResolveRoutesSharded pins plan-time routing: on a hash-sharded
// backend a lookup through an entry covering the routing key is marked
// single-shard, one that does not cover it is a ScatterFetch — and the
// decision is visible in EXPLAIN.
func TestResolveRoutesSharded(t *testing.T) {
	st := socialStore(t, 60, 4)
	eng := core.NewEngine(st)

	q1 := mustQuery(t, workload.Q1Src)
	p1, err := eng.Prepare(q1, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ex := p1.Explain()
	if !strings.Contains(ex, "[single-shard]") {
		t.Errorf("Q1 on 4 shards: no single-shard route in EXPLAIN:\n%s", ex)
	}
	if strings.Contains(ex, "ScatterFetch") {
		t.Errorf("Q1 on 4 shards: unexpected scatter in EXPLAIN:\n%s", ex)
	}

	// restr routes on rid; a by-city lookup cannot cover it and scatters.
	qc := mustQuery(t, "QC(city, rn) := exists rid, rating (restr(rid, rn, city, rating))")
	pc, err := eng.Prepare(qc, query.NewVarSet("city"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pc.Explain(), "ScatterFetch") {
		t.Errorf("by-city lookup on 4 shards: no ScatterFetch in EXPLAIN:\n%s", pc.Explain())
	}

	// Single-node: everything is local, nothing scatters.
	engLocal := core.NewEngine(socialStore(t, 60, 0))
	pl, err := engLocal.Prepare(q1, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pl.Explain(), "shard") || strings.Contains(pl.Explain(), "Scatter") {
		t.Errorf("single-node EXPLAIN mentions sharding:\n%s", pl.Explain())
	}
}

// TestPlannedFetchEquivalence: executing through a pre-resolved route
// charges exactly what the per-fetch routing decision charges.
func TestPlannedFetchEquivalence(t *testing.T) {
	st := socialStore(t, 60, 4).(*shard.Store)
	rp := store.RoutePlanner(st)
	for _, e := range st.Access().Entries() {
		var vals []relation.Value
		switch e.Rel {
		case "friend", "person", "visit":
			vals = []relation.Value{relation.Int(7)}
		case "restr":
			vals = []relation.Value{relation.Int(1_000_000)}
		}
		if len(e.On) != 1 {
			continue
		}
		r := rp.PlanFetch(e)
		esAuto, esPlanned := &store.ExecStats{}, &store.ExecStats{}
		a, errA := st.FetchInto(esAuto, e, vals)
		b, errB := rp.FetchPlanned(esPlanned, e, vals, r)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", e.String(), errA, errB)
		}
		if len(a) != len(b) || esAuto.Counters != esPlanned.Counters {
			t.Fatalf("%s: planned fetch diverges: %d/%d tuples, %+v vs %+v", e.String(), len(a), len(b), esAuto.Counters, esPlanned.Counters)
		}
	}
}

// TestMaxGroupStats: both backends report usable entry statistics, and
// the sharded upper bound dominates the single-node exact maximum.
func TestMaxGroupStats(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	cfg.Seed = 11
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := workload.Access(cfg)
	single, err := store.Open(data.Clone(), acc)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.Open(data.Clone(), acc, 4)
	if err != nil {
		t.Fatal(err)
	}
	friendEntry := access.Plain("friend", []string{"id1"}, cfg.MaxFriends, 1)
	mg, ok := single.MaxGroup(friendEntry)
	if !ok || mg <= 0 || mg > cfg.MaxFriends {
		t.Fatalf("single-node MaxGroup(friend) = %d, %v", mg, ok)
	}
	mgs, ok := sharded.MaxGroup(friendEntry)
	if !ok || mgs < mg {
		t.Fatalf("sharded MaxGroup(friend) = %d (ok=%v), below single-node %d", mgs, ok, mg)
	}
}

// TestExplainShape: the EXPLAIN output names the operators and the
// chosen order.
func TestExplainShape(t *testing.T) {
	st := socialStore(t, 60, 0)
	eng := core.NewEngine(st)
	q := mustQuery(t, workload.Q2Src)
	p, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	for _, want := range []string{"controlled by", "physical plan", "order:", "reads"} {
		if !strings.Contains(ex, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, ex)
		}
	}
	if plan.Explain(p.Plan().Root) == "" {
		t.Error("empty operator tree")
	}
	if len(plan.AtomOrder(p.Plan().Root)) == 0 {
		t.Error("empty atom order")
	}
}

// chaseOver builds a chase over atoms, controlled by ctrl and outputting
// free, with the steps' variable masks filled in over the atoms'
// numbering (Binds as the emitted order binds them), and an optimizer
// over that numbering.
func chaseOver(atoms []*query.Atom, ctrl, free []string, steps ...plan.ChaseStep) (*plan.ChaseExec, *plan.Optimizer) {
	vt, err := plan.NumberAtoms(atoms)
	if err != nil {
		panic(err)
	}
	mask := func(names ...string) uint64 { return vt.Mask(query.NewVarSet(names...)) }
	bound := mask(ctrl...)
	for i := range steps {
		s := &steps[i]
		if s.Atom == nil {
			s.Proj = mask(s.EqL, s.EqR)
		} else {
			args := vt.Args(s.AtomIdx)
			s.On, s.Proj = plan.ArgMask(args, s.OnPos), plan.ArgMask(args, s.ProjPos)
			s.Binds = s.Proj &^ bound
		}
		bound |= s.Proj
	}
	n := plan.NewChaseExec(vt, mask(ctrl...), mask(free...))
	n.Atoms, n.Steps = atoms, steps
	return n, &plan.Optimizer{Vars: vt}
}

// twoStepChase builds the chase for Q(x,y,z) := a(x,y) and b(x,z) with x
// controlling, both atoms fetched through entries on x, in the emitted
// order requested. Each step binds exactly its own fresh variable, so the
// Binds sets are order-independent here by construction.
func twoStepChase(nA, nB int, aFirst bool) (*plan.ChaseExec, *plan.Optimizer) {
	atomA := query.NewAtom("a", query.Var("x"), query.Var("y"))
	atomB := query.NewAtom("b", query.Var("x"), query.Var("z"))
	stepA := plan.ChaseStep{
		Atom: atomA, AtomIdx: 0,
		Entry: access.Plain("a", []string{"x"}, nA, 1),
		OnPos: []int{0}, ProjPos: []int{0, 1}, Verifies: true,
	}
	stepB := plan.ChaseStep{
		Atom: atomB, AtomIdx: 1,
		Entry: access.Plain("b", []string{"x"}, nB, 1),
		OnPos: []int{0}, ProjPos: []int{0, 1}, Verifies: true,
	}
	atoms, ctrl, free := []*query.Atom{atomA, atomB}, []string{"x"}, []string{"x", "y", "z"}
	if aFirst {
		return chaseOver(atoms, ctrl, free, stepA, stepB)
	}
	return chaseOver(atoms, ctrl, free, stepB, stepA)
}

// TestChaseReorder pins the chase-step scheduling contract: smaller N
// runs first, a reorder that does not strictly lower the bound is
// discarded (ties keep the emitted order), and readiness gating keeps
// dependent steps after their producers.
func TestChaseReorder(t *testing.T) {
	t.Run("static flip", func(t *testing.T) {
		n, o := twoStepChase(50, 10, true)
		o.Optimize(n)
		if got := n.Steps[0].Atom.Rel; got != "b" {
			t.Fatalf("first step fetches %s, want b (smaller N first)", got)
		}
		if got := n.Bound(); got.Reads != 510 || got.Candidates != 500 {
			t.Errorf("reordered bound %+v, want reads 510 candidates 500", got)
		}
		if got0, got1 := o.Vars.Names(n.Steps[0].Binds), o.Vars.Names(n.Steps[1].Binds); !slices.Equal(got0, []string{"z"}) || !slices.Equal(got1, []string{"y"}) {
			t.Errorf("binds not recomputed for new order: %v / %v", got0, got1)
		}
	})

	t.Run("static tie keeps emitted order, bound unchanged", func(t *testing.T) {
		// Q(x,y,z,w) := a(x,y) and z = x and b(z,w), both N=50. The greedy
		// schedule runs the free propagation z = x first, but that ties
		// with the emitted order on the bound, so the emitted order stands.
		atomA := query.NewAtom("a", query.Var("x"), query.Var("y"))
		atomB := query.NewAtom("b", query.Var("z"), query.Var("w"))
		n, o := chaseOver([]*query.Atom{atomA, atomB}, []string{"x"}, []string{"x", "y", "z", "w"},
			plan.ChaseStep{Atom: atomA, AtomIdx: 0, Entry: access.Plain("a", []string{"x"}, 50, 1),
				OnPos: []int{0}, ProjPos: []int{0, 1}, Verifies: true},
			plan.ChaseStep{EqL: "z", EqR: "x"},
			plan.ChaseStep{Atom: atomB, AtomIdx: 1, Entry: access.Plain("b", []string{"z"}, 50, 1),
				OnPos: []int{0}, ProjPos: []int{0, 1}, Verifies: true},
		)
		want := n.Bound()
		o.Optimize(n)
		if n.Steps[0].Atom == nil || n.Steps[0].Atom.Rel != "a" {
			t.Fatalf("first step %+v, want the emitted fetch of a (a tie keeps the emitted order)", n.Steps[0])
		}
		if got := n.Bound(); got != want || got.Reads != 2550 {
			t.Errorf("bound %+v, want the emitted order's %+v (reads 2550)", got, want)
		}
	})

	t.Run("readiness gates greedy choice", func(t *testing.T) {
		// c(y,w) is fetched on y, which only a(x,y) binds: despite c's
		// smaller N it cannot run first.
		atomA := query.NewAtom("a", query.Var("x"), query.Var("y"))
		atomC := query.NewAtom("c", query.Var("y"), query.Var("w"))
		n, o := chaseOver([]*query.Atom{atomA, atomC}, []string{"x"}, []string{"x", "y", "w"},
			plan.ChaseStep{Atom: atomA, AtomIdx: 0, Entry: access.Plain("a", []string{"x"}, 50, 1),
				OnPos: []int{0}, ProjPos: []int{0, 1}, Verifies: true},
			plan.ChaseStep{Atom: atomC, AtomIdx: 1, Entry: access.Plain("c", []string{"y"}, 5, 1),
				OnPos: []int{0}, ProjPos: []int{0, 1}, Verifies: true},
		)
		want := n.Bound()
		o.Optimize(n)
		if got := n.Steps[0].Atom.Rel; got != "a" {
			t.Fatalf("first step fetches %s, want a (c's input y unbound)", got)
		}
		if got := n.Bound(); got != want {
			t.Errorf("bound changed by no-op reorder: %+v -> %+v", want, got)
		}
	})

	t.Run("reorder preserves answers", func(t *testing.T) {
		rsA, err := relation.NewRelSchema("a", "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		rsB, err := relation.NewRelSchema("b", "x", "z")
		if err != nil {
			t.Fatal(err)
		}
		sch, err := relation.NewSchema(rsA, rsB)
		if err != nil {
			t.Fatal(err)
		}
		data := relation.NewDatabase(sch)
		data.MustInsert("a", relation.Ints(1, 10))
		data.MustInsert("a", relation.Ints(1, 11))
		data.MustInsert("b", relation.Ints(1, 20))
		data.MustInsert("b", relation.Ints(1, 21))
		data.MustInsert("b", relation.Ints(1, 22))
		acc := access.New(sch).
			MustAdd(access.Plain("a", []string{"x"}, 50, 1)).
			MustAdd(access.Plain("b", []string{"x"}, 10, 1))
		db, err := store.Open(data, acc)
		if err != nil {
			t.Fatal(err)
		}
		run := func(n *plan.ChaseExec) (map[string]bool, int64) {
			es := &store.ExecStats{}
			rt := plan.BackendRuntime{Ctx: context.Background(), B: db, Es: es}
			got := map[string]bool{}
			for b, err := range n.Stream(rt, query.Bindings{"x": relation.Int(1)}) {
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%v/%v/%v", b["x"], b["y"], b["z"])] = true
			}
			return got, es.Counters.TupleReads
		}
		emitted, _ := twoStepChase(50, 10, true)
		wantAns, _ := run(emitted)
		if len(wantAns) != 6 {
			t.Fatalf("emitted order yields %d answers, want 6", len(wantAns))
		}
		opt, o := twoStepChase(50, 10, true)
		o.Optimize(opt)
		if got := opt.Steps[0].Atom.Rel; got != "b" {
			t.Fatalf("fixture not reordered (first step %s)", got)
		}
		gotAns, reads := run(opt)
		if !maps.Equal(gotAns, wantAns) {
			t.Errorf("reordered answers %v != emitted answers %v", gotAns, wantAns)
		}
		if bound := opt.Bound().Reads; reads > bound {
			t.Errorf("reordered chase read %d tuples, above its bound %d", reads, bound)
		}
	})
}
