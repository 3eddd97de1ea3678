package core

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestGuardsPreserveBound: peeling the leading membership probes off an
// occurrence plan leaves its price unchanged — guards ⋈ rest costs what
// the whole plan's Bound says — for every occurrence of Q1–Q4 and of the
// view definitions VFol and VNYC.
func TestGuardsPreserveBound(t *testing.T) {
	eng := socialEngine(t, 200)
	guarded := 0
	for _, tc := range []struct {
		src   string
		fixed []string
	}{
		{workload.Q1Src, []string{"p"}},
		{workload.Q2Src, []string{"p"}},
		{workload.Q3Src, []string{"p", "yy"}},
		{"Q4(p, rn) := exists rid, yy, mm, dd, city, rating (visit(p, rid, yy, mm, dd) and restr(rid, rn, city, rating))", []string{"p"}},
		{"VFol(p, f) :- friend(f, p)", nil},
		{"VNYC(id, rid) :- visit(id, rid, yy, mm, dd), person(id, pn, 'NYC')", nil},
	} {
		q := mustRuleOrQ(t, tc.src)
		cq, ok := query.AsCQ(q)
		if !ok {
			t.Fatalf("%s is not a conjunctive query", q.Name)
		}
		ps, err := buildMaintPlans(eng, cq, query.NewVarSet(tc.fixed...))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for rel, ops := range ps.occs {
			for _, op := range ops {
				got := plan.Probe(len(op.guards))
				switch {
				case op.rest == nil:
				case len(op.guards) == 0:
					got = op.rest.Bound()
				default:
					got = plan.Join(got, op.rest.Bound())
				}
				if got != op.plan.Bound {
					t.Errorf("%s Δ%s: %d guards ⋈ rest cost %v, the plan's bound is %v\n%s",
						q.Name, rel, len(op.guards), got, op.plan.Bound, plan.Explain(op.plan.Root))
				}
				guarded += len(op.guards)
			}
		}
	}
	if guarded == 0 {
		t.Fatal("no occurrence plan has a guard: the identity is checked on nothing")
	}
}

// TestGuardGatesRestPlan: with Q2 watched for p, a visit by a NYC friend
// of p passes the friend(p, id) guard and runs the rest of the plan,
// while a visit by a stranger costs the watcher one membership probe and
// not a single tuple read.
func TestGuardGatesRestPlan(t *testing.T) {
	w := newWatchedQ2(t, 200, 1)
	data := w.st.Data()
	rid := nycARestaurant(t, data)
	const p = 0
	friend, stranger := int64(-1), int64(-1)
	for id := int64(1); id < 200 && (friend < 0 || stranger < 0); id++ {
		isFriend := data.Rel("friend").Contains(relation.Ints(p, id))
		nyc := data.Rel("person").Contains(relation.NewTuple(relation.Int(id), relation.Str(fmt.Sprintf("p%d", id)), relation.Str("NYC")))
		switch {
		case isFriend && nyc && friend < 0:
			friend = id
		case !isFriend && stranger < 0:
			stranger = id
		}
	}
	if friend < 0 || stranger < 0 {
		t.Fatalf("person %d needs a NYC friend and a stranger (found %d, %d)", p, friend, stranger)
	}
	visit := func(id int64) Delta {
		t.Helper()
		w.toggle(t, "visit", relation.NewTuple(relation.Int(id), rid, relation.Int(3000), relation.Int(1), relation.Int(1)))
		for d, err := range w.lives[0].Deltas() {
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		t.Fatal("no delta")
		return Delta{}
	}
	d := visit(friend)
	if d.Cost.Memberships != 1 || d.Cost.TupleReads != 3 || d.Bound != 3 {
		t.Errorf("a friend's visit: %d memberships, %d reads (bound %d); want the guard, person and restr read: 1, 3 (3)",
			d.Cost.Memberships, d.Cost.TupleReads, d.Bound)
	}
	d = visit(stranger)
	if d.Cost.Memberships != 1 || d.Cost.TupleReads != 0 || len(d.Ins)+len(d.Del) != 0 {
		t.Errorf("a stranger's visit: %d memberships, %d reads, %d answers moved; want one failed guard probe: 1, 0, 0",
			d.Cost.Memberships, d.Cost.TupleReads, len(d.Ins)+len(d.Del))
	}
}

// TestWatchersSharePlans: watches of one prepared query with the same
// fixed variables share one compiled plan set; each keeps its own values
// and answers.
func TestWatchersSharePlans(t *testing.T) {
	w := newWatchedQ2(t, 200, 3)
	ps := w.lives[0].m.ps
	for i, l := range w.lives {
		if l.m.ps != ps {
			t.Fatalf("watcher %d compiled a plan set of its own", i)
		}
		if got := l.m.vals[0]; got != relation.Int(int64(i)) {
			t.Fatalf("watcher %d holds p = %v", i, got)
		}
	}
}
