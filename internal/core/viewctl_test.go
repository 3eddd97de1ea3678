package core_test

// The Corollary 6.2 sufficient-condition tests moved here from
// internal/views when the analysis helpers did: an in-package views test
// cannot import core (core imports views for view-aware planning).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/views"
)

func vtCQ(t testing.TB, src string) *query.CQ {
	t.Helper()
	q, err := parser.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func vtView(t testing.TB, src string) *views.View {
	t.Helper()
	v, err := views.NewView(vtCQ(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The schema of Example 1.1 (undated visits) and its views V1 (NYC
// restaurants) and V2 (visits by NYC residents).
func vtSchema() *relation.Schema {
	return relation.MustSchema(
		relation.MustRelSchema("person", "id", "name", "city"),
		relation.MustRelSchema("friend", "id1", "id2"),
		relation.MustRelSchema("restr", "rid", "name", "city", "rating"),
		relation.MustRelSchema("visit", "id", "rid"),
	)
}

func vtViews(t testing.TB) []*views.View {
	return []*views.View{
		vtView(t, "V1(rid, rn, rating) :- restr(rid, rn, 'NYC', rating)"),
		vtView(t, "V2(id, rid) :- visit(id, rid), person(id, pn, 'NYC')"),
	}
}

func vtQ2(t testing.TB) *query.CQ {
	return vtCQ(t, "Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, 'NYC'), restr(rid, rn, 'NYC', 'A')")
}

func vtDB(t testing.TB, nPersons, nRestr int, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase(vtSchema())
	cities := []string{"NYC", "LA"}
	for i := 0; i < nPersons; i++ {
		db.MustInsert("person", relation.NewTuple(
			relation.Int(int64(i)), relation.Str(fmt.Sprintf("p%d", i)), relation.Str(cities[i%2])))
		for j := 0; j < 3; j++ {
			db.Insert("friend", relation.Ints(int64(i), int64(rng.Intn(nPersons)))) //nolint:errcheck
		}
	}
	for r := 0; r < nRestr; r++ {
		db.MustInsert("restr", relation.NewTuple(
			relation.Int(int64(1000+r)), relation.Str(fmt.Sprintf("r%d", r)),
			relation.Str(cities[r%2]), relation.Str([]string{"A", "B"}[r%2])))
	}
	for i := 0; i < nPersons; i++ {
		db.Insert("visit", relation.Ints(int64(i), int64(1000+rng.Intn(nRestr)))) //nolint:errcheck
	}
	return db
}

func vtPaperRewriting(t testing.TB) *views.Rewriting {
	t.Helper()
	rws, err := views.FindRewritings(vtQ2(t), vtViews(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rws {
		if r.BaseSize() == 1 && len(r.ViewAtoms) == 2 {
			return r
		}
	}
	t.Fatal("paper rewriting missing")
	return nil
}

func TestCor62BasePartControlled(t *testing.T) {
	acc := access.New(vtSchema())
	acc.MustAdd(access.Plain("friend", []string{"id1"}, 5000, 1))
	paperRW := vtPaperRewriting(t)
	// Example 6.3: base part friend(p, id) is p-controlled; with y = {p, rn}
	// covering the unconstrained distinguished variables, Cor 6.2(2) holds.
	ok, err := core.BasePartControlled(paperRW, acc, query.NewVarSet("p", "rn"))
	if err != nil || !ok {
		t.Fatalf("Cor 6.2(2) should hold with y={p,rn}: %v %v", ok, err)
	}
	// y = {p} misses unconstrained rn.
	ok, err = core.BasePartControlled(paperRW, acc, query.NewVarSet("p"))
	if err != nil || ok {
		t.Fatalf("y={p} should fail (rn unconstrained): %v %v", ok, err)
	}
}

// End to end (Example 1.1(c)/6.3): answering Q2 via the rewriting over
// materialized views touches a bounded number of *base* tuples, flat in
// |D|, and matches naive evaluation.
func TestViewBasedAnswerBoundedBaseReads(t *testing.T) {
	vs := vtViews(t)
	paperRW := vtPaperRewriting(t)
	var baseReads []int
	for _, n := range []int{20, 80, 320} {
		db := vtDB(t, n, 8, 77)
		combined, err := views.Materialize(db, vs)
		if err != nil {
			t.Fatal(err)
		}
		acc := access.New(combined.Schema())
		acc.MustAdd(access.Plain("friend", []string{"id1"}, 5000, 1))
		acc.MustAdd(access.Plain("V2", []string{"id"}, 1000, 1))
		acc.MustAdd(access.Plain("V1", []string{"rid"}, 1, 1))
		st := store.MustOpen(combined, acc)
		eng := core.NewEngine(st)
		rq, err := paperRW.Body.Query()
		if err != nil {
			t.Fatal(err)
		}
		fixed := query.Bindings{"p": relation.Int(3)}
		ans, err := eng.Answer(rq, fixed)
		if err != nil {
			t.Fatal(err)
		}
		q2q, err := vtQ2(t).Query()
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.Answers(eval.DBSource{DB: db}, q2q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Tuples.Equal(want) {
			t.Fatalf("n=%d: view answer %v vs naive %v", n, ans.Tuples.Tuples(), want.Tuples())
		}
		// Base reads: distinct touched tuples in base relations only.
		per := ans.DQ.PerRelation()
		base := per["friend"] + per["visit"] + per["person"] + per["restr"]
		baseReads = append(baseReads, base)
	}
	for i := 1; i < len(baseReads); i++ {
		if baseReads[i] > baseReads[0]+4 {
			t.Errorf("base reads grew with |D|: %v", baseReads)
		}
	}
}
