package views

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
)

func mustCQ(t testing.TB, src string) *query.CQ {
	t.Helper()
	q, err := parser.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustView(t testing.TB, src string) *View {
	t.Helper()
	v, err := NewView(mustCQ(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The schema of Example 1.1 and its views V1 (NYC restaurants) and V2
// (visits by NYC residents).
func exampleSchema() *relation.Schema {
	return relation.MustSchema(
		relation.MustRelSchema("person", "id", "name", "city"),
		relation.MustRelSchema("friend", "id1", "id2"),
		relation.MustRelSchema("restr", "rid", "name", "city", "rating"),
		relation.MustRelSchema("visit", "id", "rid"),
	)
}

func exampleViews(t testing.TB) []*View {
	return []*View{
		mustView(t, "V1(rid, rn, rating) :- restr(rid, rn, 'NYC', rating)"),
		mustView(t, "V2(id, rid) :- visit(id, rid), person(id, pn, 'NYC')"),
	}
}

func q2(t testing.TB) *query.CQ {
	return mustCQ(t, "Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, 'NYC'), restr(rid, rn, 'NYC', 'A')")
}

func exampleDB(t testing.TB, nPersons, nRestr int, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase(exampleSchema())
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

func TestNewViewValidation(t *testing.T) {
	if _, err := NewView(mustCQ(t, "V(x, x) :- R(x, y)")); err == nil {
		t.Error("repeated head variable accepted")
	}
	v := mustView(t, "V1(rid, rn, rating) :- restr(rid, rn, 'NYC', rating)")
	rs := v.Schema()
	if rs.Name != "V1" || len(rs.Attrs) != 3 || rs.Attrs[0] != "rid" {
		t.Errorf("view schema = %v", rs)
	}
}

func TestMaterialize(t *testing.T) {
	db := exampleDB(t, 10, 6, 1)
	combined, err := Materialize(db, exampleViews(t))
	if err != nil {
		t.Fatal(err)
	}
	// V1 holds exactly the NYC restaurants.
	wantV1 := 0
	for _, tu := range db.Rel("restr").Tuples() {
		if tu[2] == relation.Str("NYC") {
			wantV1++
		}
	}
	if combined.Rel("V1").Len() != wantV1 {
		t.Errorf("V1 size = %d, want %d", combined.Rel("V1").Len(), wantV1)
	}
	// Base relations are carried over.
	if combined.Rel("friend").Len() != db.Rel("friend").Len() {
		t.Error("base relations missing from combined database")
	}
}

func TestFindRewritingsQ2(t *testing.T) {
	rws, err := FindRewritings(q2(t), exampleViews(t), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Must contain the paper's rewriting: friend base atom + V1 + V2.
	var paperRW *Rewriting
	for _, r := range rws {
		if r.BaseSize() == 1 && len(r.ViewAtoms) == 2 && r.BaseAtoms[0].Rel == "friend" {
			paperRW = r
			break
		}
	}
	if paperRW == nil {
		for _, r := range rws {
			t.Logf("rewriting: %s", r)
		}
		t.Fatal("the paper's rewriting Q2' was not found")
	}
	// And the trivial rewriting (mask 0).
	foundTrivial := false
	for _, r := range rws {
		if len(r.ViewAtoms) == 0 && r.BaseSize() == 4 {
			foundTrivial = true
		}
	}
	if !foundTrivial {
		t.Error("trivial rewriting missing")
	}
}

// Every returned rewriting must compute exactly Q over random databases.
func TestRewritingsSemanticsQuick(t *testing.T) {
	views := exampleViews(t)
	rws, err := FindRewritings(q2(t), views, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) == 0 {
		t.Fatal("no rewritings")
	}
	for trial := 0; trial < 5; trial++ {
		db := exampleDB(t, 12, 6, int64(trial+10))
		combined, err := Materialize(db, views)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.AnswersCQ(eval.DBSource{DB: db}, q2(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rws {
			got, err := eval.AnswersCQ(eval.DBSource{DB: combined}, r.Body, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: rewriting %s computes %d answers, want %d",
					trial, r, got.Len(), want.Len())
			}
		}
	}
}

func TestUnconstrainedVars(t *testing.T) {
	views := exampleViews(t)
	rws, err := FindRewritings(q2(t), views, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rws {
		if r.BaseSize() == 1 && len(r.ViewAtoms) == 2 {
			// The paper: rn is unconstrained in Q2' (connects to friend via
			// joins through V2, V1); p likewise (directly in friend).
			un := r.UnconstrainedVars()
			if !un.Contains("rn") || !un.Contains("p") {
				t.Errorf("unconstrained = %v, want both p and rn", un)
			}
		}
	}
}

func TestDecideVQSI(t *testing.T) {
	// Q2 is NOT in VSQ(V, M) for small M: rn stays unconstrained in every
	// rewriting that gets the base part small.
	dec, err := DecideVQSI(q2(t), exampleViews(t), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.InVSQ {
		t.Fatalf("Q2 should not be in VSQ with M=1: %s", dec.Rewriting)
	}
	// A complete rewriting: Q(x,y) :- R(x,y) with V covering R exactly:
	// M = 0 works and all head vars are view-only (constrained).
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	_ = s
	qr := mustCQ(t, "Q(x, y) :- R(x, y)")
	vr := mustView(t, "VR(x, y) :- R(x, y)")
	dec, err = DecideVQSI(qr, []*View{vr}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InVSQ || dec.Rewriting.BaseSize() != 0 {
		t.Fatalf("complete rewriting should make Q ∈ VSQ(V, 0): %+v", dec)
	}
	// Boolean queries only need the base-size condition.
	qb := mustCQ(t, "Q() :- friend(p, id), visit(id, rid)")
	v2 := exampleViews(t)[1]
	dec, err = DecideVQSI(qb, []*View{v2}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InVSQ {
		t.Fatal("Boolean query with small base part should be in VSQ")
	}
}

// The Corollary 6.2 sufficient conditions (ExpansionControlled /
// BasePartControlled) need the controllability analysis and live in
// internal/core; see core's viewctl tests for their coverage, including
// the end-to-end bounded-base-reads check over the paper's Q2 rewriting.
