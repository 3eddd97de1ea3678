package core

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestAdviseQ1FromScratch(t *testing.T) {
	// With no explicit entries (membership only), Q1 is not p-controlled;
	// the advisor must propose the friend(id1) and person(id) indices of
	// Example 1.1.
	cat := mustCatalog(t, `
relation person(id, name, city)
relation friend(id1, id2)
`)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	x := query.NewVarSet("p")
	if res, err := NewAnalyzer(cat.Access).AnalyzeQuery(q); err != nil || res.Controls(x) != nil {
		t.Fatalf("Q1 should not be p-controlled yet: %v", err)
	}
	adv, err := Advise(cat.Access, q, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Entries) == 0 || adv.Derivation == nil {
		t.Fatalf("advice = %+v", adv)
	}
	// The first proposal must be a friend index keyed on id1 (the only
	// atom with a bound position).
	e0 := adv.Entries[0]
	if e0.Rel != "friend" || len(e0.On) != 1 || e0.On[0] != "id1" {
		t.Errorf("first advice = %s", e0.String())
	}
	// Extending the schema with the advice makes Q1 p-controlled.
	ext := cat.Access.Clone()
	for _, e := range adv.Entries {
		if err := ext.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := NewAnalyzer(ext).AnalyzeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controls(x) == nil {
		t.Fatalf("advice did not make Q1 p-controlled: %v", res.Family())
	}
}

func TestAdviseQ3WithData(t *testing.T) {
	// Q3 under the plain schema is not (p,yy)-controlled (Example 4.1).
	// The advisor proposes a visit index; with data, N is the tightest
	// observed group size, and the data conforms to the proposal.
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	db, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := mustCatalog(t, facebookCatalog+`
access restr(city -> *) limit 50 time 1
`)
	q := mustQ(t, workload.Q3Src)
	x := query.NewVarSet("p", "yy")
	adv, err := Advise(plain.Access, q, x, db)
	if err != nil {
		t.Fatal(err)
	}
	foundVisit := false
	for _, e := range adv.Entries {
		if e.Rel == "visit" {
			foundVisit = true
			if e.N <= 0 || e.N >= PlaceholderN {
				t.Errorf("advice N should be tight from data, got %d", e.N)
			}
		}
	}
	if !foundVisit {
		t.Fatalf("expected a visit index proposal, got %v", adv.Entries)
	}
	// The data must conform to the advised entries and the query must
	// actually evaluate boundedly under them.
	ext := plain.Access.Clone()
	for _, e := range adv.Entries {
		if err := ext.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ext.Conforms(db); err != nil {
		t.Fatalf("data does not conform to advised schema: %v", err)
	}
	st, err := store.Open(db, ext)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	fixed := query.Bindings{"p": relation.Int(7), "yy": relation.Int(2013)}
	ans, err := eng.Answer(q, fixed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.Answers(eval.DBSource{DB: db}, q, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Tuples.Equal(want) {
		t.Fatal("bounded evaluation under advised schema is wrong")
	}
}

func TestAdviseRejectsNonConjunctive(t *testing.T) {
	cat := mustCatalog(t, "relation R(a, b)")
	q := mustQ(t, "Q(x) := R(x, x) or not (x = 1)")
	if _, err := Advise(cat.Access, q, query.NewVarSet("x"), nil); err == nil {
		t.Fatal("non-conjunctive query accepted")
	}
	q2 := mustQ(t, "Q(x) := exists y (R(x, y))")
	if _, err := Advise(cat.Access, q2, query.NewVarSet("z"), nil); err == nil {
		t.Fatal("x̄ outside free variables accepted")
	}
}

func TestAdviseNoopWhenAlreadyControlled(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	adv, err := Advise(cat.Access, q, query.NewVarSet("p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Entries) != 0 {
		t.Errorf("already-controlled query got advice: %v", adv.Entries)
	}
}

// TestAnalyzeUnion: the disjunction rule controls a union only by sets
// that control every disjunct, and the prepared union agrees with naive
// evaluation.
func TestAnalyzeUnion(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 5 time 1
access S(a -> *) limit 5 time 1
`)
	q := mustQ(t, "Q(x, y) := R(x, y) or S(x, y)")
	res, err := NewAnalyzer(cat.Access).AnalyzeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Both disjuncts keyed on the first head var: the union is controlled
	// by {x}.
	if !res.Family().Controls(query.NewVarSet("x")) {
		t.Fatalf("union family = %v", res.Family())
	}
	// Execution agrees with naive evaluation.
	db := relation.NewDatabase(cat.Relational)
	db.MustInsert("R", relation.Ints(1, 10))
	db.MustInsert("R", relation.Ints(2, 20))
	db.MustInsert("S", relation.Ints(1, 30))
	prep, err := NewEngine(store.MustOpen(db, cat.Access)).Prepare(q, query.NewVarSet("x"))
	if err != nil {
		t.Fatal(err)
	}
	fixed := query.Bindings{"x": relation.Int(1)}
	ans, err := prep.Exec(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewTupleSet(0)
	want.Add(relation.Ints(10))
	want.Add(relation.Ints(30))
	if !ans.Tuples.Equal(want) {
		t.Fatalf("union answers = %v", ans.Tuples.Tuples())
	}
	naive, err := eval.Answers(eval.DBSource{DB: db}, q, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Tuples.Equal(naive) {
		t.Fatalf("bounded %v vs naive %v", ans.Tuples.Tuples(), naive.Tuples())
	}
	// A disjunct keyed differently kills the {x} control.
	cat2 := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 5 time 1
access S(b -> *) limit 5 time 1
`)
	res2, err := NewAnalyzer(cat2.Access).AnalyzeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if fam := res2.Family(); len(fam) != 1 || !fam[0].Equal(query.NewVarSet("x", "y")) {
		t.Fatalf("union family = %v, want [{x, y}]", fam)
	}
	if res2.Family().Controls(query.NewVarSet("x")) {
		t.Fatalf("union should need both head vars; family %v", res2.Family())
	}
	if !res2.Family().Controls(query.NewVarSet("x", "y")) {
		t.Fatalf("union should be controlled by the full head; family %v", res2.Family())
	}
}
