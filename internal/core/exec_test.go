package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// buildSocial populates a small Facebook-style database: nPersons persons
// round-robin over three cities, each with up to maxFriends friends,
// nRestr restaurants, and visits.
func buildSocial(t testing.TB, cat *parser.Catalog, nPersons, maxFriends, nRestr int, seed int64) *store.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase(cat.Relational)
	cities := []string{"NYC", "LA", "SF"}
	for i := 0; i < nPersons; i++ {
		db.MustInsert("person", relation.NewTuple(
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("p%d", i)),
			relation.Str(cities[i%len(cities)]),
		))
		k := rng.Intn(maxFriends + 1)
		for j := 0; j < k; j++ {
			db.Insert("friend", relation.Ints(int64(i), int64(rng.Intn(nPersons)))) //nolint:errcheck // duplicates fine
		}
	}
	ratings := []string{"A", "B"}
	for r := 0; r < nRestr; r++ {
		db.MustInsert("restr", relation.NewTuple(
			relation.Int(int64(1000+r)),
			relation.Str(fmt.Sprintf("r%d", r)),
			relation.Str(cities[r%len(cities)]),
			relation.Str(ratings[r%2]),
		))
	}
	// Visits: each person visits a few restaurants; at most one visit per
	// person per date so the FD id,yy,mm,dd -> rid holds.
	for i := 0; i < nPersons; i++ {
		for v := 0; v < 3; v++ {
			db.Insert("visit", relation.NewTuple( //nolint:errcheck // duplicates fine
				relation.Int(int64(i)),
				relation.Int(int64(1000+rng.Intn(nRestr))),
				relation.Int(int64(2012+v)),
				relation.Int(int64(1+rng.Intn(3))),
				relation.Int(int64(1+rng.Intn(5))),
			))
		}
	}
	st, err := store.Open(db, cat.Access)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const embeddedCatalog = facebookCatalog + `
access restr(city -> *) limit 50 time 1
access visit(yy -> yy, mm, dd) limit 366 time 1
fd visit: id, yy, mm, dd -> rid time 1
`

func TestBoundedEvalQ1MatchesNaive(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 60, 6, 10, 1)
	eng := NewEngine(st)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")

	for p := int64(0); p < 10; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		ans, err := eng.Answer(q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := eval.Answers(eval.DBSource{DB: st.Data()}, q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Tuples.Equal(naive) {
			t.Fatalf("p=%d: bounded %v vs naive %v", p, ans.Tuples.Tuples(), naive.Tuples())
		}
		// Measured reads within the static bound.
		if ans.Cost.TupleReads > ans.Plan.Bound.Reads {
			t.Errorf("p=%d: reads %d exceed bound %d", p, ans.Cost.TupleReads, ans.Plan.Bound.Reads)
		}
		// No scans: the whole point.
		if ans.Cost.Scans != 0 {
			t.Errorf("p=%d: bounded plan scanned", p)
		}
		// Witness property: Q(ā, D_Q) = Q(ā, D).
		dq := ans.DQ.Database(st.Schema())
		overDQ, err := eval.Answers(eval.DBSource{DB: dq}, q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !overDQ.Equal(naive) {
			t.Fatalf("p=%d: D_Q is not a witness: %v vs %v", p, overDQ.Tuples(), naive.Tuples())
		}
	}
}

func TestBoundedEvalScaleIndependence(t *testing.T) {
	// The defining property: tuple reads do not grow with |D|.
	cat := mustCatalog(t, facebookCatalog)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	var reads []int64
	for _, n := range []int{50, 200, 800} {
		st := buildSocial(t, cat, n, 5, 10, 7)
		eng := NewEngine(st)
		ans, err := eng.Answer(q, query.Bindings{"p": relation.Int(3)})
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, ans.Cost.TupleReads)
	}
	// maxFriends=5, so reads ≤ 5 (friends) + 5 (person probes) at any size.
	for i, r := range reads {
		if r > 10 {
			t.Errorf("size step %d: %d reads, want ≤ 10", i, r)
		}
	}
}

func TestBoundedEvalQ3Embedded(t *testing.T) {
	cat := mustCatalog(t, embeddedCatalog)
	st := buildSocial(t, cat, 40, 4, 12, 3)
	if err := st.Conforms(); err != nil {
		t.Fatalf("workload does not conform: %v", err)
	}
	eng := NewEngine(st)
	q := mustQ(t, `Q3(rn, p, yy) := exists id, rid, pn, mm, dd (friend(p, id) and visit(id, rid, yy, mm, dd) and person(id, pn, 'NYC') and restr(rid, rn, 'NYC', 'A'))`)
	for p := int64(0); p < 8; p++ {
		fixed := query.Bindings{"p": relation.Int(p), "yy": relation.Int(2013)}
		ans, err := eng.Answer(q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := eval.Answers(eval.DBSource{DB: st.Data()}, q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Tuples.Equal(naive) {
			t.Fatalf("p=%d: bounded %v vs naive %v", p, ans.Tuples.Tuples(), naive.Tuples())
		}
		if ans.Cost.Scans != 0 {
			t.Error("embedded plan scanned")
		}
	}
}

func TestExecDisjunction(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 10 time 1
access S(a -> *) limit 10 time 1
`)
	db := relation.NewDatabase(cat.Relational)
	db.MustInsert("R", relation.Ints(1, 10))
	db.MustInsert("S", relation.Ints(1, 20))
	db.MustInsert("S", relation.Ints(1, 10))
	st := store.MustOpen(db, cat.Access)
	eng := NewEngine(st)
	q := mustQ(t, "Q(x, y) := R(x, y) or S(x, y)")
	ans, err := eng.Answer(q, query.Bindings{"x": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewTupleSet(0)
	want.Add(relation.Ints(10))
	want.Add(relation.Ints(20))
	if !ans.Tuples.Equal(want) {
		t.Fatalf("disjunction answers = %v", ans.Tuples.Tuples())
	}
}

func TestExecSafeNegation(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 10 time 1
`)
	db := relation.NewDatabase(cat.Relational)
	db.MustInsert("R", relation.Ints(1, 10))
	db.MustInsert("R", relation.Ints(1, 20))
	db.MustInsert("S", relation.Ints(1, 20))
	st := store.MustOpen(db, cat.Access)
	eng := NewEngine(st)
	q := mustQ(t, "Q(x, y) := R(x, y) and not S(x, y)")
	ans, err := eng.Answer(q, query.Bindings{"x": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Tuples.Len() != 1 || !ans.Tuples.Contains(relation.Ints(10)) {
		t.Fatalf("safe negation answers = %v", ans.Tuples.Tuples())
	}
}

func TestExecUniversal(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b, c)
relation T(a, b, c)
access R(a -> *) limit 10 time 1
access S(a, b -> *) limit 10 time 1
`)
	db := relation.NewDatabase(cat.Relational)
	db.MustInsert("R", relation.Ints(1, 10)) // all S(1,10,·) ⊆ T: qualifies
	db.MustInsert("R", relation.Ints(1, 20)) // S(1,20,5) ∉ T: fails
	db.MustInsert("R", relation.Ints(1, 30)) // no S tuples: vacuously true
	db.MustInsert("S", relation.Ints(1, 10, 5))
	db.MustInsert("S", relation.Ints(1, 10, 6))
	db.MustInsert("S", relation.Ints(1, 20, 5))
	db.MustInsert("T", relation.Ints(1, 10, 5))
	db.MustInsert("T", relation.Ints(1, 10, 6))
	st := store.MustOpen(db, cat.Access)
	eng := NewEngine(st)
	q := mustQ(t, "Q(x, y) := R(x, y) and forall z (S(x, y, z) implies T(x, y, z))")
	ans, err := eng.Answer(q, query.Bindings{"x": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewTupleSet(0)
	want.Add(relation.Ints(10))
	want.Add(relation.Ints(30))
	if !ans.Tuples.Equal(want) {
		t.Fatalf("universal answers = %v", ans.Tuples.Tuples())
	}
	// Against the naive oracle too.
	naive, err := eval.Answers(eval.DBSource{DB: st.Data()}, q, query.Bindings{"x": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Tuples.Equal(naive) {
		t.Fatalf("bounded %v vs naive %v", ans.Tuples.Tuples(), naive.Tuples())
	}
}

func TestExecRequiresControllingValues(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 3, 5, 5)
	eng := NewEngine(st)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	if _, err := eng.Answer(q, query.Bindings{"name": relation.Str("p1")}); err == nil {
		t.Fatal("Answer without controlling values accepted")
	}
	// A prepared plan executed without its controlling value must fail
	// loudly.
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec(context.Background(), query.Bindings{}); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("Exec without controlling binding: err = %v, want ErrInvalidQuery", err)
	}
}

// Randomized: on random conforming social graphs and a corpus of
// controlled queries, bounded evaluation must agree with the naive oracle,
// stay within its static bound, and produce a valid witness D_Q.
func TestBoundedEvalAgreesWithNaiveQuick(t *testing.T) {
	cat := mustCatalog(t, embeddedCatalog)
	corpus := []struct {
		src   string
		fixed []string
	}{
		{"QA(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))", []string{"p"}},
		{"QB(p, id) := friend(p, id)", []string{"p"}},
		{"QC(p, rn) := exists id, rid, pn (friend(p, id) and visit(id, rid, 2013, 1, 1) and person(id, pn, 'NYC') and restr(rid, rn, 'NYC', 'A'))", []string{"p"}},
		{"QD(p, name) := exists id (friend(p, id) and person(id, name, 'NYC') and not friend(id, p))", []string{"p"}},
	}
	for trial := 0; trial < 6; trial++ {
		st := buildSocial(t, cat, 30+5*trial, 4, 10, int64(100+trial))
		eng := NewEngine(st)
		for _, c := range corpus {
			q := mustQ(t, c.src)
			for probe := int64(0); probe < 5; probe++ {
				fixed := query.Bindings{}
				for _, v := range c.fixed {
					fixed[v] = relation.Int(probe * 3)
				}
				ans, err := eng.Answer(q, fixed)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, q.Name, err)
				}
				naive, err := eval.Answers(eval.DBSource{DB: st.Data()}, q, fixed)
				if err != nil {
					t.Fatal(err)
				}
				if !ans.Tuples.Equal(naive) {
					t.Fatalf("trial %d %s probe %d: bounded %v vs naive %v",
						trial, q.Name, probe, ans.Tuples.Tuples(), naive.Tuples())
				}
				if ans.Cost.TupleReads > ans.Plan.Bound.Reads {
					t.Errorf("trial %d %s: reads %d > bound %d", trial, q.Name, ans.Cost.TupleReads, ans.Plan.Bound.Reads)
				}
				if ans.DQ.Distinct() > int(ans.Plan.Bound.Reads) {
					t.Errorf("trial %d %s: |DQ| %d > bound %d", trial, q.Name, ans.DQ.Distinct(), ans.Plan.Bound.Reads)
				}
			}
		}
	}
}

func TestPlanDescribe(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 10, 2, 3, 9)
	eng := NewEngine(st)
	eng.SetOptimizer(OptimizerOff)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	desc := prep.Plan().Describe()
	if len(desc) == 0 {
		t.Fatal("empty plan description")
	}
	for _, want := range []string{"physical plan", "order:", "IndexLookup", "friend", "person", "derived from:"} {
		if !containsSubstring(desc, want) {
			t.Errorf("plan description missing %q:\n%s", want, desc)
		}
	}
}

func containsSubstring(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
