package eval

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

func socialDB(t *testing.T) *relation.Database {
	t.Helper()
	s := relation.MustSchema(
		relation.MustRelSchema("person", "id", "name", "city"),
		relation.MustRelSchema("friend", "id1", "id2"),
	)
	db := relation.NewDatabase(s)
	db.MustInsert("person", relation.NewTuple(relation.Int(1), relation.Str("ann"), relation.Str("NYC")))
	db.MustInsert("person", relation.NewTuple(relation.Int(2), relation.Str("bob"), relation.Str("NYC")))
	db.MustInsert("person", relation.NewTuple(relation.Int(3), relation.Str("cal"), relation.Str("LA")))
	db.MustInsert("friend", relation.Ints(1, 2))
	db.MustInsert("friend", relation.Ints(1, 3))
	db.MustInsert("friend", relation.Ints(2, 3))
	return db
}

func mustQuery(t *testing.T, src string) *query.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAnswersQ1(t *testing.T) {
	db := socialDB(t)
	q := mustQuery(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	got, err := Answers(DBSource{db}, q, query.Bindings{"p": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Person 1's friends are 2 (bob, NYC) and 3 (cal, LA): only bob matches.
	if got.Len() != 1 || !got.Contains(relation.NewTuple(relation.Str("bob"))) {
		t.Fatalf("answers = %v", got.Tuples())
	}
}

func TestTruthConnectives(t *testing.T) {
	db := socialDB(t)
	src := DBSource{db}
	cases := []struct {
		f    string
		want bool
	}{
		{"exists x (friend(1, x))", true},
		{"exists x (friend(3, x))", false},
		{"forall x, y (friend(x, y) implies exists n, c (person(y, n, c)))", true},
		{"forall x, y (friend(x, y) implies friend(y, x))", false},
		{"not friend(3, 1)", true},
		{"friend(1, 2) and friend(2, 3)", true},
		{"friend(1, 2) and friend(2, 1)", false},
		{"friend(2, 1) or friend(1, 2)", true},
		{"true", true},
		{"false implies friend(9, 9)", true},
		{"exists x (x = 1 and friend(x, 2))", true},
		{"exists x (x = 'ann' and exists i, c (person(i, x, c)))", true},
		{"exists x (x != x)", false},
	}
	for _, c := range cases {
		f, err := parser.ParseFormula(c.f)
		if err != nil {
			t.Fatalf("%q: %v", c.f, err)
		}
		dom, err := Domain(src, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Truth(src, f, query.Bindings{}, dom)
		if err != nil {
			t.Fatalf("%q: %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestTruthUnboundVariable(t *testing.T) {
	db := socialDB(t)
	f, _ := parser.ParseFormula("friend(x, y)")
	if _, err := Truth(DBSource{db}, f, query.Bindings{"x": relation.Int(1)}, nil); err == nil {
		t.Error("unbound variable accepted")
	}
}

// The CQ fast path and the generic FO enumeration must agree.
func TestAnswersCQAgreesWithFO(t *testing.T) {
	db := socialDB(t)
	src := DBSource{db}
	queries := []string{
		"Q(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))",
		"Q(x, y) := friend(x, y)",
		"Q(x) := exists y (friend(x, y) and friend(y, x))",
		"Q(n) := exists i (person(i, n, 'NYC') and exists j (friend(i, j)))",
	}
	for _, srcText := range queries {
		q := mustQuery(t, srcText)
		cq, ok := query.AsCQ(q)
		if !ok {
			t.Fatalf("%q should be CQ", srcText)
		}
		fast, err := AnswersCQ(src, cq, nil)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := answersFO(src, q)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(slow) {
			t.Errorf("%q: CQ %v vs FO %v", srcText, fast.Tuples(), slow.Tuples())
		}
	}
}

// Randomized databases: the CQ evaluator must agree with FO enumeration on
// a fixed query corpus.
func TestAnswersCQAgreesWithFOQuick(t *testing.T) {
	s := relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "a", "b"),
	)
	queries := []string{
		"Q(x) := exists y (R(x, y) and S(y, x))",
		"Q(x, y) := R(x, y) and S(x, y)",
		"Q(x) := exists y, z (R(x, y) and R(y, z))",
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		db := relation.NewDatabase(s)
		for i := 0; i < 12; i++ {
			db.MustInsert("R", relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(4))))
			db.MustInsert("S", relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(4))))
		}
		src := DBSource{db}
		for _, qt := range queries {
			q := mustQuery(t, qt)
			cq, _ := query.AsCQ(q)
			fast, err := AnswersCQ(src, cq, nil)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := answersFO(src, q)
			if err != nil {
				t.Fatal(err)
			}
			if !fast.Equal(slow) {
				t.Fatalf("trial %d %q: %v vs %v", trial, qt, fast.Tuples(), slow.Tuples())
			}
		}
	}
}

func TestAnswersUCQ(t *testing.T) {
	db := socialDB(t)
	u, err := parser.ParseUCQ("Q(x) :- friend(1, x) union Q(x) :- friend(x, 3)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnswersUCQ(DBSource{db}, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// friend(1,·) gives {2,3}; friend(·,3) gives {1,2}.
	want := relation.NewTupleSet(0)
	want.Add(relation.Ints(1))
	want.Add(relation.Ints(2))
	want.Add(relation.Ints(3))
	if !got.Equal(want) {
		t.Errorf("UCQ answers = %v", got.Tuples())
	}
}

func TestHolds(t *testing.T) {
	db := socialDB(t)
	q := mustQuery(t, "Q() := exists x, y (friend(x, y))")
	ok, err := Holds(DBSource{db}, q)
	if err != nil || !ok {
		t.Fatalf("Holds = %v, %v", ok, err)
	}
	q2 := mustQuery(t, "Q() := exists x (friend(x, x))")
	ok, err = Holds(DBSource{db}, q2)
	if err != nil || ok {
		t.Fatalf("Holds = %v, %v", ok, err)
	}
	q3 := mustQuery(t, "Q(x, y) := friend(x, y)")
	if _, err := Holds(DBSource{db}, q3); err == nil {
		t.Error("Holds accepted data-selecting query")
	}
}

// Naive evaluation through a store is charged for its scans: the counted
// reads must be at least |D| for a query touching every relation.
func TestStoreSourceCountsScans(t *testing.T) {
	db := socialDB(t)
	st := store.MustOpen(db, access.New(db.Schema()))
	q := mustQuery(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	es := &store.ExecStats{}
	_, err := Answers(StoreSource{DB: st, Stats: es}, q, query.Bindings{"p": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if c := es.Counters; c.Scans == 0 || c.TupleReads < int64(db.Rel("friend").Len()) {
		t.Errorf("naive evaluation not charged: %s", c)
	}
}

func TestBooleanAnswerShape(t *testing.T) {
	db := socialDB(t)
	q := mustQuery(t, "Q() := exists x, y (friend(x, y))")
	ans, err := Answers(DBSource{db}, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || len(ans.Tuples()[0]) != 0 {
		t.Errorf("boolean true answer = %v", ans.Tuples())
	}
}
