package qdsi

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
)

func schemaR() *relation.Schema {
	return relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
}

func mustCQ(t *testing.T, src string) *query.CQ {
	t.Helper()
	q, err := parser.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustQuery(t *testing.T, src string) *query.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestWitnessCheck(t *testing.T) {
	d := relation.NewDatabase(schemaR())
	d.MustInsert("R", relation.Ints(1, 2))
	d.MustInsert("R", relation.Ints(3, 4))
	q := mustQuery(t, "Q(x) := exists y (R(x, y))")

	good := relation.NewDatabase(schemaR())
	good.MustInsert("R", relation.Ints(1, 2))
	good.MustInsert("R", relation.Ints(3, 4))
	ok, err := WitnessCheck(q, d, good)
	if err != nil || !ok {
		t.Fatalf("full copy should witness: %v %v", ok, err)
	}
	bad := relation.NewDatabase(schemaR())
	bad.MustInsert("R", relation.Ints(1, 2))
	ok, err = WitnessCheck(q, d, bad)
	if err != nil || ok {
		t.Fatalf("half copy should not witness: %v %v", ok, err)
	}
}

func TestDecideCQMinimumCover(t *testing.T) {
	d := relation.NewDatabase(schemaR())
	d.MustInsert("R", relation.Ints(1, 1))
	d.MustInsert("R", relation.Ints(1, 2))
	d.MustInsert("R", relation.Ints(2, 1))
	q := mustCQ(t, "Q(x) :- R(x, y)")
	// Answers {1, 2}: one tuple per answer needed; min witness = 2.
	dec, err := DecideCQ(q, d, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.InSQ {
		t.Fatal("M=1 should not suffice")
	}
	dec, err = DecideCQ(q, d, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InSQ || dec.WitnessSize != 2 {
		t.Fatalf("M=2: InSQ=%v size=%d", dec.InSQ, dec.WitnessSize)
	}
	// The witness must actually witness.
	ok, err := WitnessCheck(mustQuery(t, "Q(x) := exists y (R(x, y))"), d, dec.Witness)
	if err != nil || !ok {
		t.Fatalf("returned witness fails the witness check: %v %v", ok, err)
	}
}

func TestDecideCQSharedTuples(t *testing.T) {
	// Images can share tuples: path query over a star.
	d := relation.NewDatabase(schemaR())
	d.MustInsert("R", relation.Ints(1, 0))
	d.MustInsert("R", relation.Ints(0, 2))
	d.MustInsert("R", relation.Ints(0, 3))
	q := mustCQ(t, "Q(x, y) :- R(x, z), R(z, y)")
	// Answers: (1,2), (1,3). Both images share (1,0): min witness 3.
	dec, err := DecideCQ(q, d, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InSQ || dec.WitnessSize != 3 {
		t.Fatalf("InSQ=%v size=%d", dec.InSQ, dec.WitnessSize)
	}
	if dec2, _ := DecideCQ(q, d, 2, Options{}); dec2.InSQ {
		t.Fatal("M=2 should fail")
	}
}

func TestDecideCQEmptyAnswers(t *testing.T) {
	d := relation.NewDatabase(schemaR())
	d.MustInsert("R", relation.Ints(1, 2))
	q := mustCQ(t, "Q(x) :- R(x, x)")
	dec, err := DecideCQ(q, d, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InSQ || dec.Witness.Size() != 0 {
		t.Fatalf("empty answers: InSQ=%v |W|=%d", dec.InSQ, dec.Witness.Size())
	}
}

func TestDecideBooleanCQ(t *testing.T) {
	d := relation.NewDatabase(schemaR())
	for i := int64(0); i < 50; i++ {
		d.MustInsert("R", relation.Ints(i, i+1))
	}
	// True sentence: witness of size ≤ ‖Q‖ = 2.
	q := mustCQ(t, "Q() :- R(x, y), R(y, z)")
	dec, err := DecideBooleanCQ(q, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InSQ || dec.WitnessSize > 2 {
		t.Fatalf("boolean true: InSQ=%v size=%d", dec.InSQ, dec.WitnessSize)
	}
	// False sentence: ∅ witnesses.
	q2 := mustCQ(t, "Q() :- R(x, x)")
	dec, err = DecideBooleanCQ(q2, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InSQ || dec.Witness.Size() != 0 {
		t.Fatalf("boolean false: InSQ=%v", dec.InSQ)
	}
	// Non-boolean rejected.
	if _, err := DecideBooleanCQ(mustCQ(t, "Q(x) :- R(x, y)"), d, 5); err == nil {
		t.Error("data-selecting query accepted by DecideBooleanCQ")
	}
}

// The O(1) claim of Corollary 3.2: the Boolean-CQ decision does not search
// the database beyond finding one homomorphism image — its witness size is
// bounded by ‖Q‖ at every database size.
func TestBooleanCQWitnessBoundedAtAllSizes(t *testing.T) {
	q := mustCQ(t, "Q() :- R(x, y), R(y, z)")
	for _, n := range []int64{10, 100, 1000} {
		d := relation.NewDatabase(schemaR())
		for i := int64(0); i < n; i++ {
			d.MustInsert("R", relation.Ints(i, i+1))
		}
		dec, err := DecideBooleanCQ(q, d, q.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !dec.InSQ || dec.WitnessSize > q.Size() {
			t.Fatalf("n=%d: InSQ=%v size=%d", n, dec.InSQ, dec.WitnessSize)
		}
	}
}

func TestDecideFOAgainstCQ(t *testing.T) {
	// Cross-validation: on small random instances the generic FO subset
	// search and the CQ set-cover decider must agree.
	rng := rand.New(rand.NewSource(21))
	cqQ := mustCQ(t, "Q(x) :- R(x, y)")
	foQ := mustQuery(t, "Q(x) := exists y (R(x, y))")
	for trial := 0; trial < 10; trial++ {
		d := relation.NewDatabase(schemaR())
		for i := 0; i < 5; i++ {
			d.Insert("R", relation.Ints(int64(rng.Intn(3)), int64(rng.Intn(3)))) //nolint:errcheck
		}
		for m := 0; m <= d.Size(); m++ {
			cqDec, err := DecideCQ(cqQ, d, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			foDec, err := DecideFO(foQ, d, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cqDec.InSQ != foDec.InSQ {
				t.Fatalf("trial %d m=%d: CQ=%v FO=%v (|D|=%d)", trial, m, cqDec.InSQ, foDec.InSQ, d.Size())
			}
		}
	}
}

func TestDecideFONonMonotone(t *testing.T) {
	// ¬∃x R(x,x) over a database with a loop: Q(D) = false, but the empty
	// subset makes it true — the witness must keep a loop tuple.
	d := relation.NewDatabase(schemaR())
	d.MustInsert("R", relation.Ints(1, 1))
	d.MustInsert("R", relation.Ints(2, 3))
	q := mustQuery(t, "Q() := not (exists x (R(x, x)))")
	dec, err := DecideFO(q, d, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.InSQ {
		t.Fatal("∅ should not witness a false universal sentence here")
	}
	dec, err = DecideFO(q, d, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.InSQ || dec.WitnessSize != 1 {
		t.Fatalf("M=1: InSQ=%v size=%d", dec.InSQ, dec.WitnessSize)
	}
	if !dec.Witness.Rel("R").Contains(relation.Ints(1, 1)) {
		t.Error("witness must contain the loop tuple")
	}
}

// Proposition 3.6: some Boolean FO queries fully use their input. The
// query "R is nonempty and every edge target has an outgoing edge" on an
// n-cycle has no witness smaller than n.
func TestFullyUsesInput(t *testing.T) {
	q := mustQuery(t, "Q() := (exists x, y (R(x, y))) and (forall x, y (R(x, y) implies exists z (R(y, z))))")
	for _, n := range []int{3, 4, 5} {
		d := relation.NewDatabase(schemaR())
		for i := 0; i < n; i++ {
			d.MustInsert("R", relation.Ints(int64(i), int64((i+1)%n)))
		}
		min, err := MinimalWitnessFO(q, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if min != n {
			t.Errorf("cycle of %d: minimal witness %d, want %d", n, min, n)
		}
	}
}

func TestDecideFOBudget(t *testing.T) {
	d := relation.NewDatabase(schemaR())
	for i := int64(0); i < 18; i++ {
		d.MustInsert("R", relation.Ints(i, i))
	}
	q := mustQuery(t, "Q(x) := R(x, x)")
	_, err := DecideFO(q, d, 9, Options{MaxChecks: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestQSICQ(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Q(x) :- R(x, y)", false},              // non-trivial, data-selecting
		{"Q() :- R(x, y)", true},                // Boolean
		{"Q(1) :- R(x, y)", true},               // constant head
		{"Q(x) :- R(x, y), x = 1", true},        // head pinned to constant
		{"Q(x) :- R(x, y), x = 1, x = 2", true}, // unsatisfiable
		{"Q(x, y) :- R(x, y)", false},           // identity
	}
	for _, c := range cases {
		got := QSICQ(mustCQ(t, c.src))
		if got.ScaleIndependent != c.want {
			t.Errorf("QSICQ(%q) = %v (%s), want %v", c.src, got.ScaleIndependent, got.Reason, c.want)
		}
	}
	// Boolean: MinM = ‖Q‖.
	r := QSICQ(mustCQ(t, "Q() :- R(x, y), R(y, z)"))
	if r.MinM != 2 {
		t.Errorf("MinM = %d", r.MinM)
	}
}

func TestQSIFOUndecidable(t *testing.T) {
	if err := QSIFO(mustQuery(t, "Q() := exists x, y (R(x, y))"), 3); !errors.Is(err, ErrUndecidable) {
		t.Fatalf("QSIFO = %v", err)
	}
}

func TestDecideUCQ(t *testing.T) {
	s := relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "a", "b"),
	)
	d := relation.NewDatabase(s)
	d.MustInsert("R", relation.Ints(1, 2))
	d.MustInsert("S", relation.Ints(1, 2)) // same answer from either disjunct
	u, err := parser.ParseUCQ("Q(x) :- R(x, y) union Q(x) :- S(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecideUCQ(u, d, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Answer {1} is covered by a single tuple from either relation.
	if !dec.InSQ || dec.WitnessSize != 1 {
		t.Fatalf("UCQ: InSQ=%v size=%d", dec.InSQ, dec.WitnessSize)
	}
}

// Adversarial set-cover shape: k "element" answers with overlapping
// images; the exact solver must beat the naive one-image-per-answer count.
func TestDecideCQBeatsGreedyShape(t *testing.T) {
	// R(x, y): answers are x-values; image for answer x is any (x, y).
	// Construct hub tuples so one y is shared — irrelevant for this query
	// shape, but verify exactness against brute force FO search.
	rng := rand.New(rand.NewSource(33))
	cqQ := mustCQ(t, "Q(x, y) :- R(x, z), R(z, y)")
	foQ := mustQuery(t, "Q(x, y) := exists z (R(x, z) and R(z, y))")
	for trial := 0; trial < 6; trial++ {
		d := relation.NewDatabase(schemaR())
		for i := 0; i < 5; i++ {
			d.Insert("R", relation.Ints(int64(rng.Intn(3)), int64(rng.Intn(3)))) //nolint:errcheck
		}
		if d.Size() == 0 {
			continue
		}
		for m := 0; m <= d.Size(); m++ {
			cqDec, err := DecideCQ(cqQ, d, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			foDec, err := DecideFO(foQ, d, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cqDec.InSQ != foDec.InSQ {
				t.Fatalf("trial %d m=%d: CQ=%v FO=%v", trial, m, cqDec.InSQ, foDec.InSQ)
			}
		}
	}
}

func TestDecideDeltaQSISmall(t *testing.T) {
	d := relation.NewDatabase(schemaR())
	d.MustInsert("R", relation.Ints(1, 1))
	d.MustInsert("R", relation.Ints(2, 2))
	q := mustQuery(t, "Q(x) := exists y (R(x, y))")
	pool := map[string][]relation.Tuple{"R": {relation.Ints(1, 5), relation.Ints(3, 3)}}
	updates := SingleTupleUpdates(d, pool)
	if len(updates) != 4 { // 2 insertions + 2 deletions
		t.Fatalf("updates = %d", len(updates))
	}
	// With M = |D| the delta is always computable (use all of D).
	ok, _, err := DecideDeltaQSI(q, d, updates, d.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M=|D| must suffice")
	}
	// Deletion of R(1,1) is the crux: with D_Q = ∅ the computed delta is
	// empty, but answer 1 disappears from Q(D). So M=0 must fail.
	ok, _, err = DecideDeltaQSI(q, d, updates, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("M=0 must fail for deletions")
	}
}

// Insert-only workloads: the delta of a monotone query needs only the
// witness tuples for genuinely new answers.
func TestDecideDeltaQSIInsertOnly(t *testing.T) {
	s := relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "b"),
	)
	d := relation.NewDatabase(s)
	d.MustInsert("R", relation.Ints(1, 10))
	d.MustInsert("S", relation.Ints(10))
	d.MustInsert("S", relation.Ints(20))
	q := mustQuery(t, "Q(x) := exists y (R(x, y) and S(y))")
	// Insertion R(2, 20): the new answer 2 needs S(20) from D: M=1 works.
	updates := []*relation.Update{relation.NewUpdate().Insert("R", relation.Ints(2, 20))}
	ok, _, err := DecideDeltaQSI(q, d, updates, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M=1 should suffice: fetch S(20)")
	}
	ok, _, err = DecideDeltaQSI(q, d, updates, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("M=0 should fail: S(20) must be read")
	}
}

func TestDecideDeltaQSIBudget(t *testing.T) {
	// The full-input cycle query of Proposition 3.6: after deleting one
	// edge the delta is computable only from a D_Q containing the whole
	// cycle, so with M below |D| every subset fails and the enumeration
	// exhausts a small budget.
	d := relation.NewDatabase(schemaR())
	n := int64(10)
	for i := int64(0); i < n; i++ {
		d.MustInsert("R", relation.Ints(i, (i+1)%n))
	}
	q := mustQuery(t, "Q() := (exists x, y (R(x, y))) and (forall x, y (R(x, y) implies exists z (R(y, z))))")
	updates := []*relation.Update{relation.NewUpdate().Delete("R", relation.Ints(0, 1))}
	if _, _, err := DecideDeltaQSI(q, d, updates, 5, Options{MaxChecks: 25}); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
