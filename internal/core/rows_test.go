package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// drainAll pulls a Rows to exhaustion through the public cursor protocol.
func drainAll(t *testing.T, rows *Rows) *relation.TupleSet {
	t.Helper()
	defer rows.Close()
	out := relation.NewTupleSet(0)
	for rows.Next() {
		out.Add(rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows terminated with %v", err)
	}
	return out
}

// TestRowsMatchesExec is the identity at the heart of the redesign: a
// fully drained cursor and the materializing Exec produce the same
// answers, the same TupleReads and the same witness set.
func TestRowsMatchesExec(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 120, 6, 10, 3)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for p := int64(0); p < 40; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		ans, err := prep.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := prep.Query(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, rows)
		if !got.Equal(ans.Tuples) {
			t.Fatalf("p=%d: rows %v, exec %v", p, got.Tuples(), ans.Tuples.Tuples())
		}
		if rows.Cost().TupleReads != ans.Cost.TupleReads {
			t.Fatalf("p=%d: rows charged %d reads, exec %d", p, rows.Cost().TupleReads, ans.Cost.TupleReads)
		}
		if rows.DQ().Distinct() != ans.DQ.Distinct() {
			t.Fatalf("p=%d: rows witness %d, exec %d", p, rows.DQ().Distinct(), ans.DQ.Distinct())
		}
	}
}

// TestRowsLimitStopsCharging: a limited cursor reads strictly fewer
// tuples than a full drain on a multi-answer binding — LIMIT stops the
// fetches, not just the delivery.
func TestRowsLimitStopsCharging(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 150, 8, 10, 5)
	eng := NewEngine(st)
	q := mustQ(t, q1Src)
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for p := int64(0); p < 80; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		full, err := prep.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tuples.Len() < 2 {
			continue
		}
		rows, err := prep.Query(ctx, fixed, WithLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, rows)
		if got.Len() != 1 {
			t.Fatalf("p=%d: limit 1 delivered %d answers", p, got.Len())
		}
		if !full.Tuples.Contains(got.Tuples()[0]) {
			t.Fatalf("p=%d: limited answer %v not among the full drain's", p, got.Tuples()[0])
		}
		if got, want := rows.Cost().TupleReads, full.Cost.TupleReads; got >= want {
			t.Fatalf("p=%d: limited cursor charged %d reads, full drain %d — early exit saved nothing", p, got, want)
		}
		// First: same single answer for the same charge shape.
		tup, err := prep.First(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Tuples.Contains(tup) {
			t.Fatalf("p=%d: First answer %v not among the full drain's", p, tup)
		}
		return
	}
	t.Fatal("no binding with ≥ 2 answers found; workload too small")
}

// TestRowsEarlyCloseStopsWork: abandoning a cursor mid-stream freezes its
// counters — no reads happen between or after pulls.
func TestRowsEarlyCloseStopsWork(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 150, 8, 10, 5)
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustQ(t, q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for p := int64(0); p < 80; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		full, err := prep.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tuples.Len() < 3 {
			continue
		}
		rows, err := prep.Query(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("p=%d: no first row (err %v)", p, rows.Err())
		}
		afterFirst := rows.Cost().TupleReads
		rows.Close()
		if got := rows.Cost().TupleReads; got != afterFirst {
			t.Fatalf("p=%d: Close performed work: %d reads after close, %d before", p, got, afterFirst)
		}
		if afterFirst >= full.Cost.TupleReads {
			t.Fatalf("p=%d: first row cost %d, full drain %d — nothing deferred", p, afterFirst, full.Cost.TupleReads)
		}
		if rows.Next() {
			t.Fatalf("p=%d: Next succeeded after Close", p)
		}
		return
	}
	t.Fatal("no binding with ≥ 3 answers found; workload too small")
}

// TestFirstNoRows: First on an empty answer set fails with ErrNoRows.
func TestFirstNoRows(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 30, 4, 5, 7)
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustQ(t, q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	// A person id far outside the generated range has no friends.
	_, err = prep.First(context.Background(), query.Bindings{"p": relation.Int(999_999)})
	if !errors.Is(err, ErrNoRows) {
		t.Fatalf("First on empty result: err = %v, want ErrNoRows", err)
	}
	// Engine-level First finds an answer for a populated binding.
	q := mustQ(t, q1Src)
	for p := int64(0); p < 40; p++ {
		ans, err := eng.Answer(q, query.Bindings{"p": relation.Int(p)})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Tuples.Len() == 0 {
			continue
		}
		tup, err := eng.First(context.Background(), q, query.Bindings{"p": relation.Int(p)})
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Tuples.Contains(tup) {
			t.Fatalf("First = %v, not an answer", tup)
		}
		return
	}
	t.Fatal("no populated binding found")
}

// TestRowsMidStreamCancellation: canceling the context between pulls
// terminates the stream with ErrCanceled (wrapping context.Canceled), and
// the answers already delivered stay valid.
func TestRowsMidStreamCancellation(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 150, 8, 10, 5)
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustQ(t, q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 80; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		full, err := prep.Exec(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tuples.Len() < 2 {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := prep.Query(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("p=%d: no first row (err %v)", p, rows.Err())
		}
		first := rows.Tuple()
		cancel()
		if rows.Next() {
			t.Fatalf("p=%d: Next succeeded after cancellation", p)
		}
		if err := rows.Err(); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want ErrCanceled wrapping context.Canceled", p, err)
		}
		if !full.Tuples.Contains(first) {
			t.Fatalf("p=%d: pre-cancellation answer %v invalid", p, first)
		}
		return
	}
	t.Fatal("no binding with ≥ 2 answers found; workload too small")
}

// TestRowsBudgetMidStream: a WithMaxReads budget sized to admit the first
// answer but not the whole drain delivers k rows and then fails with
// ErrBudgetExceeded — the typed taxonomy survives mid-stream.
func TestRowsBudgetMidStream(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 150, 8, 10, 5)
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustQ(t, q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for p := int64(0); p < 80; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		full, err := prep.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tuples.Len() < 2 {
			continue
		}
		// Measure the cost of exactly one answer, then re-run with that
		// budget: the cursor must deliver at least the first answer and
		// fail with ErrBudgetExceeded before finishing the drain.
		probe, err := prep.Query(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !probe.Next() {
			t.Fatalf("p=%d: no first row", p)
		}
		budget := probe.Cost().TupleReads
		probe.Close()
		if budget >= full.Cost.TupleReads {
			continue // one answer already cost the full drain; pick another p
		}
		rows, err := prep.Query(ctx, fixed, WithMaxReads(budget))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		delivered := 0
		for rows.Next() {
			delivered++
		}
		if err := rows.Err(); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("p=%d: err = %v, want ErrBudgetExceeded", p, err)
		}
		if delivered == 0 {
			t.Fatalf("p=%d: budget %d admitted no rows", p, budget)
		}
		if delivered >= full.Tuples.Len() {
			t.Fatalf("p=%d: delivered all %d answers despite the budget", p, delivered)
		}
		return
	}
	t.Fatal("no suitable binding found; workload too small")
}

// TestUnionDedupOrderIndependence: a prepared disjunction streams a
// duplicate-free answer set that is independent of disjunct order, even
// when the disjuncts overlap.
func TestUnionDedupOrderIndependence(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 8 time 1
access S(a -> *) limit 8 time 1
`)
	db := relation.NewDatabase(cat.Relational)
	// Overlap: (1,10) is in both relations, (1,20) only in R, (1,30) only
	// in S. Answers project out the fixed x, leaving y.
	db.MustInsert("R", relation.Ints(1, 10))
	db.MustInsert("R", relation.Ints(1, 20))
	db.MustInsert("S", relation.Ints(1, 10))
	db.MustInsert("S", relation.Ints(1, 30))
	eng := NewEngine(store.MustOpen(db, cat.Access))

	want := relation.NewTupleSet(0)
	want.Add(relation.Ints(10))
	want.Add(relation.Ints(20))
	want.Add(relation.Ints(30))

	for _, src := range []string{
		"Q(x, y) := R(x, y) or S(x, y)",
		"Q(x, y) := S(x, y) or R(x, y)",
	} {
		prep, err := eng.Prepare(mustQ(t, src), query.NewVarSet("x"))
		if err != nil {
			t.Fatal(err)
		}
		fixed := query.Bindings{"x": relation.Int(1)}
		rows, err := prep.Query(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []relation.Tuple
		got := relation.NewTupleSet(0)
		for rows.Next() {
			streamed = append(streamed, rows.Tuple())
			got.Add(rows.Tuple())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if len(streamed) != got.Len() {
			t.Fatalf("%s: stream yielded %d tuples, %d distinct — cross-disjunct dedup failed", src, len(streamed), got.Len())
		}
		if !got.Equal(want) {
			t.Fatalf("%s: stream = %v, want %v", src, streamed, want.Tuples())
		}
		// Both orders drain both disjuncts fully: identical reads.
		if n := rows.Cost().TupleReads; n != 4 {
			t.Fatalf("%s: charged %d reads, want 4", src, n)
		}
		// The drained stream matches the materialized answer.
		ans, err := prep.Exec(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ans.Tuples) {
			t.Fatalf("%s: stream %v, Exec %v", src, streamed, ans.Tuples.Tuples())
		}
	}
}

// TestUnionEarlyTermination: a consumer that stops after the first
// disjunct's answer never opens the second disjunct's cursor.
func TestUnionEarlyTermination(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 8 time 1
access S(a -> *) limit 8 time 1
`)
	db := relation.NewDatabase(cat.Relational)
	db.MustInsert("R", relation.Ints(1, 10))
	db.MustInsert("S", relation.Ints(1, 30))
	eng := NewEngine(store.MustOpen(db, cat.Access))
	prep, err := eng.Prepare(mustQ(t, "Q(x, y) := R(x, y) or S(x, y)"), query.NewVarSet("x"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.Query(context.Background(), query.Bindings{"x": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first answer: %v", rows.Err())
	}
	if n := rows.Cost().TupleReads; n != 1 {
		t.Fatalf("early-terminated union charged %d reads, want 1 (second disjunct must not run)", n)
	}
}

// TestRowsAllIterator: the range-over-func adapter delivers the same
// answers as the manual Next loop and closes the cursor.
func TestRowsAllIterator(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 60, 5, 8, 3)
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustQ(t, q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fixed := query.Bindings{"p": relation.Int(1)}
	ans, err := prep.Exec(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.Query(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	got := relation.NewTupleSet(0)
	for tu, err := range rows.All() {
		if err != nil {
			t.Fatal(err)
		}
		got.Add(tu)
	}
	if !got.Equal(ans.Tuples) {
		t.Fatalf("All() = %v, Exec = %v", got.Tuples(), ans.Tuples.Tuples())
	}
	if rows.Next() {
		t.Fatal("cursor still live after All() completed")
	}
}

// TestRowsCancellationWithBufferedAnswers: a single-fetch plan buffers
// its whole answer group on the first pull — cancellation must still
// terminate the cursor on the next Next call, even though no further
// store access would have noticed it.
func TestRowsCancellationWithBufferedAnswers(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 80, 8, 5, 5)
	eng := NewEngine(st)
	// One atom, one fetch: every answer streams from the fetched group.
	prep, err := eng.Prepare(mustQ(t, "Qf(p, y) := friend(p, y)"), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 40; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		full, err := prep.Exec(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tuples.Len() < 2 {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := prep.Query(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("p=%d: no first row (err %v)", p, rows.Err())
		}
		cancel()
		if rows.Next() {
			t.Fatalf("p=%d: Next delivered a buffered answer after cancellation", p)
		}
		if err := rows.Err(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("p=%d: err = %v, want ErrCanceled", p, err)
		}
		return
	}
	t.Fatal("no binding with ≥ 2 friends found")
}

// TestRowsLimitReachedBeatsCancellation: once the limit is satisfied,
// the protocol-mandated final Next is a clean stop (Err nil) even if the
// context has since expired — Exec and the cursor protocol must agree.
func TestRowsLimitReachedBeatsCancellation(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 80, 8, 5, 5)
	eng := NewEngine(st)
	prep, err := eng.Prepare(mustQ(t, q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 40; p++ {
		fixed := query.Bindings{"p": relation.Int(p)}
		full, err := prep.Exec(context.Background(), fixed)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tuples.Len() < 1 {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := prep.Query(ctx, fixed, WithLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("p=%d: no first row (err %v)", p, rows.Err())
		}
		cancel() // expires between the last answer and the final Next
		if rows.Next() {
			t.Fatalf("p=%d: Next delivered past the limit", p)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("p=%d: hit limit reported %v, want nil (clean stop)", p, err)
		}
		return
	}
	t.Fatal("no populated binding found")
}
