package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// watchQ1 prepares and watches Q1 for one person on a fresh social store.
func watchQ1(t *testing.T, nPersons int, p int64, opts ...WatchOption) (*Engine, *PreparedQuery, *Live) {
	t.Helper()
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, nPersons, 6, 10, 3)
	eng := NewEngine(st)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := prep.Watch(context.Background(), query.Bindings{"p": relation.Int(p)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, prep, l
}

// newPersonUpdate inserts a fresh NYC person and a friend edge from p.
func newPersonUpdate(p, id int64) *relation.Update {
	u := relation.NewUpdate()
	u.Insert("person", relation.NewTuple(relation.Int(id), relation.Str("w"), relation.Str("NYC")))
	u.Insert("friend", relation.Ints(p, id))
	return u
}

// namedPersonUpdate is newPersonUpdate with a distinct per-id name, so
// every edge contributes its own answer tuple to a watched Q1.
func namedPersonUpdate(p, id int64) *relation.Update {
	u := relation.NewUpdate()
	u.Insert("person", relation.NewTuple(relation.Int(id), relation.Str(fmt.Sprintf("w%d", id)), relation.Str("NYC")))
	u.Insert("friend", relation.Ints(p, id))
	return u
}

func TestWatchMaintainsUnderCommits(t *testing.T) {
	ctx := context.Background()
	eng, prep, l := watchQ1(t, 40, 1)
	defer l.Close()
	fixed := query.Bindings{"p": relation.Int(1)}

	if !l.SupportsDeletions() {
		t.Fatal("Q1 watched for p must support deletion maintenance (body is p-controlled, a fortiori {p,name}-controlled)")
	}
	base := l.Seq()
	u := newPersonUpdate(1, 900_001)
	res, err := eng.Commit(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != base+1 || res.StoreSeq == 0 {
		t.Fatalf("commit seq %d (base %d), store LSN %d", res.Seq, base, res.StoreSeq)
	}
	if res.Watchers != 1 {
		t.Fatalf("commit notified %d watchers, want 1", res.Watchers)
	}
	if res.Maintenance.TupleReads == 0 {
		t.Fatal("maintenance charged no reads — the delta plans did not run")
	}
	ans, err := prep.Exec(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if snap := l.Snapshot(); !snap.Equal(ans.Tuples) {
		t.Fatalf("snapshot %v diverged from fresh exec %v", snap.Tuples(), ans.Tuples.Tuples())
	}
	if !l.Snapshot().Contains(relation.Tuple{relation.Str("w")}) {
		t.Fatal("inserted friend's name did not appear in the live snapshot")
	}

	// Deleting the edge takes the answer away again.
	if _, err := eng.Commit(ctx, u.Inverse()); err != nil {
		t.Fatal(err)
	}
	ans2, err := prep.Exec(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if snap := l.Snapshot(); !snap.Equal(ans2.Tuples) {
		t.Fatal("snapshot diverged after deletion commit")
	}
	if l.Seq() != base+2 {
		t.Fatalf("live folded seq %d, want %d", l.Seq(), base+2)
	}

	// The two deltas stream in order, each within its bound, and the
	// second undoes the first.
	l.Close()
	var ds []Delta
	for d, err := range l.Deltas() {
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	if len(ds) != 2 {
		t.Fatalf("got %d deltas, want 2", len(ds))
	}
	if len(ds[0].Ins) != 1 || len(ds[0].Del) != 0 || len(ds[1].Del) != 1 || len(ds[1].Ins) != 0 {
		t.Fatalf("deltas %+v do not reflect insert-then-delete", ds)
	}
	for _, d := range ds {
		if d.Cost.TupleReads > d.Bound {
			t.Fatalf("delta seq %d charged %d reads over bound %d", d.Seq, d.Cost.TupleReads, d.Bound)
		}
		if d.Reexec {
			t.Fatalf("delta seq %d used re-execution; Q1 maintains by delta plans", d.Seq)
		}
	}
	if c := l.Cost(); c.TupleReads != ds[0].Cost.TupleReads+ds[1].Cost.TupleReads {
		t.Fatalf("cumulative cost %d != sum of delta costs", c.TupleReads)
	}
}

func TestWatchSkipsIrrelevantCommits(t *testing.T) {
	ctx := context.Background()
	eng, _, l := watchQ1(t, 30, 2)
	defer l.Close()
	// restr is not in Q1's body: no delta, no maintenance work.
	u := relation.NewUpdate()
	u.Insert("restr", relation.NewTuple(relation.Int(7777), relation.Str("x"), relation.Str("NYC"), relation.Str("A")))
	res, err := eng.Commit(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Watchers != 0 || res.Maintenance.TupleReads != 0 {
		t.Fatalf("irrelevant commit notified %d watchers, charged %+v", res.Watchers, res.Maintenance)
	}
	l.Close()
	for range l.Deltas() {
		t.Fatal("irrelevant commit produced a delta")
	}
}

func TestWatchNotMaintainableAndReexecFallback(t *testing.T) {
	ctx := context.Background()
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 40, 6, 10, 5)
	eng := NewEngine(st)
	// Negation is not a conjunction of atoms: not incrementally
	// maintainable by delta plans.
	q := mustQ(t, "QN(p, id) := friend(p, id) and not (exists n (person(id, n, 'NYC')))")
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	fixed := query.Bindings{"p": relation.Int(1)}
	if _, err := prep.Watch(ctx, fixed); !errors.Is(err, ErrWatchNotMaintainable) {
		t.Fatalf("watch on a negated body: err = %v, want ErrWatchNotMaintainable", err)
	}
	l, err := prep.Watch(ctx, fixed, WithReexec())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.SupportsDeletions() {
		t.Fatal("re-execution mode has no per-tuple deletion plans")
	}
	// Mixed commits: a non-NYC friend appears (answer appears), then the
	// person moves to NYC via delete+insert (answer disappears).
	u1 := relation.NewUpdate()
	u1.Insert("person", relation.NewTuple(relation.Int(800_001), relation.Str("la"), relation.Str("LA")))
	u1.Insert("friend", relation.Ints(1, 800_001))
	u2 := relation.NewUpdate()
	u2.Delete("person", relation.NewTuple(relation.Int(800_001), relation.Str("la"), relation.Str("LA")))
	u2.Insert("person", relation.NewTuple(relation.Int(800_001), relation.Str("la"), relation.Str("NYC")))
	for _, u := range []*relation.Update{u1, u2} {
		if _, err := eng.Commit(ctx, u); err != nil {
			t.Fatal(err)
		}
		ans, err := prep.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if snap := l.Snapshot(); !snap.Equal(ans.Tuples) {
			t.Fatalf("re-exec snapshot %v diverged from fresh exec %v", snap.Tuples(), ans.Tuples.Tuples())
		}
	}
	l.Close()
	n := 0
	for d, err := range l.Deltas() {
		if err != nil {
			t.Fatal(err)
		}
		if !d.Reexec {
			t.Fatal("re-execution maintainer emitted a non-reexec delta")
		}
		if d.Bound != prep.Plan().Bound.Reads {
			t.Fatalf("re-exec bound %d, want the plan bound %d", d.Bound, prep.Plan().Bound.Reads)
		}
		if d.Cost.TupleReads > d.Bound {
			t.Fatalf("re-exec charged %d reads over bound %d", d.Cost.TupleReads, d.Bound)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("got %d deltas, want 2", n)
	}
}

func TestWatchContextCancelFailsHandle(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 30, 5, 8, 7)
	eng := NewEngine(st)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l, err := prep.Watch(ctx, query.Bindings{"p": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Watchers() != 1 {
		t.Fatalf("registered watchers = %d, want 1", eng.Watchers())
	}
	cancel()
	// The AfterFunc runs asynchronously; consume the stream — it must end
	// with ErrCanceled.
	var terminal error
	for _, err := range l.Deltas() {
		terminal = err
	}
	if !errors.Is(terminal, ErrCanceled) {
		t.Fatalf("delta stream ended with %v, want ErrCanceled", terminal)
	}
	if !errors.Is(l.Err(), ErrCanceled) {
		t.Fatalf("Err() = %v, want ErrCanceled", l.Err())
	}
	// The dead handle left the registry when it failed, before its
	// consumer could see the error; a commit does not bring it back.
	if _, err := eng.Commit(context.Background(), newPersonUpdate(1, 910_000)); err != nil {
		t.Fatal(err)
	}
	if eng.Watchers() != 0 {
		t.Fatalf("dead watcher not pruned: %d registered", eng.Watchers())
	}
}

// TestWatcherRegistryOrder: the registry stays in registration order
// without a per-commit sort — closing a handle in the middle removes
// exactly it, a failed handle is pruned when it fails, and later
// registrations land at the end.
func TestWatcherRegistryOrder(t *testing.T) {
	eng, prep, first := watchQ1(t, 30, 1)
	defer first.Close()
	watch := func(p int64) *Live {
		l, err := prep.Watch(context.Background(), query.Bindings{"p": relation.Int(p)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	mid, failed, last := watch(2), watch(3), watch(4)
	mid.Close()
	failed.fail(errors.New("injected"))
	late := watch(5)
	var got []int64
	for _, m := range eng.registry().members {
		got = append(got, m.l.id)
	}
	if want := []int64{first.id, last.id, late.id}; !slices.Equal(got, want) {
		t.Fatalf("live watchers %v, want %v (registration order, closed and failed handles gone)", got, want)
	}
	if eng.Watchers() != 3 {
		t.Fatalf("registered watchers = %d, want 3", eng.Watchers())
	}
}

func TestWatchSlowConsumerCoalesces(t *testing.T) {
	ctx := context.Background()
	eng, prep, l := watchQ1(t, 30, 1, WithDeltaBuffer(2))
	defer l.Close()
	for i := int64(0); i < 4; i++ {
		if _, err := eng.Commit(ctx, namedPersonUpdate(1, 920_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// A lagging consumer no longer fails the handle: the oldest pending
	// deltas fold into one net delta and the queue stays at capacity.
	if err := l.Err(); err != nil {
		t.Fatalf("Err() = %v, want healthy handle after overflowing a 2-delta buffer", err)
	}
	l.Close()
	var ds []Delta
	for d, err := range l.Deltas() {
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	if len(ds) != 2 {
		t.Fatalf("drained %d deltas, want 2 (buffer capacity)", len(ds))
	}
	// 4 distinct insertions across 4 commits: the folded head delta
	// carries the first 3, the tail keeps per-commit granularity.
	if ds[0].Folded != 2 || len(ds[0].Ins) != 3 {
		t.Fatalf("head delta folded %d commits with %d Ins, want 2 folded / 3 Ins", ds[0].Folded, len(ds[0].Ins))
	}
	if ds[1].Folded != 0 || len(ds[1].Ins) != 1 {
		t.Fatalf("tail delta folded %d commits with %d Ins, want 0 / 1", ds[1].Folded, len(ds[1].Ins))
	}
	if ds[0].Seq >= ds[1].Seq {
		t.Fatalf("folded stream out of order: seq %d then %d", ds[0].Seq, ds[1].Seq)
	}
	for _, d := range ds {
		if d.Cost.TupleReads > d.Bound {
			t.Fatalf("folded delta seq %d charged %d reads over accumulated bound %d", d.Seq, d.Cost.TupleReads, d.Bound)
		}
	}
	// Replaying the folded stream over the pre-lag state reproduces the
	// maintained snapshot (which equals a fresh execution).
	ans, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Snapshot().Equal(ans.Tuples) {
		t.Fatal("snapshot diverged from fresh exec under coalescing")
	}
}

// TestWatchFoldedReplayConformance is the coalescing regression test: a
// watcher with a 1-delta buffer lags behind a randomized insert/delete
// commit stream whose net effects cancel and reappear; replaying the
// folded delta stream over the initial snapshot must reproduce the final
// maintained answer set, which must equal a fresh Exec.
func TestWatchFoldedReplayConformance(t *testing.T) {
	ctx := context.Background()
	eng, prep, l := watchQ1(t, 30, 1, WithDeltaBuffer(1))
	defer l.Close()
	initial := l.Snapshot()

	// Insert/delete churn: every edge is added, half are removed again,
	// some re-added — matching Ins/Del pairs must fold away.
	var updates []*relation.Update
	for i := int64(0); i < 6; i++ {
		updates = append(updates, namedPersonUpdate(1, 940_000+i))
	}
	for i := int64(0); i < 6; i += 2 {
		updates = append(updates, namedPersonUpdate(1, 940_000+i).Inverse())
	}
	updates = append(updates, namedPersonUpdate(1, 940_000))
	for _, u := range updates {
		if _, err := eng.Commit(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Err(); err != nil {
		t.Fatalf("handle failed under lag: %v", err)
	}
	l.Close()
	replay := initial.Clone()
	folded := 0
	for d, err := range l.Deltas() {
		if err != nil {
			t.Fatal(err)
		}
		folded += d.Folded
		for _, tu := range d.Del {
			if !replay.Contains(tu) {
				t.Fatalf("folded delta seq %d deletes %v, absent from replayed state", d.Seq, tu)
			}
			replay.Remove(tu)
		}
		for _, tu := range d.Ins {
			if replay.Contains(tu) {
				t.Fatalf("folded delta seq %d inserts %v, already in replayed state", d.Seq, tu)
			}
			replay.Add(tu)
		}
	}
	if folded == 0 {
		t.Fatal("no commits were folded — the buffer never overflowed; tighten the test")
	}
	ans, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Equal(ans.Tuples) {
		t.Fatalf("folded-stream replay yields %v, fresh exec %v", replay.Tuples(), ans.Tuples.Tuples())
	}
	if !l.Snapshot().Equal(ans.Tuples) {
		t.Fatal("snapshot diverged from fresh exec")
	}
}

func TestWatchCloseKeepsQueuedDeltas(t *testing.T) {
	ctx := context.Background()
	eng, _, l := watchQ1(t, 30, 1)
	if _, err := eng.Commit(ctx, newPersonUpdate(1, 930_000)); err != nil {
		t.Fatal(err)
	}
	snapAtClose := l.Snapshot()
	l.Close()
	l.Close() // idempotent
	if l.Err() != nil {
		t.Fatalf("Err after plain Close = %v, want nil", l.Err())
	}
	// Later commits no longer maintain the handle...
	if _, err := eng.Commit(ctx, newPersonUpdate(1, 930_001)); err != nil {
		t.Fatal(err)
	}
	if !l.Snapshot().Equal(snapAtClose) {
		t.Fatal("snapshot moved after Close")
	}
	// ...but the pre-Close delta is still there.
	n := 0
	for d, err := range l.Deltas() {
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Ins) != 1 {
			t.Fatalf("queued delta %+v", d)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("drained %d deltas after Close, want 1", n)
	}
}

func TestCommitValidation(t *testing.T) {
	ctx := context.Background()
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 5, 8, 9)
	eng := NewEngine(st)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := prep.Watch(ctx, query.Bindings{"p": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := eng.Commit(ctx, relation.NewUpdate()); !errors.Is(err, ErrInvalidUpdate) {
		t.Fatalf("empty commit: err = %v, want ErrInvalidUpdate", err)
	}
	bad := relation.NewUpdate().Delete("person", relation.NewTuple(
		relation.Int(999_999), relation.Str("nope"), relation.Str("NYC")))
	before := st.Version()
	if _, err := eng.Commit(ctx, bad); !errors.Is(err, ErrInvalidUpdate) {
		t.Fatalf("deleting an absent tuple: err = %v, want ErrInvalidUpdate", err)
	}
	if st.Version() != before || eng.CommitSeq() != 0 {
		t.Fatalf("rejected commit moved the logs: store %d→%d, engine %d", before, st.Version(), eng.CommitSeq())
	}
	// Phase-0 validation rejected the commit before any watcher work ran:
	// the touched watcher saw no maintenance, no delta, no failure.
	if err := l.Err(); err != nil {
		t.Fatalf("rejected commit failed a watcher: %v", err)
	}
	if c := l.Cost(); c.TupleReads != 0 || c.Memberships != 0 {
		t.Fatalf("rejected commit charged watcher maintenance: %+v", c)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Commit(canceled, newPersonUpdate(1, 940_000)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled commit: err = %v, want ErrCanceled", err)
	}
}

func TestCommitTracksVolume(t *testing.T) {
	ctx := context.Background()
	cat := mustCatalog(t, facebookCatalog)
	st := buildSocial(t, cat, 20, 5, 8, 11)
	eng := NewEngine(st)
	u := newPersonUpdate(1, 950_000)
	if _, err := eng.Commit(ctx, u); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(ctx, u.Inverse()); err != nil {
		t.Fatal(err)
	}
	vol := eng.CommittedVolume()
	if vol["person"] != 2 || vol["friend"] != 2 {
		t.Fatalf("committed volume %v, want person:2 friend:2", vol)
	}
}

// TestCQMaintainerBoundedReads is the headline measurement of Example
// 1.1(b): with Q2 watched for p, the maintenance work one commit charges
// does not grow with |D| and never scans. The committed ΔD (a new NYC
// friend of p and that friend's visit to the NYC, A-rated restaurant
// 1000) touches only tuples whose neighbourhood is the same at every
// size, so the reads are identical, not merely bounded.
func TestCQMaintainerBoundedReads(t *testing.T) {
	ctx := context.Background()
	cat := mustCatalog(t, facebookCatalog+"access visit(id -> *) limit 100 time 1\n")
	fixed := query.Bindings{"p": relation.Int(3)}
	var reads []int64
	for _, n := range []int{30, 120, 480} {
		eng := NewEngine(buildSocial(t, cat, n, 6, 8, 7))
		prep, err := eng.Prepare(mustRuleOrQ(t, workload.Q2Src), fixed.Vars())
		if err != nil {
			t.Fatal(err)
		}
		l, err := prep.Watch(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		u := newPersonUpdate(3, 900_001)
		u.Insert("visit", relation.Ints(900_001, 1000, 2020, 1, 1))
		res, err := eng.Commit(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if res.Maintenance.Scans != 0 {
			t.Fatalf("n=%d: maintenance scanned %d times", n, res.Maintenance.Scans)
		}
		if !l.Snapshot().Contains(relation.Tuple{relation.Str("r0")}) {
			t.Fatalf("n=%d: the new friend's visit to r0 did not reach the live answers", n)
		}
		reads = append(reads, res.Maintenance.TupleReads+res.Maintenance.Memberships)
		l.Close()
	}
	if reads[0] == 0 {
		t.Fatal("maintenance charged no reads — the delta plans did not run")
	}
	for _, r := range reads[1:] {
		if r != reads[0] {
			t.Fatalf("per-commit maintenance reads vary with |D|: %v", reads)
		}
	}
}

// TestAnswersSnapshotIsolated: the set Snapshot hands out is the caller's
// copy — mutating it must not corrupt the live answers, and it must stay
// frozen while later commits move the live set on.
func TestAnswersSnapshotIsolated(t *testing.T) {
	ctx := context.Background()
	eng, prep, l := watchQ1(t, 40, 1)
	defer l.Close()
	fixed := query.Bindings{"p": relation.Int(1)}

	snap := l.Snapshot()
	before := snap.Len()
	for _, tu := range slices.Clone(snap.Tuples()) {
		snap.Remove(tu)
	}
	bogus := relation.Tuple{relation.Str("bogus")}
	snap.Add(bogus)
	if got := l.Snapshot(); got.Len() != before || got.Contains(bogus) {
		t.Fatalf("mutating a snapshot changed the live set: %d answers (want %d), bogus present %v",
			got.Len(), before, got.Contains(bogus))
	}

	frozen := l.Snapshot()
	if _, err := eng.Commit(ctx, namedPersonUpdate(1, 900_002)); err != nil {
		t.Fatal(err)
	}
	ans, err := prep.Exec(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Snapshot().Equal(ans.Tuples) {
		t.Fatal("live set diverged from a fresh exec after the snapshot was vandalized")
	}
	if frozen.Len() != before || frozen.Contains(relation.Tuple{relation.Str("w900002")}) {
		t.Fatal("an earlier snapshot moved with the live set")
	}
}

// TestCQMaintainerRejectsUncontrolled: without the person, restr and visit
// access entries the remainder a friend insertion leaves is not
// controlled, so the maintainer (CreateView's constructor) must refuse
// with ErrWatchNotMaintainable rather than maintain by scanning.
func TestCQMaintainerRejectsUncontrolled(t *testing.T) {
	cat := mustCatalog(t, `
relation person(id, name, city)
relation friend(id1, id2)
relation restr(rid, name, city, rating)
relation visit(id, rid, yy, mm, dd)
access friend(id1 -> *) limit 5000 time 1
`)
	eng := NewEngine(buildSocial(t, cat, 10, 3, 4, 9))
	cq, err := parser.ParseCQ(workload.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(eng, cq, query.Bindings{"p": relation.Int(1)}); !errors.Is(err, ErrWatchNotMaintainable) {
		t.Fatalf("err = %v, want ErrWatchNotMaintainable", err)
	}
}
