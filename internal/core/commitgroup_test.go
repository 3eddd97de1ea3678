package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// pendingDeltas dequeues every delta queued on l without blocking.
func pendingDeltas(l *Live) []Delta {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Delta
	for l.next < len(l.queue) {
		out = append(out, l.popLocked())
	}
	return out
}

// sameTuples reports whether a and b hold the same tuples, in any order.
func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	set := relation.NewTupleSet(len(a))
	for _, t := range a {
		set.Add(t)
	}
	for _, t := range b {
		if !set.Contains(t) {
			return false
		}
	}
	return true
}

// answerDiff is what moved from before to after: the answers that
// appeared and those that disappeared.
func answerDiff(before, after *relation.TupleSet) (ins, del []relation.Tuple) {
	for _, t := range after.Tuples() {
		if !before.Contains(t) {
			ins = append(ins, t)
		}
	}
	for _, t := range before.Tuples() {
		if !after.Contains(t) {
			del = append(del, t)
		}
	}
	return ins, del
}

// mixedStream is a mixed commit stream over w's data with persons 0..3
// hot, so the watched Q2 persons see real churn.
func mixedStream(w *watchedQ2, n int) []*relation.Update {
	cfg := workload.DefaultConfig()
	cfg.Persons = w.st.Data().Rel("person").Len()
	return workload.MixedCommits(w.st.Data(), cfg, n, []int64{0, 1, 2, 3}, 5)
}

// TestInsertOnlyInvalidCommit: phase 0's pre-check runs only for a ΔD
// that deletes. An insert-only ΔD of a tuple already present, touching
// Q2 watchers and both views, is still rejected with ErrInvalidUpdate —
// by the apply's own validation — having applied nothing, failed no
// watcher, frozen no view and charged no reads.
func TestInsertOnlyInvalidCommit(t *testing.T) {
	w := newWatchedQ2(t, 200, 4)
	for _, src := range []string{
		"VFol(p, f) :- friend(f, p)",
		"VNYC(id, rid) :- visit(id, rid, yy, mm, dd), person(id, pn, 'NYC')",
	} {
		def, err := parser.ParseCQ(src)
		if err != nil {
			t.Fatal(err)
		}
		var entries []access.Entry
		if def.Name == "VFol" {
			entries = append(entries, access.Plain("VFol", []string{"p"}, workload.DefaultConfig().MaxFriends+64, 1))
		}
		if _, err := w.eng.CreateView(def, entries...); err != nil {
			t.Fatal(err)
		}
	}
	data := w.st.Data()
	var edge, visit relation.Tuple
	for _, f := range data.Rel("friend").Tuples() {
		if f[0] != relation.Int(0) {
			continue
		}
		for _, v := range data.Rel("visit").Tuples() {
			if v[0] == f[1] {
				edge, visit = f, v
				break
			}
		}
		if visit != nil {
			break
		}
	}
	if visit == nil {
		t.Fatal("person 0 has no friend who visited a restaurant")
	}
	for _, tc := range []struct {
		rel string
		t   relation.Tuple
	}{{"friend", edge}, {"visit", visit}} {
		version, seq, epoch, views := w.st.Version(), w.eng.CommitSeq(), w.eng.ViewEpoch(), w.eng.Views()
		costs := make([]int64, len(w.lives))
		for i, l := range w.lives {
			c := l.Cost()
			costs[i] = c.TupleReads + c.Memberships
		}
		_, err := w.eng.Commit(context.Background(), relation.NewUpdate().Insert(tc.rel, tc.t))
		if !errors.Is(err, ErrInvalidUpdate) {
			t.Fatalf("inserting the present %s tuple %s: err = %v, want ErrInvalidUpdate", tc.rel, tc.t, err)
		}
		if w.st.Version() != version || w.eng.CommitSeq() != seq {
			t.Fatalf("%s: the rejected commit moved the logs", tc.rel)
		}
		if w.eng.ViewEpoch() != epoch || !slices.EqualFunc(w.eng.Views(), views, viewInfoEqual) {
			t.Fatalf("%s: the rejected commit moved a view: %+v, was %+v", tc.rel, w.eng.Views(), views)
		}
		for i, l := range w.lives {
			c := l.Cost()
			if err := l.Err(); err != nil {
				t.Fatalf("%s: the rejected commit failed watcher %d: %v", tc.rel, i, err)
			}
			if c.TupleReads+c.Memberships != costs[i] || l.Seq() != seq || len(pendingDeltas(l)) != 0 {
				t.Fatalf("%s: the rejected commit charged or notified watcher %d", tc.rel, i)
			}
		}
	}
	// The views and watchers still maintain the next valid commit.
	res := w.toggle(t, "friend", edge)
	if res.Watchers != len(w.lives) || res.ViewsMaintained != 1 {
		t.Fatalf("after the rejections a friend commit notified %d watchers and %d views, want %d and 1", res.Watchers, res.ViewsMaintained, len(w.lives))
	}
}

func viewInfoEqual(a, b ViewInfo) bool {
	return a.Name == b.Name && a.Rows == b.Rows && a.FreshSeq == b.FreshSeq && a.Broken == b.Broken
}

// TestWatchGroupCancelOneMember: canceling one member's watch context
// fails that member only. Its group-mates share the group's decisions and
// bound, and each commit still hands each of them one delta that equals
// the difference of fresh executions, within its bound.
func TestWatchGroupCancelOneMember(t *testing.T) {
	w := newWatchedQ2(t, 200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doomed, err := w.prep.Watch(ctx, query.Bindings{"p": relation.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	if g := len(w.eng.registry().groups); g != 1 {
		t.Fatalf("4 watches of one prepared query form %d groups, want 1", g)
	}
	exec := func(p int) *relation.TupleSet {
		ans, err := w.prep.Exec(context.Background(), query.Bindings{"p": relation.Int(int64(p))})
		if err != nil {
			t.Fatal(err)
		}
		return ans.Tuples
	}
	prev := make([]*relation.TupleSet, len(w.lives))
	for i := range w.lives {
		prev[i] = exec(i)
	}
	moved := 0
	for i, u := range mixedStream(w, 60) {
		if i == 30 {
			cancel()
		}
		res, err := w.eng.Commit(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		for j, l := range w.lives {
			ds := pendingDeltas(l)
			if len(ds) != 1 || ds[0].Seq != res.Seq {
				t.Fatalf("commit %d: watcher %d got %d deltas, want one for seq %d", res.Seq, j, len(ds), res.Seq)
			}
			d := ds[0]
			now := exec(j)
			ins, del := answerDiff(prev[j], now)
			if !sameTuples(d.Ins, ins) || !sameTuples(d.Del, del) {
				t.Fatalf("commit %d: watcher %d delta +%v -%v, fresh executions moved +%v -%v", res.Seq, j, d.Ins, d.Del, ins, del)
			}
			if d.Cost.TupleReads > d.Bound {
				t.Fatalf("commit %d: watcher %d charged %d reads over its bound %d", res.Seq, j, d.Cost.TupleReads, d.Bound)
			}
			moved += len(d.Ins) + len(d.Del)
			prev[j] = now
		}
	}
	if moved == 0 {
		t.Fatal("the stream moved no watched answer")
	}
	for j, l := range w.lives {
		if err := l.Err(); err != nil {
			t.Fatalf("watcher %d failed with its group-mate: %v", j, err)
		}
	}
	var terminal error
	for _, err := range doomed.Deltas() {
		terminal = err
	}
	if !errors.Is(terminal, ErrCanceled) {
		t.Fatalf("the canceled member's stream ended with %v, want ErrCanceled", terminal)
	}
	if n := w.eng.Watchers(); n != len(w.lives) {
		t.Fatalf("%d watchers registered after the cancel, want %d", n, len(w.lives))
	}
}

// TestWatchTwinsIdenticalDeltas: two watches of one prepared query on the
// same person are one group's members with the same fixed value, so every
// commit hands them identical deltas.
func TestWatchTwinsIdenticalDeltas(t *testing.T) {
	w := newWatchedQ2(t, 200, 1)
	twin, err := w.prep.Watch(context.Background(), query.Bindings{"p": relation.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	moved := 0
	for _, u := range mixedStream(w, 60) {
		if _, err := w.eng.Commit(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		a, b := pendingDeltas(w.lives[0]), pendingDeltas(twin)
		if len(a) != 1 || len(b) != 1 {
			t.Fatalf("twins got %d and %d deltas, want one each", len(a), len(b))
		}
		da, db := a[0], b[0]
		if da.Seq != db.Seq || da.Cost != db.Cost || da.Bound != db.Bound || da.Reexec != db.Reexec ||
			!slices.EqualFunc(da.Ins, db.Ins, relation.Tuple.Equal) || !slices.EqualFunc(da.Del, db.Del, relation.Tuple.Equal) {
			t.Fatalf("twins' deltas differ:\n%+v\n%+v", da, db)
		}
		moved += len(da.Ins) + len(da.Del)
	}
	if moved == 0 {
		t.Fatal("the stream moved no watched answer")
	}
}

// TestUntouchedGroupDeliversNothing: a commit that touches none of a
// group's relations delivers nothing to its members and counts none of
// them in CommitResult.Watchers, while the group it touches is notified
// in full; the last member to close takes its group with it.
func TestUntouchedGroupDeliversNothing(t *testing.T) {
	w := newWatchedQ2(t, 200, 2)
	q1, err := w.eng.Prepare(mustQ(t, workload.Q1Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	var q1Lives []*Live
	for p := range int64(3) {
		l, err := q1.Watch(context.Background(), query.Bindings{"p": relation.Int(p)})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		q1Lives = append(q1Lives, l)
	}
	if g := len(w.eng.registry().groups); g != 2 {
		t.Fatalf("watches of two prepared queries form %d groups, want 2", g)
	}
	rid := nycARestaurant(t, w.st.Data())
	res := w.toggle(t, "visit", relation.NewTuple(relation.Int(5), rid, relation.Int(3000), relation.Int(1), relation.Int(1)))
	if res.Watchers != len(w.lives) {
		t.Fatalf("a visit commit notified %d watchers, want the %d Q2 ones", res.Watchers, len(w.lives))
	}
	for i, l := range q1Lives {
		if ds := pendingDeltas(l); len(ds) != 0 || l.Seq() == res.Seq {
			t.Fatalf("Q1 watcher %d, whose body has no visit, got %d deltas (seq %d)", i, len(ds), l.Seq())
		}
	}
	res = w.toggle(t, "friend", relation.Ints(0, 199))
	if res.Watchers != len(w.lives)+len(q1Lives) {
		t.Fatalf("a friend commit notified %d watchers, want all %d", res.Watchers, len(w.lives)+len(q1Lives))
	}
	for _, l := range q1Lives {
		l.Close()
	}
	if g := len(w.eng.registry().groups); g != 1 {
		t.Fatalf("%d groups after every Q1 watcher closed, want 1", g)
	}
}
