package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// watchRecord is what one Watch/Close cycle of TestWatchRegistryConcurrency
// saw of its handle.
type watchRecord struct {
	l *Live
	p int64
	// before and after bracket the Watch call in commit sequence numbers.
	before, after int64
	// seq, snap and queued were read together right after Watch (no
	// delta is ever consumed): the maintained answers as of seq, and
	// every delta delivered since registration.
	seq    int64
	snap   *relation.TupleSet
	queued []Delta
	// atClose counts the deltas delivered when Close returned (-1: never
	// closed).
	atClose int
}

// TestWatchRegistryConcurrency is the race test for the grouped watcher
// registry: four goroutines Watch and Close handles of one prepared Q2
// while a committer replays a mixed commit stream. Every handle must be
// notified of each commit after its registration (its snapshot holds
// the ones before), none after its Close returned, and every surviving
// handle's snapshot must equal a fresh execution at the end.
func TestWatchRegistryConcurrency(t *testing.T) {
	w := newWatchedQ2(t, 200, 0)
	hot := []int64{0, 1, 2, 3}
	stream := mixedStream(w, 120)
	exec := func(p int64) *relation.TupleSet {
		ans, err := w.prep.Exec(context.Background(), query.Bindings{"p": relation.Int(p)})
		if err != nil {
			t.Error(err)
			return relation.NewTupleSet(0)
		}
		return ans.Tuples
	}
	// answers[s][p] is Q2(p) as of commit s: the only committer executes
	// it between its commits.
	answers := make([]map[int64]*relation.TupleSet, 0, len(stream)+1)
	record := func() {
		m := make(map[int64]*relation.TupleSet, len(hot))
		for _, p := range hot {
			m[p] = exec(p)
		}
		answers = append(answers, m)
	}
	record()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records []*watchRecord
		done    = make(chan struct{})
	)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if closed(done) {
					return
				}
				r := &watchRecord{p: hot[(g+i)%len(hot)], atClose: -1}
				r.before = w.eng.CommitSeq()
				l, err := w.prep.Watch(context.Background(), query.Bindings{"p": relation.Int(r.p)})
				if err != nil {
					t.Error(err)
					return
				}
				r.after = w.eng.CommitSeq()
				r.l = l
				l.mu.Lock()
				r.seq, r.snap = l.seq, l.m.Answers()
				r.queued = append([]Delta(nil), l.queue[l.next:]...)
				l.mu.Unlock()
				// Two of every three handles close again, after a commit or
				// two; the rest stay open to the end.
				if i%3 != 2 {
					for target := r.seq + int64(i%2+1); l.Seq() < target && !closed(done); {
						time.Sleep(50 * time.Microsecond)
					}
					l.Close()
					l.mu.Lock()
					r.atClose = len(l.queue) - l.next
					l.mu.Unlock()
				}
				mu.Lock()
				records = append(records, r)
				mu.Unlock()
			}
		}()
	}
	for _, u := range stream {
		if _, err := w.eng.Commit(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		record()
	}
	close(done)
	wg.Wait()

	final := w.eng.CommitSeq()
	for n, r := range records {
		name := fmt.Sprintf("handle %d (p=%d, watched between commits %d and %d)", n, r.p, r.before, r.after)
		if r.atClose < 0 {
			if !r.l.Snapshot().Equal(answers[final][r.p]) {
				t.Errorf("%s: final snapshot differs from a fresh execution", name)
			}
			r.l.Close()
		}
		// Nothing was consumed: all holds every delta ever delivered.
		all := pendingDeltas(r.l)
		if r.atClose >= 0 && len(all) != r.atClose {
			t.Errorf("%s: %d deltas queued when Close returned, %d by the end", name, r.atClose, len(all))
		}
		if err := r.l.Err(); err != nil {
			t.Errorf("%s: failed: %v", name, err)
		}
		// Registration is the commit before the first delta: within the
		// Watch call, its snapshot the answers as of then, and every later
		// commit one delta moving the answers as a fresh execution does.
		reg := r.seq - int64(len(r.queued))
		if reg < r.before || reg > r.after {
			t.Errorf("%s: first delta after commit %d", name, reg)
			continue
		}
		cur := answers[reg][r.p].Clone()
		for i, d := range all {
			if d.Seq != reg+int64(i)+1 {
				t.Errorf("%s: delta %d is for commit %d, want %d", name, i, d.Seq, reg+int64(i)+1)
				break
			}
			for _, tu := range d.Del {
				cur.Remove(tu)
			}
			for _, tu := range d.Ins {
				cur.Add(tu)
			}
			if !cur.Equal(answers[d.Seq][r.p]) {
				t.Errorf("%s: folding delta %d does not land on commit %d's answers", name, d.Seq, d.Seq)
				break
			}
			if d.Seq == r.seq && !cur.Equal(r.snap) {
				t.Errorf("%s: snapshot at commit %d differs from its folded deltas", name, r.seq)
			}
		}
		if r.atClose < 0 && reg+int64(len(all)) != final {
			t.Errorf("%s: open to the end but notified up to commit %d of %d", name, reg+int64(len(all)), final)
		}
	}
	if len(records) < 8 {
		t.Fatalf("only %d watch cycles ran beside the commits", len(records))
	}
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
