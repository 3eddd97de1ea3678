package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// watchedQ2 is a default-workload instance with Q2 watched for persons
// 0..watchers-1, all through one prepared query.
type watchedQ2 struct {
	eng   *Engine
	st    *store.DB
	prep  *PreparedQuery
	lives []*Live
}

func newWatchedQ2(tb testing.TB, persons, watchers int) *watchedQ2 {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = 7
	data, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	w := &watchedQ2{eng: NewEngine(st), st: st}
	prep, err := w.eng.Prepare(mustRuleOrQ(tb, workload.Q2Src), query.NewVarSet("p"))
	if err != nil {
		tb.Fatal(err)
	}
	w.prep = prep
	for p := range watchers {
		l, err := prep.Watch(context.Background(), query.Bindings{"p": relation.Int(int64(p))})
		if err != nil {
			tb.Fatalf("watch p=%d: %v", p, err)
		}
		w.lives = append(w.lives, l)
	}
	tb.Cleanup(w.close)
	return w
}

// toggle commits the insertion of t into rel when it is absent and its
// deletion otherwise.
func (w *watchedQ2) toggle(tb testing.TB, rel string, t relation.Tuple) *CommitResult {
	u := relation.NewUpdate()
	if w.st.Data().Rel(rel).Contains(t) {
		u.Delete(rel, t)
	} else {
		u.Insert(rel, t)
	}
	res, err := w.eng.Commit(context.Background(), u)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// discard drops every queued delta, as a consumer keeping up would have
// taken them.
func (w *watchedQ2) discard() {
	for _, l := range w.lives {
		l.mu.Lock()
		for l.next < len(l.queue) {
			l.popLocked()
		}
		l.mu.Unlock()
	}
}

func (w *watchedQ2) close() {
	for _, l := range w.lives {
		l.Close()
	}
}

// BenchmarkCommitWatchers measures one 1-tuple commit with W Q2 watchers
// on distinct persons, cycling friend, visit and person commits: a
// friend edge from watcher j's person to a stranger, a visit by one of
// that person's friends to an NYC A-rated restaurant, and a fresh NYC
// person, each inserted when absent and deleted otherwise. Every commit
// touches every watcher, so ns/op and allocs/op are per commit and grow
// with W; what one watcher costs is the difference over W. The queued
// deltas are discarded off the clock every 128 commits.
func BenchmarkCommitWatchers(b *testing.B) {
	for _, watchers := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("W%d", watchers), func(b *testing.B) {
			const persons = 2000
			w := newWatchedQ2(b, persons, watchers)
			data := w.st.Data()
			rid := nycARestaurant(b, data)
			friendOf := make([]int64, watchers)
			for j := range friendOf {
				friendOf[j] = int64(persons - 1 - j)
				for _, t := range data.Rel("friend").Tuples() {
					if t[0].AsInt() == int64(j) {
						friendOf[j] = t[1].AsInt()
						break
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				j := (i / 3) % watchers
				switch i % 3 {
				case 0:
					w.toggle(b, "friend", relation.Ints(int64(j), int64(persons-1-j)))
				case 1:
					w.toggle(b, "visit", relation.NewTuple(relation.Int(friendOf[j]), rid, relation.Int(3000), relation.Int(1), relation.Int(1)))
				case 2:
					w.toggle(b, "person", relation.NewTuple(relation.Int(int64(1_000_000+j)), relation.Str("n"), relation.Str("NYC")))
				}
				if i%128 == 127 {
					b.StopTimer()
					w.discard()
					b.StartTimer()
				}
			}
		})
	}
}

// nycARestaurant returns the id of an NYC restaurant rated A.
func nycARestaurant(tb testing.TB, data *relation.Database) relation.Value {
	tb.Helper()
	for _, t := range data.Rel("restr").Tuples() {
		if t[2] == relation.Str("NYC") && t[3] == relation.Str("A") {
			return t[0]
		}
	}
	tb.Fatal("no NYC restaurant rated A")
	return relation.Value{}
}
