package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// viewServedQ6 opens one backend over a fresh copy of the DropView tests'
// graph, creates VFol on it and prepares Q6 through the view.
type viewServedQ6 struct {
	name string
	open func(t *testing.T) (*core.Engine, *core.PreparedQuery)
}

// q6ThroughVFol generates the 60-person graph the DropView tests share and
// returns it with an opener for the single-node and the two-shard backend.
func q6ThroughVFol(t *testing.T) (*relation.Database, []viewServedQ6) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opener := func(open func() (store.Backend, error)) func(*testing.T) (*core.Engine, *core.PreparedQuery) {
		return func(t *testing.T) (*core.Engine, *core.PreparedQuery) {
			t.Helper()
			b, err := open()
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(b)
			if _, err := eng.CreateView(goldenCQ(t, backendtest.VFolSrc), access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
				t.Fatal(err)
			}
			prep, err := eng.Prepare(goldenQuery(t, backendtest.Q6Src), query.NewVarSet("p"))
			if err != nil {
				t.Fatal(err)
			}
			if !prep.Plan().Rescued {
				t.Fatalf("Q6 is not served through VFol:\n%s", prep.Explain())
			}
			return eng, prep
		}
	}
	return data, []viewServedQ6{
		{"store", opener(func() (store.Backend, error) { return store.Open(data.Clone(), workload.Access(cfg)) })},
		{"shard", opener(func() (store.Backend, error) { return shard.Open(data.Clone(), workload.Access(cfg), 2) })},
	}
}

// TestDropViewUnderPreparedPlan: a plan prepared through a view keeps
// reading it after DropView retracts it; its next fetch fails with an
// error that wraps store.ErrUnknownRelation, on the single-node and the
// sharded backend.
func TestDropViewUnderPreparedPlan(t *testing.T) {
	_, cases := q6ThroughVFol(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, prep := tc.open(t)
			if err := eng.DropView("VFol"); err != nil {
				t.Fatal(err)
			}
			_, err := prep.Exec(context.Background(), query.Bindings{"p": relation.Int(7)})
			if !errors.Is(err, store.ErrUnknownRelation) {
				t.Fatalf("Exec after DropView: err = %v, want store.ErrUnknownRelation", err)
			}
		})
	}
}

// TestDropViewUnderConcurrentReaders: readers loop a plan prepared through
// a view while DropView retracts it. Every call either returns the
// correct answer or fails with an error that wraps
// store.ErrUnknownRelation — never a partial answer or another error —
// every reader sees the failure once the drop has returned, and no
// goroutine outlives the readers; on the single-node and the sharded
// backend.
func TestDropViewUnderConcurrentReaders(t *testing.T) {
	data, cases := q6ThroughVFol(t)
	q := goldenQuery(t, backendtest.Q6Src)
	const readers, probes = 4, 8
	want := make([]*relation.TupleSet, probes)
	for p := range want {
		var err error
		if want[p], err = eval.Answers(eval.DBSource{DB: data}, q, query.Bindings{"p": relation.Int(int64(p))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			eng, prep := tc.open(t)
			var dropped atomic.Bool
			var started, wg sync.WaitGroup
			errCh := make(chan error, readers)
			started.Add(readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						after := dropped.Load()
						p := (r + i) % probes
						ans, err := prep.Exec(context.Background(), query.Bindings{"p": relation.Int(int64(p))})
						if i == 0 {
							started.Done()
						}
						switch {
						case err == nil && after:
							errCh <- fmt.Errorf("reader %d: Exec after DropView returned answers", r)
							return
						case err == nil && !ans.Tuples.Equal(want[p]):
							errCh <- fmt.Errorf("reader %d p=%d: answers %v, want %v", r, p, ans.Tuples.Tuples(), want[p].Tuples())
							return
						case err == nil:
						case errors.Is(err, store.ErrUnknownRelation):
							if after {
								return
							}
						default:
							errCh <- fmt.Errorf("reader %d p=%d: err = %v, want nil or store.ErrUnknownRelation", r, p, err)
							return
						}
					}
				}()
			}
			started.Wait() // every reader is mid-loop before the drop
			if err := eng.DropView("VFol"); err != nil {
				t.Error(err) // not Fatal: the readers stop only once dropped is set
			}
			dropped.Store(true)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			// Shard workers wind down asynchronously; give them 3 s to
			// return the count to its baseline exactly, so one leak fails.
			deadline := time.Now().Add(3 * time.Second)
			for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak: %d running after the readers returned, baseline %d", n, baseline)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestCreateViewLeavesSourceSchemas: CreateView on a store opened over a
// clone of the data declares the view only in the store's own schemas.
// The original database's schema and the access schema the store was
// opened with keep their relations and entries, whether that access
// schema ranges over a schema of its own or over the data's, and the
// data can be opened again afterwards, sharded.
func TestCreateViewLeavesSourceSchemas(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	accs := map[string]*access.Schema{
		"own schema":  workload.Access(cfg),
		"data schema": workload.Access(cfg).CloneOver(data.Schema()),
	}
	for name, acc := range accs {
		t.Run(name, func(t *testing.T) {
			names := fmt.Sprint(data.Schema().Names())
			accNames := fmt.Sprint(acc.Relational().Names())
			accEntries := acc.String()
			st, err := store.Open(data.Clone(), acc)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(st)
			if _, err := eng.CreateView(goldenCQ(t, backendtest.VFolSrc), access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(data.Schema().Names()); got != names {
				t.Errorf("source schema after CreateView: %s, want %s", got, names)
			}
			if got := fmt.Sprint(acc.Relational().Names()); got != accNames {
				t.Errorf("access schema's relations after CreateView: %s, want %s", got, accNames)
			}
			if got := acc.String(); got != accEntries {
				t.Errorf("access schema after CreateView:\n%s\nwant\n%s", got, accEntries)
			}
			if _, err := shard.Open(data.Clone(), acc, 2); err != nil {
				t.Fatalf("shard.Open after CreateView: %v", err)
			}
		})
	}
}
