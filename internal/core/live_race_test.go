package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestLiveConcurrency is the race test for the concurrency contract the
// single-writer Maintainer does not give: Live handles are maintained by
// concurrent Commits while readers iterate Deltas and take Snapshots, on
// the single-node backend and on 4 shards, green under `go test -race`.
func TestLiveConcurrency(t *testing.T) {
	t.Run("single-node", func(t *testing.T) {
		runLiveConcurrency(t, func(db *relation.Database, acc *access.Schema) (store.Backend, error) {
			return store.Open(db, acc)
		})
	})
	t.Run("4-shards", func(t *testing.T) {
		runLiveConcurrency(t, func(db *relation.Database, acc *access.Schema) (store.Backend, error) {
			return shard.Open(db, acc, 4)
		})
	})
}

func runLiveConcurrency(t *testing.T, open func(*relation.Database, *access.Schema) (store.Backend, error)) {
	cat := mustCatalog(t, facebookCatalog)
	dbData := relation.NewDatabase(cat.Relational)
	// A tiny fixed base: persons 0..19 (thirds in NYC), some edges.
	cities := []string{"NYC", "LA", "SF"}
	for i := int64(0); i < 20; i++ {
		dbData.MustInsert("person", relation.NewTuple(
			relation.Int(i), relation.Str("p"), relation.Str(cities[i%3])))
	}
	b, err := open(dbData, cat.Access)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(b)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fixed := query.Bindings{"p": relation.Int(1)}
	l, err := prep.Watch(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}

	const (
		committers   = 2
		perCommitter = 120
	)
	var wg sync.WaitGroup
	var insSeen, delSeen atomic.Int64
	stopSnap := make(chan struct{})

	// Delta consumer: applies the stream to its own copy of the initial
	// snapshot; checked against the final state at the end.
	folded := l.Snapshot()
	var foldedMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d, err := range l.Deltas() {
			if err != nil {
				return // Close ends the stream; errors checked in main
			}
			foldedMu.Lock()
			for _, tu := range d.Ins {
				if !folded.Add(tu) {
					t.Errorf("delta seq %d inserted an already-present answer", d.Seq)
				}
				insSeen.Add(1)
			}
			for _, tu := range d.Del {
				if !folded.Remove(tu) {
					t.Errorf("delta seq %d deleted an absent answer", d.Seq)
				}
				delSeen.Add(1)
			}
			foldedMu.Unlock()
		}
	}()

	// Snapshot readers: hammer Snapshot/Seq/Cost while commits run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopSnap:
					return
				default:
				}
				_ = l.Snapshot().Len()
				_ = l.Seq()
				_ = l.Cost()
			}
		}()
	}

	// Committers: each owns a disjoint id range; every iteration adds a
	// fresh NYC person befriended by the watched p=1, then removes both —
	// answers genuinely appear and disappear under the readers.
	commitErr := make(chan error, committers)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(1_000_000 + 100_000*w)
			for i := int64(0); i < perCommitter; i++ {
				u := relation.NewUpdate()
				id := base + i
				u.Insert("person", relation.NewTuple(relation.Int(id), relation.Str("w"), relation.Str("NYC")))
				u.Insert("friend", relation.Ints(1, id))
				if _, err := eng.Commit(ctx, u); err != nil {
					commitErr <- err
					return
				}
				if _, err := eng.Commit(ctx, u.Inverse()); err != nil {
					commitErr <- err
					return
				}
			}
			commitErr <- nil
		}(w)
	}
	for w := 0; w < committers; w++ {
		if err := <-commitErr; err != nil {
			t.Fatalf("committer: %v", err)
		}
	}
	close(stopSnap)
	if err := l.Err(); err != nil {
		t.Fatalf("live handle failed under concurrency: %v", err)
	}
	l.Close()
	wg.Wait()

	// Every inserted answer was later deleted: the folded stream must land
	// exactly on the final snapshot, which must equal a fresh execution.
	ans, err := prep.Exec(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Snapshot().Equal(ans.Tuples) {
		t.Fatal("final snapshot diverged from fresh execution")
	}
	foldedMu.Lock()
	defer foldedMu.Unlock()
	if !folded.Equal(ans.Tuples) {
		t.Fatalf("folding the delta stream diverged from the final answers (%d ins / %d del consumed)",
			insSeen.Load(), delSeen.Load())
	}
	if insSeen.Load() == 0 || delSeen.Load() == 0 {
		t.Fatal("the concurrent workload produced no visible deltas")
	}
}
