package shard

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// Readers (bounded prepared executions and full scatter scans) run
// against concurrent ApplyVersioned writers hitting different shards. Run
// under `go test -race ./...`: the per-shard RWMutexes, the forked
// per-call stats and the atomic counters must keep every view coherent.
func TestShardedReadersVsWriters(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	cfg.Seed = 17
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(data, workload.Access(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(s)
	q, err := parser.ParseQuery(workload.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const readers, writers, rounds = 6, 3, 40
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := (g*7 + i) % cfg.Persons
				ans, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(int64(p))})
				if err != nil {
					t.Error(err)
					return
				}
				if ans.Cost.TupleReads > prep.Plan().Bound.Reads {
					t.Errorf("reader %d: cost %s exceeds static bound %s", g, ans.Cost.String(), prep.Plan().Bound)
					return
				}
				if i%8 == 0 {
					if _, err := s.ScanInto(&store.ExecStats{Ctx: ctx}, "friend"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	// Each writer inserts and removes its own key range: updates are valid
	// regardless of interleaving, and different keys hash to different
	// shards, exercising the per-shard write locks concurrently.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(100000 + 1000*w)
			for i := 0; i < rounds; i++ {
				ins := relation.NewUpdate()
				for k := int64(0); k < 8; k++ {
					ins.Insert("friend", relation.Tuple{relation.Int(base + k), relation.Int(k)})
				}
				if _, err := s.ApplyVersioned(ins); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.ApplyVersioned(ins.Inverse()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if err := s.Conforms(); err != nil {
		t.Fatalf("after concurrent updates: %v", err)
	}
	if s.Size() != data.Size() {
		t.Fatalf("size %d after balanced insert/delete rounds, want %d", s.Size(), data.Size())
	}
}

// Rows cursors, half of them abandoned mid-stream, run against
// concurrent per-shard writers. Run under `go test -race ./...`: the
// scatter-gather fetches and the lazy cursor pipeline must never expose a
// torn view or leak work after Close.
func TestShardedCursorReadersVsWriters(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	cfg.Seed = 23
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(data, workload.Access(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(s)
	q, err := parser.ParseQuery(workload.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const readers, writers, rounds = 6, 3, 40
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := (g*11 + i) % cfg.Persons
				rows, err := prep.Query(ctx, query.Bindings{"p": relation.Int(int64(p))})
				if err != nil {
					t.Error(err)
					return
				}
				// Half the cursors are drained, half abandoned after one pull.
				for rows.Next() {
					if i%2 == 1 {
						break
					}
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
					rows.Close()
					return
				}
				if rows.Cost().TupleReads > prep.Plan().Bound.Reads {
					t.Errorf("reader %d: streamed cost exceeds static bound", g)
				}
				rows.Close()
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(200000 + 1000*w)
			for i := 0; i < rounds; i++ {
				ins := relation.NewUpdate()
				for k := int64(0); k < 8; k++ {
					ins.Insert("friend", relation.Tuple{relation.Int(base + k), relation.Int(k)})
				}
				if _, err := s.ApplyVersioned(ins); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.ApplyVersioned(ins.Inverse()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if s.Size() != data.Size() {
		t.Fatalf("size %d after balanced insert/delete rounds, want %d", s.Size(), data.Size())
	}
}
