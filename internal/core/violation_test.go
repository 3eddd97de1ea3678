package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// Stored data that breaks its access schema is a fault of the data, not
// of the request: when person 7 has 55 friends under N = 50, Q1 for p = 7
// fails with ErrAccessViolation on one node and on two shards — never
// with the request taxonomy's ErrInvalidQuery — and Q1 for a conforming
// person still answers.
func TestExecReportsAccessViolation(t *testing.T) {
	backends := []struct {
		name string
		open func(*relation.Database, *access.Schema) (store.Backend, error)
	}{
		{"single", func(d *relation.Database, a *access.Schema) (store.Backend, error) { return store.Open(d, a) }},
		{"shard2", func(d *relation.Database, a *access.Schema) (store.Backend, error) { return shard.Open(d, a, 2) }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			cfg := workload.DefaultConfig()
			cfg.Persons = 200
			data, err := backendtest.OverfullFriends(cfg, 7, 55)
			if err != nil {
				t.Fatal(err)
			}
			b, err := be.open(data, workload.Access(cfg))
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(b)
			q1 := goldenQuery(t, workload.Q1Src)
			prep, err := eng.Prepare(q1, query.NewVarSet("p"))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			_, err = prep.Exec(ctx, query.Bindings{"p": relation.Int(7)})
			if !errors.Is(err, core.ErrAccessViolation) || errors.Is(err, core.ErrInvalidQuery) {
				t.Fatalf("Q1(p = 7) over 55 friends: err = %v, want ErrAccessViolation", err)
			}
			if _, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(8)}); err != nil {
				t.Fatalf("Q1(p = 8) on conforming group: %v", err)
			}
		})
	}
}
