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

// TestDropViewUnderPreparedPlan: a plan prepared through a view keeps
// reading it after DropView retracts it; its next fetch fails with an
// error that wraps store.ErrUnknownRelation, on the single-node and the
// sharded backend.
func TestDropViewUnderPreparedPlan(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() (store.Backend, error)
	}{
		{"store", func() (store.Backend, error) { return store.Open(data.Clone(), workload.Access(cfg)) }},
		{"shard", func() (store.Backend, error) { return shard.Open(data.Clone(), workload.Access(cfg), 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.open()
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
			if err := eng.DropView("VFol"); err != nil {
				t.Fatal(err)
			}
			_, err = prep.Exec(context.Background(), query.Bindings{"p": relation.Int(7)})
			if !errors.Is(err, store.ErrUnknownRelation) {
				t.Fatalf("Exec after DropView: err = %v, want store.ErrUnknownRelation", err)
			}
		})
	}
}
