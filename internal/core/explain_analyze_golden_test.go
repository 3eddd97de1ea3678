package core_test

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
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

// explainAnalyzeGoldenPath holds the EXPLAIN ANALYZE renderings
// TestExplainAnalyzeGolden pins. On a mismatch the test writes what it
// computed next to it with a .got suffix; review the difference and move
// it over the golden to accept it.
var explainAnalyzeGoldenPath = filepath.Join("testdata", "explainanalyze.golden")

// wallColumn matches the one timing figure of an ANALYZE line.
var wallColumn = regexp.MustCompile(`wall=\S+`)

// TestExplainAnalyzeGolden pins the per-operator actuals of EXPLAIN
// ANALYZE byte for byte, wall times masked: rows yielded, tuple reads
// attributed and scatter branches of every operator, for Q1–Q4 at several
// bindings on the single-node store and on four hash shards, routed by
// default and with visit routed off the person key.
func TestExplainAnalyzeGolden(t *testing.T) {
	checkGolden(t, explainAnalyzeGoldenPath, explainAnalyzeGolden(t))
}

func explainAnalyzeGolden(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = 120
	cfg.Seed = 5
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := workload.Access(cfg)
	backends := []struct {
		name string
		open func(*relation.Database, *access.Schema) (store.Backend, error)
	}{
		{"store", func(d *relation.Database, a *access.Schema) (store.Backend, error) { return store.Open(d, a) }},
		{"shard4", func(d *relation.Database, a *access.Schema) (store.Backend, error) { return shard.Open(d, a, 4) }},
		// visit routed on rid: its lookups by person scatter, so the
		// golden pins branches= too.
		{"shard4-visit-by-rid", func(d *relation.Database, a *access.Schema) (store.Backend, error) {
			return shard.Open(d, a, 4, shard.WithRoute("visit", "rid"))
		}},
	}
	p := func(i int) query.Bindings { return query.Bindings{"p": relation.Int(int64(i))} }
	queries := []struct {
		name, src string
		ctrl      []string
		bind      func(int) query.Bindings
	}{
		{"Q1", workload.Q1Src, []string{"p"}, p},
		{"Q2", workload.Q2Src, []string{"p"}, p},
		{"Q3", workload.Q3Src, []string{"p", "yy"}, func(i int) query.Bindings {
			return query.Bindings{"p": relation.Int(int64(i)), "yy": relation.Int(int64(cfg.Years[i%len(cfg.Years)]))}
		}},
		{"Q4", backendtest.Q4Src, []string{"p"}, p},
	}
	ctx := context.Background()
	var b strings.Builder
	for _, be := range backends {
		st, err := be.open(data.Clone(), acc)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(st)
		for _, q := range queries {
			prep, err := eng.Prepare(goldenQuery(t, q.src), query.NewVarSet(q.ctrl...))
			if err != nil {
				t.Fatalf("%s %s: %v", be.name, q.name, err)
			}
			for _, i := range []int{0, 7, 42, 119} {
				fixed := q.bind(i)
				rows, err := prep.Query(ctx, fixed, core.WithAnalyze())
				if err != nil {
					t.Fatalf("%s %s %v: %v", be.name, q.name, fixed, err)
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s %s %v: %v", be.name, q.name, fixed, err)
				}
				fmt.Fprintf(&b, "== %s %s %v\n%s", be.name, q.name, fixed, wallColumn.ReplaceAllString(rows.Analyze(), "wall=*"))
			}
		}
	}
	return b.String()
}
