package eval_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// nestedLoop hides a DBSource behind another type, which sends the
// evaluation down the plain nested-loop runtime.
type nestedLoop struct{ eval.DBSource }

// TestCreateViewSeedOrder: the VNYC extent CreateView stores — seeded by
// the keyed DBSource join — holds the nested-loop seed's tuples in the
// nested-loop seed's order.
func TestCreateViewSeedOrder(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	cfg.Seed = 4
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def, err := parser.ParseCQ(backendtest.VNYCSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.AnswersCQ(nestedLoop{eval.DBSource{DB: data}}, def, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data.Clone(), workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewEngine(st).CreateView(def); err != nil {
		t.Fatal(err)
	}
	got := st.Data().Rel("VNYC").Tuples()
	if want.Len() < 100 {
		t.Fatalf("VNYC seed has only %d rows: the check would be vacuous", want.Len())
	}
	if !slices.EqualFunc(got, want.Tuples(), relation.Tuple.Equal) {
		t.Fatalf("VNYC extent (%d rows) differs from the nested-loop seed (%d rows) in content or order", len(got), want.Len())
	}
}

// BenchmarkCreateViewVNYC times CreateView(VNYC) — one seeding join of
// visit with the NYC persons — and reports ns per base tuple: flat across
// sizes when seeding is linear in |D|.
func BenchmarkCreateViewVNYC(b *testing.B) {
	def, err := parser.ParseCQ(backendtest.VNYCSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, persons := range []int{5_000, 30_000} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			cfg := workload.DefaultConfig()
			cfg.Persons = persons
			size := 0
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				// A fresh database per run: CreateView declares VNYC in the
				// schema, which clones share.
				data, err := workload.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				size = data.Size()
				st, err := store.Open(data, workload.Access(cfg))
				if err != nil {
					b.Fatal(err)
				}
				eng := core.NewEngine(st)
				b.StartTimer()
				if _, err := eng.CreateView(def); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
			b.ReportMetric(float64(size), "base_tuples")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/base_tuple")
		})
	}
}
