package core_test

import (
	"context"
	"testing"

	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/qdsi"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestWitnessLadder checks the paper's witness ladder for Q1–Q4 on a
// 240-person instance: for every 8th person with a non-empty answer,
// D_Q answers like D (Q(D_Q) = Q(D)), |D_Q| ≤ reads ≤ M, and the reads
// per query, summed over the sample, stay below a pinned multiple of the
// summed minimum witness sizes (qdsi.DecideCQ with the anchor p
// substituted). The ceilings are the measured ratios (3.372, 2.910, 2.867
// and 1.026) rounded up: they may only fall. Fetching every group twice
// keeps the answers and reads ≤ M but doubles the ratio, and fails the
// ceiling.
func TestWitnessLadder(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Seed = 240, 11
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st)
	for _, tc := range []struct {
		name, src string
		ceiling   float64 // Σ reads ÷ Σ min witness
	}{
		{"Q1", workload.Q1Src, 3.38},
		{"Q2", workload.Q2Src, 2.92},
		{"Q3", workload.Q3Src, 2.87},
		{"Q4", backendtest.Q4Src, 1.03},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := goldenQuery(t, tc.src)
			cq, ok := query.AsCQ(q)
			if !ok {
				t.Fatalf("%s is not conjunctive", tc.name)
			}
			prep, err := eng.Prepare(q, query.NewVarSet("p"))
			if err != nil {
				t.Fatal(err)
			}
			var reads, minWitness int64
			sampled, nonEmpty := 0, 0
			for p := int64(0); p < int64(cfg.Persons); p++ {
				fixed := query.Bindings{"p": relation.Int(p)}
				ans, err := prep.Exec(context.Background(), fixed)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Tuples.Len() == 0 {
					continue
				}
				nonEmpty++
				if (nonEmpty-1)%8 != 0 {
					continue
				}
				sampled++
				want, err := eval.Answers(eval.DBSource{DB: data}, q, fixed)
				if err != nil {
					t.Fatal(err)
				}
				overDQ, err := eval.Answers(eval.DBSource{DB: ans.DQ.Database(data.Schema())}, q, fixed)
				if err != nil {
					t.Fatal(err)
				}
				if !overDQ.Equal(want) {
					t.Fatalf("p=%d: Q(D_Q) %v, Q(D) %v", p, overDQ.Tuples(), want.Tuples())
				}
				dq, r, m := int64(ans.DQ.Distinct()), ans.Cost.TupleReads, ans.Plan.Bound.Reads
				if dq > r || r > m {
					t.Fatalf("p=%d: |D_Q| %d ≤ reads %d ≤ M %d does not hold", p, dq, r, m)
				}
				anchored := cq.Rename(query.Subst{"p": query.Const(relation.Int(p))})
				dec, err := qdsi.DecideCQ(anchored, data, int(m), qdsi.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !dec.InSQ || int64(dec.WitnessSize) > dq {
					t.Fatalf("p=%d: minimum witness %d (in SQ %v) above |D_Q| %d", p, dec.WitnessSize, dec.InSQ, dq)
				}
				reads += r
				minWitness += int64(dec.WitnessSize)
			}
			if sampled == 0 || minWitness == 0 {
				t.Fatalf("no persons sampled (%d with answers)", nonEmpty)
			}
			ratio := float64(reads) / float64(minWitness)
			t.Logf("%s: %d persons sampled, reads %d, min witness %d, reads ÷ min %.3f", tc.name, sampled, reads, minWitness, ratio)
			if ratio > tc.ceiling {
				t.Errorf("%s: reads ÷ min witness %.3f above its ceiling %.2f", tc.name, ratio, tc.ceiling)
			}
		})
	}
}
