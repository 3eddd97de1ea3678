package backendtest

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// analyzeConformance pins the EXPLAIN ANALYZE instrumentation to the
// accounting it claims to explain, on the backend under test with the
// optimizer both on and off:
//
//   - attribution is exact: for every experiment query (Q1–Q5) and many
//     bindings, the per-operator charges summed over the plan equal the
//     cursor's total Counters bit-identically — every field, not just
//     TupleReads. There is no second bookkeeper to drift: ChargeTo is
//     the single charging primitive, so a mismatch means an operator
//     failed to pin itself around a data access;
//   - tracing is observationally inert: an analyzed run charges exactly
//     what the same execution charges without analysis;
//   - the rendering is live: Analyze() reports every operator and the
//     actual totals;
//   - the disabled path is free: with no Ops slice attached, the charge
//     hot path performs zero allocations, and attribution itself adds
//     zero allocations when enabled (testing.AllocsPerRun).
func analyzeConformance(t *testing.T, cfg workload.Config, b store.Backend) {
	ctx := context.Background()
	qcs := append(cases(cfg), queryCase{"Q5", Q5Src, []string{"p"}, func(i int) query.Bindings {
		return query.Bindings{"p": relation.Int(int64(i % cfg.Persons))}
	}})
	for _, mode := range []core.OptimizerMode{core.OptimizerOn, core.OptimizerOff} {
		eng := core.NewEngine(b)
		eng.SetOptimizer(mode)
		for _, qc := range qcs {
			q := mustQuery(t, qc.src)
			prep := mustPrepare(t, eng, q, qc.ctrl)
			for i := 0; i < 12; i++ {
				fixed := qc.bind(i * 7)
				plain, err := prep.Exec(ctx, fixed)
				if err != nil {
					t.Fatalf("%s %v [%v]: %v", qc.name, fixed, mode, err)
				}
				rows, err := prep.Query(ctx, fixed, core.WithAnalyze())
				if err != nil {
					t.Fatalf("%s %v [%v]: %v", qc.name, fixed, mode, err)
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s %v [%v]: analyzed cursor failed: %v", qc.name, fixed, mode, err)
				}
				if rows.Cost() != plain.Cost {
					t.Fatalf("%s %v [%v]: analyzed run charged %+v, plain run %+v — tracing changed the accounting",
						qc.name, fixed, mode, rows.Cost(), plain.Cost)
				}
				ops := rows.OpCharges()
				if len(ops) == 0 {
					t.Fatalf("%s %v [%v]: analyzed cursor recorded no operator charges", qc.name, fixed, mode)
				}
				var sum store.Counters
				for _, oc := range ops {
					sum.Add(oc.Counters)
				}
				if sum != rows.Cost() {
					t.Fatalf("%s %v [%v]: per-operator charges sum to %+v, cursor total %+v — attribution leaked",
						qc.name, fixed, mode, sum, rows.Cost())
				}
				if out := rows.Analyze(); !strings.Contains(out, "actual:") || !strings.Contains(out, "physical plan") {
					t.Fatalf("%s %v [%v]: Analyze() rendering incomplete:\n%s", qc.name, fixed, mode, out)
				}
			}
			// A plain cursor must carry no trace state at all: the disabled
			// path is a nil, not an empty trace.
			rows, err := prep.Query(ctx, qc.bind(0))
			if err != nil {
				t.Fatal(err)
			}
			for rows.Next() {
			}
			if rows.OpCharges() != nil {
				t.Fatalf("%s [%v]: un-analyzed cursor carries trace state", qc.name, mode)
			}
		}
	}

	// The charging hot path: zero allocations with attribution off (the
	// production default) and zero with it on — the per-operator slices
	// are allocated once at cursor open, never per charge.
	c := store.Counters{TupleReads: 1, IndexLookups: 1}
	esOff := &store.ExecStats{}
	if a := testing.AllocsPerRun(1000, func() { esOff.ChargeTo(c) }); a != 0 {
		t.Fatalf("ChargeTo with attribution off: %v allocs/op, want 0", a)
	}
	esOn := &store.ExecStats{Ops: make([]store.OpCharge, 8), CurOp: 3}
	if a := testing.AllocsPerRun(1000, func() { esOn.ChargeTo(c) }); a != 0 {
		t.Fatalf("ChargeTo with attribution on: %v allocs/op, want 0", a)
	}
}
