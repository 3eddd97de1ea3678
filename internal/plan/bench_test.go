package plan_test

// Plan-layer benchmarks, run by the CI bench smoke with -benchmem:
// compile+optimize latency (the one-time Prepare cost the plan cache
// amortizes) and execution of cost-ordered vs analysis-order plans on
// the reordering showcase query.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

const q5Src = "Q5(p, rn) := exists f, rid, yy, mm, dd, city, rating (friend(p, f) and visit(f, rid, yy, mm, dd) and restr(rid, rn, city, rating) and not (exists fn (person(f, fn, 'NYC'))))"

// BenchmarkCompilePlan measures Derivation→IR compilation alone.
func BenchmarkCompilePlan(b *testing.B) {
	st := socialStore(b, 200, 0)
	eng := core.NewEngine(st)
	q := mustQuery(b, q5Src)
	d, err := eng.Controllable(q, query.NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Compile(d) == nil {
			b.Fatal("nil plan")
		}
	}
}

// BenchmarkPrepareOptimized measures the full Prepare path — analysis,
// compile, optimize, route resolution — with the plan cache disabled.
func BenchmarkPrepareOptimized(b *testing.B) {
	st := socialStore(b, 200, 0)
	eng := core.NewEngine(st)
	eng.SetPlanCacheSize(0)
	q := mustQuery(b, q5Src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Prepare(q, query.NewVarSet("p")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareCold measures Prepare on a plan-cache miss as an ad-hoc
// query stream pays it: renamed variants of Q1–Q7 in turn, with the VFol
// view registered (so Q6 is rescued through it and the other CQs search
// its rewritings too) and the plan cache disabled.
func BenchmarkPrepareCold(b *testing.B) {
	eng := viewEngine(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	prepareCold(b, eng)
}

// BenchmarkPrepareViews is BenchmarkPrepareCold with more views to search:
// VFol and VNYC (views=2), plus six generated views (views=8).
func BenchmarkPrepareViews(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			eng := viewEngine(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			prepareCold(b, eng)
		})
	}
}

// viewEngine opens an engine over a small social store with the plan
// cache off and n views registered: VFol, then VNYC, then generated ones.
func viewEngine(b *testing.B, n int) *core.Engine {
	st := socialStore(b, 200, 0)
	eng := core.NewEngine(st)
	vfol, err := parser.ParseCQ(backendtest.VFolSrc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateView(vfol, access.Plain("VFol", []string{"p"}, workload.DefaultConfig().MaxFriends+64, 1)); err != nil {
		b.Fatal(err)
	}
	if n >= 2 {
		vnyc, err := parser.ParseCQ(backendtest.VNYCSrc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.CreateView(vnyc); err != nil {
			b.Fatal(err)
		}
	}
	if n > 2 {
		if _, err := backendtest.CreateGenViews(eng, n-2, 39); err != nil {
			b.Fatal(err)
		}
	}
	eng.SetPlanCacheSize(0)
	return eng
}

// prepareCold prepares b.N renamed variants of Q1–Q7 in turn.
func prepareCold(b *testing.B, eng *core.Engine) {
	type variant struct {
		q    *query.Query
		ctrl query.VarSet
	}
	var vs []variant
	for v := 0; v < 4; v++ {
		for _, src := range []string{workload.Q1Src, workload.Q2Src, workload.Q3Src, backendtest.Q4Src, backendtest.Q5Src, backendtest.Q6Src, backendtest.Q7Src} {
			name := src[:strings.Index(src, "(")]
			q := mustQuery(b, strings.Replace(src, name+"(", fmt.Sprintf("%sv%d(", name, v), 1))
			ctrl := query.NewVarSet("p")
			if name == "Q3" {
				ctrl = query.NewVarSet("p", "yy")
			}
			vs = append(vs, variant{q, ctrl})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		if _, err := eng.Prepare(v.q, v.ctrl); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExec runs the prepared Q5 under the given optimizer mode,
// reporting reads/op next to time/op.
func benchExec(b *testing.B, mode core.OptimizerMode) {
	st := socialStore(b, 2000, 0)
	eng := core.NewEngine(st)
	eng.SetOptimizer(mode)
	q := mustQuery(b, q5Src)
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var reads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(int64(i % 1000))}, core.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		reads += ans.Cost.TupleReads
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// BenchmarkExecAnalysisOrder executes Q5 exactly as analysis emitted it.
func BenchmarkExecAnalysisOrder(b *testing.B) { benchExec(b, core.OptimizerOff) }

// BenchmarkExecCostOrdered executes the cost-ordered Q5 plan (the
// ¬person probe hoisted before the visit expansion).
func BenchmarkExecCostOrdered(b *testing.B) { benchExec(b, core.OptimizerOn) }
