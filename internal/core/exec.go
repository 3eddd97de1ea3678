package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/query"
)

// Execution is delegated to the physical operator layer: Engine.Prepare
// compiles a derivation (compile.go) into an internal/plan operator tree,
// and PreparedQuery.Query/Exec pull answers from its streaming
// interpreter (rows.go). Work — store fetches, membership probes, and
// therefore TupleReads, budget consumption and witness recording — is
// charged only as answers are pulled, so a consumer that stops early
// (Rows with WithLimit, First, a canceled context) stops charging.

// Plan is a compiled bounded evaluation: the controllability derivation
// it was compiled from, the physical operator tree that executes it, and
// the static cost bound of that tree. Bound is always derived from the
// access schema's N values — an optimized plan may carry a tighter bound
// than the raw derivation (membership upgrades), never a looser one than
// its own operators guarantee.
type Plan struct {
	Derivation *Derivation
	Bound      plan.Cost
	// Root is the physical operator tree the executor interprets.
	Root plan.Node
	// Vars numbers the query's variables: Root's operators keep their
	// variable sets (Out, Need) as masks over it.
	Vars *plan.Vars
	// Mode records how Root was produced (analysis order vs cost-based).
	Mode OptimizerMode
	// NumOps is the number of operators in Root (pre-order IDs 0..NumOps-1),
	// sizing the per-operator runtime trace of EXPLAIN ANALYZE.
	NumOps int
	// Views names the materialized views the plan reads, in body order —
	// empty for a pure base plan. Rescued marks a plan serving a query
	// that is not controllable over the base relations and is answered
	// through a view rewriting instead (Theorem 6.1).
	Views   []string
	Rescued bool
}

// Explain renders the physical operator tree with per-operator static
// bounds and the chosen access order — the EXPLAIN of the serving API.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "physical plan (%s, optimizer %s)\n", p.Bound, p.Mode)
	fmt.Fprintf(&b, "order: %s\n", strings.Join(plan.AtomOrder(p.Root), ", "))
	if len(p.Views) > 0 {
		tag := ""
		if p.Rescued {
			tag = " (rescued: base query not controllable)"
		}
		fmt.Fprintf(&b, "views: %s%s\n", strings.Join(p.Views, ", "), tag)
	}
	b.WriteString(plan.Explain(p.Root))
	return b.String()
}

// Describe renders a human-readable plan: the operator tree plus the
// derivation it proves bounded.
func (p *Plan) Describe() string {
	var b strings.Builder
	b.WriteString(p.Explain())
	b.WriteString("derived from:\n")
	b.WriteString(p.Derivation.Explain())
	return b.String()
}

// remainingHead lists head variables not fixed by the caller, preserving
// head order.
func remainingHead(head []string, fixed query.Bindings) []string {
	var out []string
	for _, h := range head {
		if _, ok := fixed[h]; !ok {
			out = append(out, h)
		}
	}
	return out
}

// varsSorted is a tiny helper for diagnostics.
func varsSorted(b query.Bindings) string {
	vs := make([]string, 0, len(b))
	for v := range b {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return strings.Join(vs, ",")
}
