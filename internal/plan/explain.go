package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/store"
)

// Explain renders the operator tree, one operator per line with its
// static cost bound, indented by depth — the EXPLAIN output surfaced
// through the serving API and sirun -explain.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s — %s\n", indent, n.Describe(), n.Bound())
	if ch, ok := n.(*ChaseExec); ok {
		for _, s := range ch.Steps {
			fmt.Fprintf(b, "%s  step: %s\n", indent, s.Format(ch.vars))
		}
	}
	EachChild(n, func(c Node) { explain(b, c, depth+1) })
}

// ExplainAnalyze renders the operator tree like Explain, but follows each
// operator's static bound with the actuals of one traced execution: rows
// yielded to the consumer, tuple reads charged (attributed per operator by
// the storage layer, so reads appear on the data-access operators that
// caused them and sum exactly to the call's TupleReads), wall time inside
// the operator's cursor (inclusive of children), and the scatter-gather
// branches it forked, summed over the call, where any. ops is the execution's per-operator record, store.ExecStats.Ops;
// it may be nil or short, rendering zeros.
func ExplainAnalyze(n Node, ops []store.OpCharge) string {
	var b strings.Builder
	explainAnalyze(&b, n, ops, 0)
	return b.String()
}

func explainAnalyze(b *strings.Builder, n Node, ops []store.OpCharge, depth int) {
	indent := strings.Repeat("  ", depth)
	var oc store.OpCharge
	if id := n.OpID(); id >= 0 && id < len(ops) {
		oc = ops[id]
	}
	fmt.Fprintf(b, "%s%s — %s | actual: rows=%d reads=%d wall=%s",
		indent, n.Describe(), n.Bound(), oc.Rows, oc.Counters.TupleReads, oc.Wall.Round(time.Microsecond))
	if oc.Forks > 0 {
		fmt.Fprintf(b, " branches=%d", oc.Forks)
	}
	b.WriteByte('\n')
	if ch, ok := n.(*ChaseExec); ok {
		for _, s := range ch.Steps {
			fmt.Fprintf(b, "%s  step: %s\n", indent, s.Format(ch.vars))
		}
	}
	EachChild(n, func(c Node) { explainAnalyze(b, c, ops, depth+1) })
}

// AtomOrder lists, left to right, the operator chain's data-access
// operators (lookups, probes, scans and chase steps) in execution order —
// the "chosen order" line of EXPLAIN output.
func AtomOrder(n Node) []string {
	var out []string
	var walk func(Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *IndexLookup:
			out = append(out, v.Atom.String())
		case *MembershipProbe:
			out = append(out, v.Atom.String()+"?")
		case *NaiveScan:
			out = append(out, v.Atom.String())
		case *Select:
			out = append(out, v.Cond.String())
		case *ChaseExec:
			for _, s := range v.Steps {
				if s.Atom != nil {
					out = append(out, s.Atom.String())
				}
			}
		case *AntiProbe:
			walk(v.Pos)
			out = append(out, "¬("+strings.Join(AtomOrder(v.Neg), ",")+")?")
			return
		default:
			EachChild(n, walk)
		}
	}
	walk(n)
	return out
}
