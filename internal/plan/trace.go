package plan

import (
	"time"

	"repro/internal/query"
)

// This file is the ANALYZE half of EXPLAIN: operator identity (stable
// plan-wide ids) and the stream instrumentation that fills each
// operator's rows and wall time into the call's per-operator record,
// store.ExecStats.Ops. Everything here is strictly pay-as-you-go: with
// ANALYZE off, traced() returns the operator's stream unchanged and the
// only cost is one type check per cursor open.

// opID carries an operator's plan-wide id. Embedding it implements the
// identity (and sealing) part of Node for every operator in this package.
type opID struct{ id int }

// OpID returns the operator's plan-wide id: its pre-order position in the
// compiled tree, assigned once by AssignOpIDs. Operators never numbered
// report 0; ids only become meaningful — and are only consumed — when a
// plan was numbered and the execution allocated per-operator slots.
func (o *opID) OpID() int { return o.id }

func (o *opID) setOpID(i int) { o.id = i }

// AssignOpIDs numbers the operator tree pre-order (root = 0) and returns
// the operator count. The compiler calls it once per plan, after
// optimization and route resolution have settled the final tree shape, so
// ids are stable for the plan's lifetime and index the per-operator slots
// of store.ExecStats.Ops.
func AssignOpIDs(root Node) int {
	n := 0
	var walk func(Node)
	walk = func(nd Node) {
		nd.setOpID(n)
		n++
		EachChild(nd, walk)
	}
	walk(root)
	return n
}

// traced wraps an operator's binding stream with row counting and wall
// timing into the operator's slot of the call's per-operator record
// (store.ExecStats.Ops) when the execution runs under ANALYZE; otherwise
// it returns s unchanged, so the untraced hot path allocates nothing
// extra. Only a BackendRuntime carries that record.
func traced(rt Runtime, op int, s Seq) Seq {
	br, ok := rt.(BackendRuntime)
	if !ok || br.Es == nil || op < 0 || op >= len(br.Es.Ops) {
		return s
	}
	st := &br.Es.Ops[op]
	return func(yield func(b query.Bindings, err error) bool) {
		start := time.Now()
		s(func(b query.Bindings, err error) bool {
			st.Wall += time.Since(start)
			if err == nil {
				st.Rows++
			}
			ok := yield(b, err)
			start = time.Now()
			return ok
		})
		st.Wall += time.Since(start)
	}
}
