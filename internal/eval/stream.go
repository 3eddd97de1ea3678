// Streaming naive evaluation: conjunctive queries compile to the same
// physical operator IR (internal/plan) the bounded engine interprets —
// NaiveScan leaves chained by pipelined NLJoins — and stream through its
// resumable generators. The eager entry points (Answers, AnswersCQ) are
// full drains of these streams, so their answers and measured counters
// are unchanged; a consumer that stops early (LIMIT serving, First,
// cancellation) skips the scans of join branches it never reached. Over
// the uncounted DBSource, scans with known arguments are answered by key
// (dbRuntime); counted sources keep the nested loop and its full-scan
// charges.

package eval

import (
	"fmt"
	"iter"

	"repro/internal/access"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Stream returns the lazy, deduplicated answer stream of q with the head
// variables in fixed bound: the cursor form of Answers. At most one
// non-nil error is yielded, as the final element.
func Stream(src Source, q *query.Query, fixed query.Bindings) iter.Seq2[relation.Tuple, error] {
	qf := q
	if len(fixed) > 0 {
		qf = q.Fix(fixed)
	}
	if cq, ok := query.AsCQ(qf); ok {
		return StreamCQ(src, cq, nil)
	}
	return streamFO(src, qf)
}

// sourceRuntime adapts a Source to the physical-plan runtime: the naive
// fallback's joins interpret the same operator IR the bounded engine
// runs, with NaiveScan leaves reading through the source's (memoized,
// charged) scan path. Fetch is never called — naive plans contain no
// indexed access.
type sourceRuntime struct{ src Source }

// Fetch implements plan.Runtime; unreachable for naive plans.
func (rt sourceRuntime) Fetch(_ int, e access.Entry, vals []relation.Value, r store.FetchRoute) ([]relation.Tuple, error) {
	return nil, fmt.Errorf("eval: indexed fetch %s in a naive plan", e.Rel)
}

// Member implements plan.Runtime.
func (rt sourceRuntime) Member(_ int, rel string, t relation.Tuple) (bool, error) {
	return rt.src.Contains(rel, t)
}

// Scan implements plan.Runtime: every scan reads the source's
// materialized (memoized) snapshot, so a self-join sees one version of
// the relation even under concurrent writers.
func (rt sourceRuntime) Scan(_ int, rel string) iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		ts, err := rt.src.Tuples(rel)
		if err != nil {
			yield(nil, err)
			return
		}
		for _, t := range ts {
			if !yield(t, nil) {
				return
			}
		}
	}
}

// Check implements plan.Runtime: cancellation is enforced on the charged
// store accesses themselves (ExecStats.Ctx), as before the IR rewrite.
func (rt sourceRuntime) Check() error { return nil }

// runtimeFor picks the runtime of one evaluation over src. The uncounted
// DBSource gets keyed inner scans (dbRuntime); counted sources keep the
// nested loop, so every naive scan is charged in full.
func runtimeFor(src Source) plan.Runtime {
	if db, ok := src.(DBSource); ok {
		return &dbRuntime{sourceRuntime: sourceRuntime{src: db}, index: make(map[keyedScan]map[string][]relation.Tuple)}
	}
	return sourceRuntime{src: src}
}

// keyedScan names one hash index of an evaluation: a relation keyed on
// the argument positions set in mask.
type keyedScan struct {
	rel  string
	mask uint64
}

// dbRuntime is the runtime of one evaluation over a DBSource. It
// implements plan.KeyedScanner, which turns the naive NLJoin chain into
// a hash join: the second probe of a (relation, positions) pair builds a
// map from key to the relation's matching tuples, each bucket in scan
// order, so the output order is the nested loop's and the whole
// evaluation costs O(Σ|R| + |answers|) instead of Π|R|. The first probe
// scans and filters, so an atom reached once (the outermost scan, a fully
// fixed query) pays no build it never reuses. The indexes live for one
// evaluation; like the snapshot a StoreSource memoizes, they must not
// outlive updates to the database.
type dbRuntime struct {
	sourceRuntime
	// index holds a nil map for a pair probed once, the built index after
	// the second probe.
	index map[keyedScan]map[string][]relation.Tuple
	kb    []byte
}

// ScanKeyed implements plan.KeyedScanner.
func (rt *dbRuntime) ScanKeyed(_ int, rel string, positions []int, vals []relation.Value) ([]relation.Tuple, error) {
	ts, err := rt.src.Tuples(rel)
	if err != nil {
		return nil, err
	}
	k := keyedScan{rel: rel}
	for _, p := range positions {
		if p >= 64 {
			return filterAt(ts, positions, vals), nil
		}
		k.mask |= 1 << p
	}
	ix, probed := rt.index[k]
	if !probed {
		rt.index[k] = nil
		return filterAt(ts, positions, vals), nil
	}
	if ix == nil {
		ix = make(map[string][]relation.Tuple)
		last := positions[len(positions)-1]
		for _, t := range ts {
			if len(t) <= last {
				continue // cannot unify with the atom
			}
			rt.kb = t.AppendKeyAt(rt.kb[:0], positions)
			ix[string(rt.kb)] = append(ix[string(rt.kb)], t)
		}
		rt.index[k] = ix
	}
	rt.kb = relation.Tuple(vals).AppendKey(rt.kb[:0])
	return ix[string(rt.kb)], nil
}

// filterAt returns the tuples of ts whose values at positions equal vals,
// in scan order.
func filterAt(ts []relation.Tuple, positions []int, vals []relation.Value) []relation.Tuple {
	var out []relation.Tuple
next:
	for _, t := range ts {
		for i, p := range positions {
			if p >= len(t) || !t[p].Equal(vals[i]) {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}

// compileCQ lowers a conjunctive query to its physical plan: one
// NaiveScan leaf per atom in the greedy most-bound-first order, chained
// by non-deduplicating NLJoins (the naive join deduplicates only at the
// head, exactly like the reference backtracking evaluator). The joins
// output the atoms' variables; a variable only env binds is read from env.
func compileCQ(atoms []*query.Atom, env query.Bindings) (plan.Node, error) {
	ordered := atomOrder(atoms, env)
	vt, err := plan.NumberAtoms(ordered)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	var root plan.Node
	for i, a := range ordered {
		leaf := plan.NewNaiveScan(vt, a, vt.Args(i))
		if root == nil {
			root = leaf
			continue
		}
		j := plan.NewNLJoin(vt, root, leaf, 0, root.Out()|leaf.Out())
		j.NoDedup = true
		root = j
	}
	return root, nil
}

// StreamCQ evaluates a conjunctive query as a pipelined join over the
// physical operator IR: the query compiles to a NaiveScan/NLJoin plan
// (see compileCQ) and answers are yielded as the innermost scan matches.
// Inner atoms' scans are issued only when the join first reaches them —
// so an early-terminated consumer charges only the scans of the branches
// it actually explored. A full drain performs exactly the scans
// AnswersCQ performs.
func StreamCQ(src Source, cq *query.CQ, fixed query.Bindings) iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		q := cq
		if len(cq.Eqs) > 0 {
			var ok bool
			q, ok = cq.ApplyEqs()
			if !ok {
				return
			}
		}
		env := make(query.Bindings, len(fixed))
		for k, v := range fixed {
			env[k] = v
		}
		root, err := compileCQ(q.Atoms, env)
		if err != nil {
			yield(nil, err)
			return
		}
		seen := make(map[string]bool)
		emit := func(b query.Bindings) bool {
			t := make(relation.Tuple, len(q.Head))
			for j, h := range q.Head {
				if h.IsVar() {
					v, ok := b[h.Name()]
					if !ok {
						v, ok = env[h.Name()]
					}
					if !ok {
						yield(nil, fmt.Errorf("eval: head variable %q unbound after all atoms", h.Name()))
						return false
					}
					t[j] = v
				} else {
					t[j] = h.Value()
				}
			}
			k := t.Key()
			if seen[k] {
				return true
			}
			seen[k] = true
			return yield(t, nil)
		}
		if root == nil {
			// No atoms: the (equality-filtered) head over env alone.
			emit(env)
			return
		}
		rt := runtimeFor(src)
		for b, err := range root.Stream(rt, env) {
			if err != nil {
				yield(nil, err)
				return
			}
			if !emit(b) {
				return
			}
		}
	}
}

// streamFO enumerates head assignments over the active domain lazily,
// yielding each (deduplicated) satisfying tuple as it is found — the
// cursor form of the exponential FO oracle.
func streamFO(src Source, q *query.Query) iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		dom, err := Domain(src, q.Body)
		if err != nil {
			yield(nil, err)
			return
		}
		adom, err := ActiveDomain(src)
		if err != nil {
			yield(nil, err)
			return
		}
		seen := make(map[string]bool)
		env := make(query.Bindings, len(q.Head))
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(q.Head) {
				ok, err := Truth(src, q.Body, env, dom)
				if err != nil {
					yield(nil, err)
					return false
				}
				if !ok {
					return true
				}
				t := make(relation.Tuple, len(q.Head))
				for j, v := range q.Head {
					t[j] = env[v]
				}
				k := t.Key()
				if seen[k] {
					return true
				}
				seen[k] = true
				return yield(t, nil)
			}
			// Answers are tuples over adom(D) per the paper's definition.
			for _, val := range adom {
				env[q.Head[i]] = val
				if !rec(i + 1) {
					return false
				}
			}
			delete(env, q.Head[i])
			return true
		}
		rec(0)
	}
}
