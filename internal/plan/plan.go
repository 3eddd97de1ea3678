// Package plan is the physical operator IR of the bounded-evaluation
// engine: the executable form a controllability derivation (or a naive
// conjunctive query) compiles into, separated from the *proof* that the
// evaluation is bounded.
//
// The analyzer in internal/core decides that a query is boundedly
// evaluable and emits a derivation; this package decides — and records —
// *how* it is evaluated: which access entry serves each atom, in what
// order the conjuncts run, where deduplication happens, and whether a
// fetch on a partitioned backend is routed to a single shard or
// scatter-gathered (resolved once at plan time, not per fetch). The
// operators are:
//
//   - IndexLookup / ScatterFetch — one bounded indexed retrieval per
//     candidate binding, with the routing decision annotated at plan time;
//   - MembershipProbe — a single tuple-presence probe for a fully bound
//     atom;
//   - Select — an equality-only condition filter (no data access);
//   - NLJoin — the pipelined nested-loop join of two operators;
//   - StreamUnion — disjunct concatenation with streaming cross-branch
//     deduplication;
//   - AntiProbe — safe negation as an emptiness probe: at most one
//     witness of the negated operand is read per candidate;
//   - ForallCheck — the universal rule's generate-and-emptiness-probe
//     loop;
//   - ChaseExec — the depth-first chase of an embedded-controllability
//     plan (Proposition 4.5), one ChaseStep per bounded action;
//   - Project — existential projection / restriction to a target
//     variable set, with deduplication;
//   - NaiveScan — a full relation scan (the naive evaluator's leaf,
//     internal/eval; never part of a bounded plan).
//
// Every operator streams: Stream compiles to a resumable iter.Seq2
// generator, so store work is charged only as the consumer pulls, and the
// eager entry points in internal/core are plain drains. Every operator
// also carries a static cost bound derived from the access schema's N
// values alone (Theorem 4.2's M) — the optimizer in optimize.go orders
// operators by the same N, never by runtime statistics, so "reads ≤ M" is
// a guarantee, not an estimate.
package plan

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Seq streams the satisfying bindings of an operator. At most one non-nil
// error is yielded, as the final element; a binding element always has a
// nil error.
type Seq = iter.Seq2[query.Bindings, error]

// Runtime is the data-access surface operators execute against. The
// engine binds it to a store.Backend (BackendRuntime); the naive
// evaluator binds it to an eval.Source. Implementations charge one call's
// ExecStats (counters, witness trace, budget, deadline) on every access.
//
// Every data access carries the id of the operator performing it (op),
// so a tracing runtime can attribute reads per operator; untraced
// runtimes ignore it.
type Runtime interface {
	// Fetch performs the indexed retrieval licensed by e under the
	// plan-time route r (RouteLocal lets the backend decide per call).
	Fetch(op int, e access.Entry, vals []relation.Value, r store.FetchRoute) ([]relation.Tuple, error)
	// Member probes t ∈ rel.
	Member(op int, rel string, t relation.Tuple) (bool, error)
	// Scan streams all tuples of rel from a coherent snapshot taken, and
	// charged, up front. Only NaiveScan calls it.
	Scan(op int, rel string) iter.Seq2[relation.Tuple, error]
	// Check fails fast once the call's context is canceled or past its
	// deadline. Called at every operator boundary.
	Check() error
}

// KeyedScanner is optionally implemented by a Runtime that can answer a
// NaiveScan by key: ScanKeyed returns the tuples of rel whose values at
// positions (ascending) equal vals, in the order Scan would deliver them.
// A NaiveScan whose atom has constant or env-bound arguments asks it
// instead of scanning the whole relation per outer binding, so the naive
// join becomes a hash join with the nested-loop output order. Only uncounted runtimes may implement it: a counted
// runtime charges every naive scan in full.
type KeyedScanner interface {
	ScanKeyed(op int, rel string, positions []int, vals []relation.Value) ([]relation.Tuple, error)
}

// BackendRuntime runs plans against a store.Backend with per-call stats:
// the engine's runtime. A non-nil Es.Ops (one slot per operator) turns
// ANALYZE on: operators record rows and wall time into it, and data
// accesses pin Es.CurOp so the storage layer attributes every charge to
// the operator that caused it.
type BackendRuntime struct {
	Ctx context.Context
	B   store.Backend
	Es  *store.ExecStats
}

// pin attributes subsequent charges on the call's ExecStats to operator
// op. A no-op unless the execution attributes per operator.
func (rt BackendRuntime) pin(op int) {
	if rt.Es != nil && rt.Es.Ops != nil {
		rt.Es.CurOp = op
	}
}

// Fetch implements Runtime. A resolved single-shard or scatter route goes
// through the backend's plan-aware path (store.RoutePlanner), skipping
// the per-fetch routing decision; everything else falls back to FetchInto.
func (rt BackendRuntime) Fetch(op int, e access.Entry, vals []relation.Value, r store.FetchRoute) ([]relation.Tuple, error) {
	rt.pin(op)
	if r.Kind == store.RouteSingle || r.Kind == store.RouteScatter {
		if rp, ok := rt.B.(store.RoutePlanner); ok {
			return rp.FetchPlanned(rt.Es, e, vals, r)
		}
	}
	return rt.B.FetchInto(rt.Es, e, vals)
}

// Member implements Runtime.
func (rt BackendRuntime) Member(op int, rel string, t relation.Tuple) (bool, error) {
	rt.pin(op)
	return rt.B.MembershipInto(rt.Es, rel, t)
}

// Scan implements Runtime: one counted ScanInto.
func (rt BackendRuntime) Scan(op int, rel string) iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		rt.pin(op)
		ts, err := rt.B.ScanInto(rt.Es, rel)
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

// Check implements Runtime: errors wrap store.ErrCanceled (and the
// underlying ctx.Err()).
func (rt BackendRuntime) Check() error {
	if rt.Ctx == nil {
		return nil
	}
	if err := rt.Ctx.Err(); err != nil {
		return fmt.Errorf("plan: %w: %w", store.ErrCanceled, err)
	}
	return nil
}

// Node is one physical operator. Stream opens the operator's cursor under
// an environment binding (at least) the operator's Need variables; each
// yielded binding is defined on exactly Out, deduplicated per the
// operator's contract. Out and Need are masks over the Vars the plan was
// compiled against.
type Node interface {
	Stream(rt Runtime, env query.Bindings) Seq
	// Out is the variable set every yielded binding is defined on.
	Out() uint64
	// Need is the variable set the operator requires bound in env (the
	// controlling set it was compiled for).
	Need() uint64
	// Bound is the operator's static cost bound.
	Bound() Cost
	// Describe returns the operator's one-line EXPLAIN rendering (name and
	// detail, without children or cost).
	Describe() string
	// OpID returns the operator's plan-wide id assigned by AssignOpIDs
	// (pre-order position; 0 before numbering). Every operator gets it by
	// embedding opID, which also seals the interface to this package.
	OpID() int
	setOpID(int)
}

// EachChild calls fn on each operand operator of n, in execution order.
func EachChild(n Node, fn func(Node)) {
	switch v := n.(type) {
	case *NLJoin:
		fn(v.L)
		fn(v.R)
	case *AntiProbe:
		fn(v.Pos)
		fn(v.Neg)
	case *ForallCheck:
		fn(v.Gen)
		fn(v.Test)
	case *Project:
		fn(v.Child)
	case *StreamUnion:
		for _, b := range v.Branches {
			fn(b)
		}
	}
}

// varSets holds an operator's Need and Out masks and, for the executor,
// Out's names in sorted order, listed once when the operator is built.
type varSets struct {
	need, out uint64
	outNames  []string
}

func newVarSets(vt *Vars, need, out uint64) varSets {
	return varSets{need: need, out: out, outNames: vt.Names(out)}
}

// Out implements Node.
func (s *varSets) Out() uint64 { return s.out }

// Need implements Node.
func (s *varSets) Need() uint64 { return s.need }

// allBound reports whether env binds every one of names.
func allBound(env query.Bindings, names []string) bool {
	for _, v := range names {
		if _, ok := env[v]; !ok {
			return false
		}
	}
	return true
}

// emptySeq yields nothing.
func emptySeq(yield func(query.Bindings, error) bool) {}

// failSeq yields a single error.
func failSeq(err error) Seq {
	return func(yield func(query.Bindings, error) bool) {
		yield(nil, err)
	}
}

// keyScratchSize is the stack scratch for binding-key probes, mirroring
// the tuple key machinery in package relation: typical keys encode
// without heap spill, longer ones pay one allocation per cursor.
const keyScratchSize = 128

// dedupSeq suppresses duplicate bindings (all defined on the variables
// vars, sorted), streaming: the first occurrence passes through
// immediately, later duplicates are dropped. Errors pass through and
// terminate the stream.
//
// This wraps every deduplicating operator's cursor, so it is on the
// per-answer hot path: the probe key is built on reused scratch and
// probed with a map read Go performs without materializing the string —
// a duplicate costs zero allocations, and the seen-set itself is
// allocated only once a first binding arrives (empty cursors, the common
// case under anti-joins and membership probes, allocate nothing).
func dedupSeq(s Seq, vars []string) Seq {
	return func(yield func(query.Bindings, error) bool) {
		var seen map[string]bool
		var ta [8]relation.Value
		var ka [keyScratchSize]byte
		scratch := relation.Tuple(ta[:0])
		kb := ka[:0]
		for b, err := range s {
			if err != nil {
				yield(nil, err)
				return
			}
			scratch = scratch[:0]
			for _, v := range vars {
				scratch = append(scratch, b[v])
			}
			kb = scratch.AppendKey(kb[:0])
			if seen[string(kb)] {
				continue
			}
			if seen == nil {
				seen = make(map[string]bool, 8)
			}
			seen[string(kb)] = true
			if !yield(b, nil) {
				return
			}
		}
	}
}

// firstOf pulls at most one element from s: the emptiness probe used by
// AntiProbe and ForallCheck. It reports whether s is non-empty without
// enumerating the rest — early termination inside the plan, not just at
// its root.
func firstOf(s Seq) (nonEmpty bool, err error) {
	for _, e := range s {
		if e != nil {
			return false, e
		}
		return true, nil
	}
	return false, nil
}

// restrict returns env restricted to vars.
func restrict(env query.Bindings, vars []string) query.Bindings {
	out := make(query.Bindings, len(vars))
	for _, v := range vars {
		if val, ok := env[v]; ok {
			out[v] = val
		}
	}
	return out
}

// restrictMerged builds the binding over vars, taking each variable from
// the first of the given layers that binds it: the allocation-lean form
// of restrict(mergedWith(env, b), vars) on the join hot path — one output
// map per answer instead of an intermediate merged environment plus its
// restriction.
func restrictMerged(vars []string, layers ...query.Bindings) query.Bindings {
	out := make(query.Bindings, len(vars))
	for _, v := range vars {
		for _, l := range layers {
			if val, ok := l[v]; ok {
				out[v] = val
				break
			}
		}
	}
	return out
}

// mergedWith overlays b on env without mutating either.
func mergedWith(env, b query.Bindings) query.Bindings {
	out := env.Clone()
	for k, v := range b {
		out[k] = v
	}
	return out
}

// UnifyAtom matches a full base tuple against the atom's arguments under
// env, returning the binding over the atom's variables.
func UnifyAtom(a *query.Atom, tu relation.Tuple, env query.Bindings) (query.Bindings, bool) {
	if len(a.Args) != len(tu) {
		return nil, false
	}
	b := make(query.Bindings, len(a.Args))
	for i, arg := range a.Args {
		if !arg.IsVar() {
			if !arg.Value().Equal(tu[i]) {
				return nil, false
			}
			continue
		}
		name := arg.Name()
		if v, ok := env[name]; ok && !v.Equal(tu[i]) {
			return nil, false
		}
		if v, ok := b[name]; ok && !v.Equal(tu[i]) {
			return nil, false
		}
		b[name] = tu[i]
	}
	return b, true
}

// TupleForPositions builds the lookup values for positions from constants
// and bindings; every argument must be a constant or bound.
func TupleForPositions(a *query.Atom, positions []int, env query.Bindings) ([]relation.Value, error) {
	out := make([]relation.Value, len(positions))
	for i, p := range positions {
		t := a.Args[p]
		if !t.IsVar() {
			out[i] = t.Value()
			continue
		}
		v, ok := env[t.Name()]
		if !ok {
			return nil, fmt.Errorf("plan: variable %q unbound for fetch on %s", t.Name(), a)
		}
		out[i] = v
	}
	return out, nil
}

// evalEqOnly evaluates an equality-only formula under a full binding.
func evalEqOnly(f query.Formula, env query.Bindings) (bool, error) {
	switch n := f.(type) {
	case *query.Eq:
		l, err := termVal(n.L, env)
		if err != nil {
			return false, err
		}
		r, err := termVal(n.R, env)
		if err != nil {
			return false, err
		}
		return l == r, nil
	case *query.Truth:
		return n.Bool, nil
	case *query.Not:
		b, err := evalEqOnly(n.F, env)
		return !b, err
	case *query.And:
		l, err := evalEqOnly(n.L, env)
		if err != nil || !l {
			return false, err
		}
		return evalEqOnly(n.R, env)
	case *query.Or:
		l, err := evalEqOnly(n.L, env)
		if err != nil || l {
			return l, err
		}
		return evalEqOnly(n.R, env)
	case *query.Implies:
		l, err := evalEqOnly(n.L, env)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return evalEqOnly(n.R, env)
	default:
		return false, fmt.Errorf("plan: non-equality node %T under a Select operator", f)
	}
}

func termVal(t query.Term, env query.Bindings) (relation.Value, error) {
	if !t.IsVar() {
		return t.Value(), nil
	}
	v, ok := env[t.Name()]
	if !ok {
		return relation.Value{}, fmt.Errorf("plan: unbound variable %q", t.Name())
	}
	return v, nil
}
