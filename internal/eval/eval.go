// Package eval is the reference query evaluator: a naive, semantics-first
// implementation of FO and CQ evaluation used as the correctness oracle for
// the bounded-evaluation engine, the deciders, the incremental maintainer
// and the view rewriter.
//
// Semantics follow Section 2 of the paper: for a query Q(x̄) with |x̄| = m,
// Q(D) = { ā ∈ adom(D)^m | D ⊨ Q(ā) }. Quantifiers range over the active
// domain extended with the constants of the query (which changes nothing
// for the generic queries we evaluate but keeps sentences like
// ∃x (x = c ∧ ...) well behaved).
//
// Evaluation goes through a Source so the same code runs against a plain
// relation.Database (uncounted oracle) or an instrumented store.DB (every
// scan and membership probe is charged — this is the "naive evaluation
// fetches the whole database" baseline of the experiments).
package eval

import (
	"fmt"
	"sort"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Source abstracts the data access naive evaluation needs: full scans and
// membership probes.
type Source interface {
	// Schema returns the relational schema.
	Schema() *relation.Schema
	// Tuples returns all tuples of rel (a full scan).
	Tuples(rel string) ([]relation.Tuple, error)
	// Contains probes membership of t in rel.
	Contains(rel string, t relation.Tuple) (bool, error)
}

// DBSource adapts a bare database (no instrumentation). It is the
// uncounted reference oracle: tests and offline precomputation compare
// charged execution against it, so its reads are deliberately invisible
// to ExecStats and it must never sit on a serving path. Being uncounted,
// it is also the one source whose conjunctive joins are hash-joined
// (see dbRuntime): same answers in the same order, linear in |D|.
type DBSource struct{ DB *relation.Database }

// Schema implements Source.
func (s DBSource) Schema() *relation.Schema { return s.DB.Schema() }

// Tuples implements Source.
func (s DBSource) Tuples(rel string) ([]relation.Tuple, error) {
	r := s.DB.Rel(rel)
	if r == nil {
		return nil, fmt.Errorf("eval: unknown relation %q", rel)
	}
	//sivet:ignore chargedreads -- DBSource is the uncounted reference oracle; serving paths use StoreSource
	return r.Tuples(), nil
}

// Contains implements Source.
func (s DBSource) Contains(rel string, t relation.Tuple) (bool, error) {
	r := s.DB.Rel(rel)
	if r == nil {
		return false, fmt.Errorf("eval: unknown relation %q", rel)
	}
	//sivet:ignore chargedreads -- DBSource is the uncounted reference oracle; serving paths use StoreSource
	return r.Contains(t), nil
}

// StoreSource adapts an instrumented storage backend (single-node
// store.DB, sharded shard.Store, ...): every scan and probe is charged to
// Stats — the per-call protocol of store.ExecStats, immune to
// interleaved evaluations — so naive evaluation's data appetite is
// measured, with the witness trace when Stats.Trace is set. A nil Stats
// leaves the evaluation uncounted.
type StoreSource struct {
	DB    store.Backend
	Stats *store.ExecStats
	// Snap, when non-nil, memoizes each relation's scan snapshot so
	// repeated Tuples calls within one evaluation skip the O(|R|)
	// concurrency-safety copy. Every access is still charged as a full
	// scan, so measurements are unchanged. Use one snapshot per
	// evaluation; it must not outlive updates to the store.
	Snap *ScanSnapshot
}

// ScanSnapshot memoizes scan results per relation for one evaluation.
type ScanSnapshot struct{ m map[string][]relation.Tuple }

// NewScanSnapshot returns an empty snapshot cache.
func NewScanSnapshot() *ScanSnapshot {
	return &ScanSnapshot{m: make(map[string][]relation.Tuple)}
}

// NewStoreSource builds the source for one measured naive evaluation:
// per-call stats (nil is allowed: the evaluation is uncounted) and a
// fresh scan snapshot, so repeated scans are charged but copied once.
// Build a new one per evaluation.
func NewStoreSource(db store.Backend, stats *store.ExecStats) StoreSource {
	return StoreSource{DB: db, Stats: stats, Snap: NewScanSnapshot()}
}

// Schema implements Source.
func (s StoreSource) Schema() *relation.Schema { return s.DB.Schema() }

// Tuples implements Source.
func (s StoreSource) Tuples(rel string) ([]relation.Tuple, error) {
	if s.Snap != nil {
		if ts, ok := s.Snap.m[rel]; ok {
			if err := s.DB.ChargeScanned(s.Stats, len(ts)); err != nil {
				return nil, err
			}
			return ts, nil
		}
	}
	ts, err := s.DB.ScanInto(s.Stats, rel)
	if err != nil {
		return nil, err
	}
	if s.Snap != nil {
		s.Snap.m[rel] = ts
	}
	return ts, nil
}

// Contains implements Source.
func (s StoreSource) Contains(rel string, t relation.Tuple) (bool, error) {
	return s.DB.MembershipInto(s.Stats, rel, t)
}

// Domain returns the quantification domain for evaluating f over src:
// adom(D) ∪ constants(f), sorted.
func Domain(src Source, f query.Formula) ([]relation.Value, error) {
	seen := make(map[relation.Value]bool)
	for _, name := range src.Schema().Names() {
		ts, err := src.Tuples(name)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			for _, v := range t {
				seen[v] = true
			}
		}
	}
	if f != nil {
		for _, c := range query.Constants(f) {
			seen[c.Value()] = true
		}
	}
	out := make([]relation.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// ActiveDomain returns adom(D) only (no query constants), sorted.
func ActiveDomain(src Source) ([]relation.Value, error) { return Domain(src, nil) }

// Truth evaluates formula f under env, which must bind every free variable
// of f. dom is the quantification domain (from Domain).
func Truth(src Source, f query.Formula, env query.Bindings, dom []relation.Value) (bool, error) {
	switch n := f.(type) {
	case *query.Atom:
		t := make(relation.Tuple, len(n.Args))
		for i, a := range n.Args {
			v, err := termValue(a, env)
			if err != nil {
				return false, err
			}
			t[i] = v
		}
		return src.Contains(n.Rel, t)
	case *query.Eq:
		l, err := termValue(n.L, env)
		if err != nil {
			return false, err
		}
		r, err := termValue(n.R, env)
		if err != nil {
			return false, err
		}
		return l == r, nil
	case *query.Truth:
		return n.Bool, nil
	case *query.Not:
		b, err := Truth(src, n.F, env, dom)
		return !b, err
	case *query.And:
		l, err := Truth(src, n.L, env, dom)
		if err != nil || !l {
			return false, err
		}
		return Truth(src, n.R, env, dom)
	case *query.Or:
		l, err := Truth(src, n.L, env, dom)
		if err != nil || l {
			return l, err
		}
		return Truth(src, n.R, env, dom)
	case *query.Implies:
		l, err := Truth(src, n.L, env, dom)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return Truth(src, n.R, env, dom)
	case *query.Exists:
		return quantify(src, n.Vars, n.Body, env, dom, false)
	case *query.Forall:
		return quantify(src, n.Vars, n.Body, env, dom, true)
	default:
		return false, fmt.Errorf("eval: unknown formula node %T", f)
	}
}

// quantify evaluates ∃vars body (universal=false) or ∀vars body
// (universal=true) by nested iteration over dom.
func quantify(src Source, vars []string, body query.Formula, env query.Bindings, dom []relation.Value, universal bool) (bool, error) {
	if len(vars) == 0 {
		return Truth(src, body, env, dom)
	}
	v, rest := vars[0], vars[1:]
	saved, had := env[v]
	defer func() {
		if had {
			env[v] = saved
		} else {
			delete(env, v)
		}
	}()
	for _, val := range dom {
		env[v] = val
		b, err := quantify(src, rest, body, env, dom, universal)
		if err != nil {
			return false, err
		}
		if universal && !b {
			return false, nil
		}
		if !universal && b {
			return true, nil
		}
	}
	return universal, nil
}

func termValue(t query.Term, env query.Bindings) (relation.Value, error) {
	if !t.IsVar() {
		return t.Value(), nil
	}
	v, ok := env[t.Name()]
	if !ok {
		return relation.Value{}, fmt.Errorf("eval: unbound variable %q", t.Name())
	}
	return v, nil
}

// Answers computes Q(ā, D) for the query q with the head variables in
// fixed bound to ā: the set of tuples (over the remaining head variables,
// in head order) that satisfy the body. A Boolean query returns a set
// containing one empty tuple when true and an empty set when false.
//
// A conjunctive body is evaluated by backtracking joins; anything else
// falls back to enumerating assignments over the active domain, which is
// exponential in the number of free variables — acceptable for an oracle,
// and the reason the experiments use CQ-shaped naive baselines.
//
// Answers is a full drain of Stream (see stream.go): consumers that can
// handle answers incrementally, or stop early, should iterate Stream
// instead.
func Answers(src Source, q *query.Query, fixed query.Bindings) (*relation.TupleSet, error) {
	return drainTuples(Stream(src, q, fixed))
}

// AnswersCQ evaluates a conjunctive query by backtracking over its atoms,
// with fixed providing initial bindings. Equality atoms are eliminated
// up front; an unsatisfiable equality set yields the empty answer. It is
// a full drain of StreamCQ.
func AnswersCQ(src Source, cq *query.CQ, fixed query.Bindings) (*relation.TupleSet, error) {
	return drainTuples(StreamCQ(src, cq, fixed))
}

// answersFO is the generic FO enumeration oracle: a drain of streamFO.
func answersFO(src Source, q *query.Query) (*relation.TupleSet, error) {
	return drainTuples(streamFO(src, q))
}

// drainTuples materializes a lazy answer stream into a TupleSet.
func drainTuples(seq func(yield func(relation.Tuple, error) bool)) (*relation.TupleSet, error) {
	out := relation.NewTupleSet(0)
	for t, err := range seq {
		if err != nil {
			return nil, err
		}
		out.Add(t)
	}
	return out, nil
}

// atomOrder greedily orders atoms most-bound-first: repeatedly pick the
// atom sharing the most variables with the already-bound set. This keeps
// the backtracking join from degenerating into a cross product on the
// query shapes in this repository.
func atomOrder(atoms []*query.Atom, env query.Bindings) []*query.Atom {
	bound := env.Vars().Clone()
	remaining := append([]*query.Atom(nil), atoms...)
	out := make([]*query.Atom, 0, len(atoms))
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, a := range remaining {
			score := 0
			for v := range a.FreeVars() {
				if bound[v] {
					score++
				}
			}
			for _, t := range a.Args {
				if !t.IsVar() {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		out = append(out, a)
		remaining = append(remaining[:best], remaining[best+1:]...)
		for v := range a.FreeVars() {
			bound = bound.Add(v)
		}
	}
	return out
}

// AnswersUCQ evaluates a union of conjunctive queries.
func AnswersUCQ(src Source, u *query.UCQ, fixed query.Bindings) (*relation.TupleSet, error) {
	out := relation.NewTupleSet(0)
	for _, d := range u.Disjunct {
		part, err := AnswersCQ(src, d, fixed)
		if err != nil {
			return nil, err
		}
		out.AddAll(part.Tuples())
	}
	return out, nil
}

// Holds evaluates a Boolean query (sentence).
func Holds(src Source, q *query.Query) (bool, error) {
	if !q.IsBoolean() {
		return false, fmt.Errorf("eval: Holds on non-Boolean query %s", q.Name)
	}
	ans, err := Answers(src, q, nil)
	if err != nil {
		return false, err
	}
	return ans.Len() > 0, nil
}
