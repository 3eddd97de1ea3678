package core

import (
	"context"
	"fmt"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Maintainer incrementally maintains the answers of a conjunctive query
// with fixed values ā for a controlling set x̄ — the constructive side of
// the paper's incremental scale independence result (Corollary 5.3,
// Proposition 5.5), compiled onto the physical plan IR. It is the one
// maintenance engine: Engine.Commit drives it for every Live handle
// (PreparedQuery.Watch) and every materialized view (CreateView):
//
//   - one maintenance plan per atom occurrence: the occurrence is unified
//     with each delta tuple and the *remainder* of the body — controlled
//     by x̄ ∪ vars(atom) — is compiled through compilePlan, so the
//     cost-based optimizer orders the delta conjuncts and routing is
//     resolved against the concrete backend once, at Watch/construction
//     time, not per delta;
//   - deletions re-verify candidates through a compiled verification plan
//     (the body controlled by x̄ ∪ head variables, Proposition 5.5(2)),
//     probing only for a first witness;
//   - every maintenance read is charged to a per-delta store.ExecStats
//     whose MaxReads is the N-derived DeltaBound, so "bounded maintenance"
//     is enforced at runtime, not just proved statically.
//
// When the verification condition fails (SupportsDeletions is false) and a
// re-execution plan is attached — always the case for handles built by
// PreparedQuery.Watch — commits containing deletions fall back to one
// bounded re-execution of the prepared plan (reads ≤ the plan's static
// bound M) instead of failing.
//
// Answers are kept over the *remaining* head (head terms not fixed by ā),
// matching PreparedQuery.Exec output.
//
// A Maintainer is NOT safe for concurrent use: maintenance must not race
// Answers. The concurrency-safe wrapper is the *Live handle, whose
// internal locking serializes maintenance against Snapshot and Deltas
// readers; Engine.Commit drives registered handles under the engine's
// commit lock.
type Maintainer struct {
	eng   *Engine
	cq    *query.CQ // nil in pure re-execution mode
	fixed query.Bindings

	// rem is the (eq-eliminated) head without the terms fixed by ā,
	// remPos their positions within the full head.
	rem    []query.Term
	remPos []int

	// plans holds the compiled maintenance plans per updated relation;
	// verify the compiled re-derivation plan (nil when deletions are not
	// supported by the controllability conditions).
	plans  map[string][]occPlan
	verify *Plan

	// reexec, when non-nil, is the prepared bounded plan used to resync by
	// re-execution: always for a Maintainer in pure re-execution mode
	// (plans == nil), and as the deletion fallback when verify is nil.
	reexec *PreparedQuery

	// bodyRels are the relations the query body mentions; commits touching
	// none of them are skipped entirely.
	bodyRels map[string]bool

	// answers is the maintained answer set — the single-writer state the
	// "NOT safe for concurrent use" contract protects. Every runtime
	// mutation happens under Engine.commitMu (postApply, driven by the
	// commit pipeline) or before the Maintainer is published (the
	// constructors); the *Live handle is the concurrency-safe wrapper.
	answers *relation.TupleSet // guarded by single-writer
}

// occPlan is the compiled maintenance plan for one occurrence of an
// updatable relation in the body: unify atom with the delta tuple, then
// execute the remainder's physical plan.
type occPlan struct {
	atom *query.Atom
	plan *Plan
}

// NewMaintainer checks the conditions of Proposition 5.5, compiles the
// maintenance plans through the plan IR, and computes the initial answer
// set by naive evaluation over an uncounted snapshot (the paper's offline
// precomputation step). That seed is one hash-joined pass of the
// DBSource evaluator: O(Σ|R| + |answers|) time and a transient index per
// joined relation, with the answers in nested-loop order; none of it is
// charged, and CreateView holds commitMu for its whole duration (plus a
// CloneData copy on backends other than store.DB). Failure wraps
// ErrWatchNotMaintainable when the query cannot be incrementally
// maintained. It backs CreateView; live queries are built by
// PreparedQuery.Watch instead, which seeds the answers from a bounded
// execution and attaches the re-execution fallback.
func NewMaintainer(eng *Engine, q *query.CQ, fixed query.Bindings) (*Maintainer, error) {
	m, err := buildMaintPlans(eng, q, fixed)
	if err != nil {
		return nil, err
	}
	// Offline precomputation wants an uncounted read view: the single-node
	// store exposes its data in place; other backends (sharded) provide a
	// merged snapshot copy.
	var view *relation.Database
	if db, ok := eng.DB.(*store.DB); ok {
		//sivet:ignore chargedreads -- offline precomputation of the initial answer set; runtime maintenance reads go through the charged plan runtime
		view = db.Data()
	} else {
		//sivet:ignore chargedreads -- offline precomputation of the initial answer set; runtime maintenance reads go through the charged plan runtime
		view = eng.DB.CloneData()
	}
	//sivet:ignore chargedreads -- full evaluation over the offline snapshot happens once, before the maintainer serves anything
	full, err := eval.AnswersCQ(eval.DBSource{DB: view}, m.cq, fixed)
	if err != nil {
		return nil, err
	}
	answers := relation.NewTupleSet(full.Len())
	for _, t := range full.Tuples() {
		answers.Add(t.Project(m.remPos))
	}
	m.seed(answers)
	return m, nil
}

// seed installs the initial answer set before the Maintainer is
// published (or, from Watch, under the commit lock before the handle is
// registered).
func (m *Maintainer) seed(ts *relation.TupleSet) { m.answers = ts }

// buildMaintPlans compiles the per-occurrence and verification plans.
func buildMaintPlans(eng *Engine, q *query.CQ, fixed query.Bindings) (*Maintainer, error) {
	if len(q.Eqs) > 0 {
		applied, ok := q.ApplyEqs()
		if !ok {
			return nil, fmt.Errorf("core: query %s is unsatisfiable", q.Name)
		}
		q = applied
	}
	m := &Maintainer{
		eng:      eng,
		cq:       q,
		fixed:    fixed.Clone(),
		plans:    make(map[string][]occPlan),
		bodyRels: make(map[string]bool, len(q.Atoms)),
	}
	m.initHead(q.Head)
	an := eng.An
	mode := eng.Optimizer()
	fixedVars := fixed.Vars()
	// One maintenance plan per atom occurrence: the remaining conjunction
	// must be controlled by x̄ ∪ vars(atom), since the delta tuple supplies
	// the atom's variables (Q being x̄-scale-independent under A(R),
	// Proposition 5.5(1)).
	for i, a := range q.Atoms {
		m.bodyRels[a.Rel] = true
		rest := make([]query.Formula, 0, len(q.Atoms)-1)
		for j, b := range q.Atoms {
			if j != i {
				rest = append(rest, b)
			}
		}
		restBody := query.AndAll(rest...)
		res, err := an.Analyze(restBody)
		if err != nil {
			return nil, err
		}
		ctrl := fixedVars.Union(a.FreeVars())
		d := res.Controls(ctrl)
		if d == nil {
			return nil, fmt.Errorf("core: %s is not incrementally scale-independent for updates to %s: remainder %s not %s-controlled: %w",
				q.Name, a.Rel, restBody, ctrl, ErrWatchNotMaintainable)
		}
		m.plans[a.Rel] = append(m.plans[a.Rel], occPlan{atom: a, plan: compilePlan(d, eng.DB, mode)})
	}
	// Deletion support (Proposition 5.5(2)): re-derivation of a candidate
	// answer requires the whole body controlled by x̄ ∪ head variables.
	full, err := an.Analyze(q.Formula())
	if err != nil {
		return nil, err
	}
	if d := full.Controls(fixedVars.Union(q.HeadVars())); d != nil {
		m.verify = compilePlan(d, eng.DB, mode)
	}
	return m, nil
}

// newReexecMaintainer builds a Maintainer that maintains purely by bounded
// re-execution of an already-prepared plan — the WithReexec path for
// queries whose body is not a maintainable conjunction. bodyRels comes
// from the query formula, so irrelevant commits are still skipped.
func newReexecMaintainer(p *PreparedQuery, fixed query.Bindings) *Maintainer {
	m := &Maintainer{
		eng:      p.eng,
		fixed:    fixed.Clone(),
		reexec:   p,
		bodyRels: make(map[string]bool),
	}
	m.initHead(query.Vars(p.q.Head...))
	collectRels(p.q.Body, m.bodyRels)
	return m
}

// initHead splits the full head into fixed and remaining terms.
func (m *Maintainer) initHead(head []query.Term) {
	for i, h := range head {
		if h.IsVar() {
			if _, ok := m.fixed[h.Name()]; ok {
				continue
			}
		}
		m.rem = append(m.rem, h)
		m.remPos = append(m.remPos, i)
	}
}

// collectRels gathers the relation names an FO formula mentions.
func collectRels(f query.Formula, out map[string]bool) {
	switch n := f.(type) {
	case *query.Atom:
		out[n.Rel] = true
	case *query.Not:
		collectRels(n.F, out)
	case *query.And:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *query.Or:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *query.Implies:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *query.Exists:
		collectRels(n.Body, out)
	case *query.Forall:
		collectRels(n.Body, out)
	}
}

// Answers returns a snapshot of the maintained answer set over the
// remaining head. The copy is the caller's to keep: mutating it cannot
// corrupt the maintainer, and it stays stable across later commits.
func (m *Maintainer) Answers() *relation.TupleSet { return m.answers.Clone() }

// Len returns the current number of maintained answers.
func (m *Maintainer) Len() int { return m.answers.Len() }

// SupportsDeletions reports whether per-tuple deletion maintenance is
// available (Proposition 5.5(2)'s condition held at construction). When
// false and a re-execution plan is attached, deletion commits resync by
// bounded re-execution instead.
func (m *Maintainer) SupportsDeletions() bool { return m.verify != nil }

// Maintained reports whether delta maintenance plans exist: false for a
// pure re-execution maintainer (every commit resyncs through the
// prepared plan).
func (m *Maintainer) Maintained() bool { return m.plans != nil }

// Touches reports whether ΔD mentions any relation of the query body.
func (m *Maintainer) Touches(u *relation.Update) bool {
	for rel, ts := range u.Ins {
		if len(ts) > 0 && m.bodyRels[rel] {
			return true
		}
	}
	for rel, ts := range u.Del {
		if len(ts) > 0 && m.bodyRels[rel] {
			return true
		}
	}
	return false
}

// useReexec reports whether this update is maintained by re-executing the
// prepared plan (pure re-execution mode, or the deletion fallback).
func (m *Maintainer) useReexec(u *relation.Update) bool {
	if m.plans == nil {
		return true
	}
	return !u.IsInsertOnly() && m.verify == nil && m.reexec != nil
}

// canMaintain checks that a strategy exists for u.
func (m *Maintainer) canMaintain(u *relation.Update) error {
	if m.plans == nil && m.reexec == nil {
		return fmt.Errorf("core: maintainer has neither delta plans nor a re-execution plan: %w", ErrWatchNotMaintainable)
	}
	if m.plans != nil && !u.IsInsertOnly() && m.verify == nil && m.reexec == nil {
		return fmt.Errorf("core: %s supports insert-only updates (body not controlled by head variables): %w",
			m.cq.Name, ErrWatchNotMaintainable)
	}
	return nil
}

// DeltaBound is the static, N-derived bound on the tuple reads maintaining
// the answers under u may charge: per inserted or deleted tuple, the
// remainder plans' read bounds; per potential deletion candidate, the
// verification plan's read bound — or, when u is maintained by
// re-execution, the prepared plan's full bound M. Independent of |D| by
// construction; Engine.Commit enforces it as the per-delta MaxReads.
func (m *Maintainer) DeltaBound(u *relation.Update) int64 {
	if m.useReexec(u) {
		if m.reexec == nil {
			return 0
		}
		return m.reexec.plan.Bound.Reads
	}
	var reads, delCands int64
	for rel, ts := range u.Ins {
		for _, op := range m.plans[rel] {
			reads = plan.SatAdd(reads, plan.SatMul(int64(len(ts)), op.plan.Bound.Reads))
		}
	}
	for rel, ts := range u.Del {
		for _, op := range m.plans[rel] {
			reads = plan.SatAdd(reads, plan.SatMul(int64(len(ts)), op.plan.Bound.Reads))
			delCands = plan.SatAdd(delCands, plan.SatMul(int64(len(ts)), op.plan.Bound.Candidates))
		}
	}
	if m.verify != nil {
		reads = plan.SatAdd(reads, plan.SatMul(delCands, m.verify.Bound.Reads))
	}
	return reads
}

// preDelete computes the deletion candidates of u against the OLD database
// state: answers that some occurrence of a deleted tuple contributed to.
// It must run before the update is applied.
func (m *Maintainer) preDelete(ctx context.Context, es *store.ExecStats, u *relation.Update) (*relation.TupleSet, error) {
	if m.useReexec(u) {
		return nil, nil
	}
	delCand := relation.NewTupleSet(0)
	for rel, ts := range u.Del {
		for _, op := range m.plans[rel] {
			for _, t := range ts {
				c, err := m.occAnswers(ctx, es, op, t)
				if err != nil {
					return nil, err
				}
				delCand.AddAll(c.Tuples())
			}
		}
	}
	return delCand, nil
}

// postApply finishes maintenance after the update has been applied:
// insertion candidates against the NEW state, then bounded re-verification
// of the deletion candidates — or one bounded re-execution when u is
// maintained by resync. It mutates the answer set and returns the delta.
func (m *Maintainer) postApply(ctx context.Context, es *store.ExecStats, u *relation.Update, delCand *relation.TupleSet) (ins, del []relation.Tuple, err error) {
	if m.useReexec(u) {
		return m.resync(ctx, es)
	}
	insCand := relation.NewTupleSet(0)
	for rel, ts := range u.Ins {
		for _, op := range m.plans[rel] {
			for _, t := range ts {
				c, err := m.occAnswers(ctx, es, op, t)
				if err != nil {
					return nil, nil, err
				}
				insCand.AddAll(c.Tuples())
			}
		}
	}
	for _, t := range insCand.Tuples() {
		if !m.answers.Contains(t) {
			ins = append(ins, t)
		}
	}
	// A deletion candidate disappears only if no alternative derivation
	// survives: bounded re-verification with the full head fixed.
	if delCand != nil {
		for _, t := range delCand.Tuples() {
			if !m.answers.Contains(t) {
				continue
			}
			if insCand.Contains(t) {
				continue // re-derived via an insertion in the same update
			}
			still, err := m.rederive(ctx, es, t)
			if err != nil {
				return nil, nil, err
			}
			if !still {
				del = append(del, t)
			}
		}
	}
	// All bounded reads succeeded: fold the delta in atomically, so an
	// error above (a canceled watch context mid-maintenance) never leaves
	// the answer set torn between pre- and post-commit state.
	for _, t := range ins {
		m.answers.Add(t)
	}
	for _, t := range del {
		m.answers.Remove(t)
	}
	return ins, del, nil
}

// resync re-executes the prepared plan (charged to es, reads ≤ its static
// bound M) and folds the difference into the answer set.
func (m *Maintainer) resync(ctx context.Context, es *store.ExecStats) (ins, del []relation.Tuple, err error) {
	rt := plan.BackendRuntime{Ctx: ctx, B: m.eng.DB, Es: es}
	head := make([]string, len(m.rem))
	for i, h := range m.rem {
		head[i] = h.Name()
	}
	got := relation.NewTupleSet(m.answers.Len())
	for t, err := range projectSeq(m.reexec.plan.Root.Stream(rt, m.fixed), head, m.reexec.q.Name) {
		if err != nil {
			return nil, nil, err
		}
		got.Add(t)
	}
	for _, t := range got.Tuples() {
		if !m.answers.Contains(t) {
			ins = append(ins, t)
		}
	}
	for _, t := range m.answers.Tuples() {
		if !got.Contains(t) {
			del = append(del, t)
		}
	}
	m.answers = got
	return ins, del, nil
}

// occAnswers evaluates one maintenance plan for one delta tuple: unify the
// occurrence atom with the tuple, then execute the compiled remainder plan
// under the merged environment, charging es.
func (m *Maintainer) occAnswers(ctx context.Context, es *store.ExecStats, op occPlan, t relation.Tuple) (*relation.TupleSet, error) {
	out := relation.NewTupleSet(0)
	chi, ok := unifyArgs(op.atom.Args, t)
	if !ok {
		return out, nil
	}
	env := m.fixed.Clone()
	for k, v := range chi {
		if prev, has := env[k]; has && prev != v {
			return out, nil
		}
		env[k] = v
	}
	rt := plan.BackendRuntime{Ctx: ctx, B: m.eng.DB, Es: es}
	for b, err := range op.plan.Root.Stream(rt, env) {
		if err != nil {
			return nil, err
		}
		tu := make(relation.Tuple, len(m.rem))
		ok := true
		for i, h := range m.rem {
			if !h.IsVar() {
				tu[i] = h.Value()
				continue
			}
			if v, has := b[h.Name()]; has {
				tu[i] = v
			} else if v, has := env[h.Name()]; has {
				tu[i] = v
			} else {
				ok = false
				break
			}
		}
		if ok {
			out.Add(tu)
		}
	}
	return out, nil
}

// rederive checks boundedly whether answer t (over the remaining head) is
// still derivable, probing the verification plan for a first witness only.
func (m *Maintainer) rederive(ctx context.Context, es *store.ExecStats, t relation.Tuple) (bool, error) {
	env := m.fixed.Clone()
	for i, h := range m.rem {
		if !h.IsVar() {
			if h.Value() != t[i] {
				return false, nil
			}
			continue
		}
		if prev, has := env[h.Name()]; has && prev != t[i] {
			return false, nil
		}
		env[h.Name()] = t[i]
	}
	rt := plan.BackendRuntime{Ctx: ctx, B: m.eng.DB, Es: es}
	for _, err := range m.verify.Root.Stream(rt, env) {
		if err != nil {
			return false, err
		}
		return true, nil // first witness suffices
	}
	return false, nil
}

// unifyArgs matches atom arguments against a delta tuple, returning the
// variable bindings.
func unifyArgs(args []query.Term, t relation.Tuple) (query.Bindings, bool) {
	if len(args) != len(t) {
		return nil, false
	}
	b := make(query.Bindings, len(args))
	for i, a := range args {
		if !a.IsVar() {
			if a.Value() != t[i] {
				return nil, false
			}
			continue
		}
		if v, ok := b[a.Name()]; ok && v != t[i] {
			return nil, false
		}
		b[a.Name()] = t[i]
	}
	return b, true
}
