package core

import (
	"context"
	"fmt"
	"slices"

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
// (PreparedQuery.Watch) and every materialized view (CreateView).
//
// What a Maintainer owns is its fixed values and its answer set; the
// compiled plans are a maintPlans shared by every Maintainer of the same
// query and fixed-variable set (one per PreparedQuery and x̄, compiled by
// the first Watch; a view's is its own):
//
//   - one maintenance plan per atom occurrence, compiled against what the
//     delta binds: the remainder of the body is controlled by
//     x̄ ∪ vars(atom), and the optimizer orders it starting from that
//     whole set, so an atom the delta tuple and ā determine is a single
//     membership probe and lookups take the entries those variables make
//     usable. Routing is resolved against the backend at compile time;
//   - the membership probes leading an occurrence plan are peeled off as
//     guards: per delta tuple, the occurrence is unified with it by
//     argument position (constants, fixed and repeated variables), each
//     guard is one Member call, and the rest of the plan opens only when
//     every guard holds — a delta tuple that cannot reach this watcher's
//     answers costs one probe and allocates nothing;
//   - deletions re-verify candidates through a compiled verification plan
//     (the body controlled by x̄ ∪ head variables, Proposition 5.5(2)),
//     probing only for a first witness;
//   - every maintenance read is charged to a per-delta store.ExecStats
//     whose MaxReads is the N-derived delta bound — per-relation
//     coefficients precomputed from the plans' bounds — so "bounded
//     maintenance" is enforced at runtime, not just proved statically.
//
// Engine.Commit reads ΔD once into a deltaDigest. What depends only on
// the plan set and ΔD — whether the commit touches the body, whether it
// is maintained by re-execution, the delta bound, or why it cannot be
// maintained — is a maintStep the plan set decides once for every
// Maintainer sharing it (maintPlans.step); a Maintainer's own per-commit
// work is preDelete and postApply over the digest.
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
	eng *Engine
	ps  *maintPlans
	// fixed binds x̄ to ā; vals lists ā in ps.fixed's order, for the
	// positional unification and the guards.
	fixed query.Bindings
	vals  []relation.Value

	// reexec, when non-nil, is the prepared bounded plan used to resync by
	// re-execution: always for a Maintainer in pure re-execution mode
	// (ps.occs == nil), and as the deletion fallback when ps.verify is
	// nil.
	reexec *PreparedQuery

	// rt is the charged runtime of the maintenance call in progress, and
	// probe the tuple guards are probed with, rebuilt per probe: scratch
	// reused across commits, so a delta tuple that fails its guards
	// allocates nothing.
	rt    plan.BackendRuntime
	probe relation.Tuple

	// answers is the maintained answer set — the single-writer state the
	// "NOT safe for concurrent use" contract protects. Every runtime
	// mutation happens under Engine.commitMu (postApply, driven by the
	// commit pipeline) or before the Maintainer is published (the
	// constructors); the *Live handle is the concurrency-safe wrapper.
	answers *relation.TupleSet // guarded by single-writer
}

// maintPlans is the compiled maintenance of one query for one set of
// fixed variables: what every Maintainer of that query and set shares.
// Read-only once built. It is also what the engine groups watchers by:
// the per-commit decisions that do not read ā (step) are its functions of
// the commit's delta digest, evaluated once per group, not per watcher.
type maintPlans struct {
	cq *query.CQ // the eq-eliminated body; nil in pure re-execution mode
	// fixed lists the fixed variables, sorted: a Maintainer's vals follow
	// it.
	fixed []string

	// rem is the head without the terms fixed by ā, remPos their
	// positions within the full head.
	rem    []query.Term
	remPos []int

	// occs holds the occurrence plans per updated relation (nil in pure
	// re-execution mode); verify the compiled re-derivation plan (nil
	// when deletions are not supported by the controllability
	// conditions).
	occs   map[string][]*occPlan
	verify *Plan
	// coef holds, per relation, what one delta tuple of it adds to the
	// delta bound: the summed bounds of its occurrence plans.
	coef map[string]plan.Cost

	// bodyRels are the relations the query body mentions; commits touching
	// none of them are skipped entirely.
	bodyRels map[string]bool
}

// occPlan is the compiled maintenance plan for one occurrence of an
// updatable relation in the body: unify the atom with the delta tuple by
// position, probe the guards, then run the rest of the remainder's plan.
type occPlan struct {
	atom *query.Atom
	// plan is the whole remainder plan: its Bound is the occurrence's
	// price, Join(Probe(len(guards)), rest.Bound()).
	plan *Plan

	// Unification by position: consts must match, fixed positions must
	// equal ā, a repeated variable must equal its first occurrence, and
	// binds name the variables the tuple binds.
	consts  []argConst
	fixed   []argRef // idx: into the Maintainer's vals
	repeats []argRef // idx: the first occurrence's position
	binds   []argBind

	guards []guard
	rest   plan.Node // nil: the guards are the whole remainder

	// out says where each remaining head term's value comes from.
	out []argSrc
}

type argConst struct {
	pos int
	v   relation.Value
}

type argRef struct{ pos, idx int }

type argBind struct {
	pos  int
	name string
}

// argSrc is where a value comes from once a delta tuple has unified: a
// constant, ā (vals[idx]), the delta tuple (t[idx]) or, for an answer
// term, the rest plan's binding of name.
type argSrc struct {
	from srcKind
	idx  int
	v    relation.Value
	name string
}

type srcKind uint8

const (
	srcConst srcKind = iota
	srcFixed
	srcDelta
	srcPlan
)

// guard is a membership probe peeled off an occurrence plan: the atom's
// tuple is built by position from ā and the delta tuple, and probed once,
// charged under the probe operator's id.
type guard struct {
	op   int
	rel  string
	args []argSrc
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
// PreparedQuery.Watch instead, which shares one plan set per prepared
// query and fixed-variable set, seeds the answers from a bounded
// execution and attaches the re-execution fallback.
func NewMaintainer(eng *Engine, q *query.CQ, fixed query.Bindings) (*Maintainer, error) {
	ps, err := buildMaintPlans(eng, q, fixed.Vars())
	if err != nil {
		return nil, err
	}
	m := newMaintainer(eng, ps, fixed)
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
	full, err := eval.AnswersCQ(eval.DBSource{DB: view}, ps.cq, fixed)
	if err != nil {
		return nil, err
	}
	answers := relation.NewTupleSet(full.Len())
	for _, t := range full.Tuples() {
		answers.Add(t.Project(ps.remPos))
	}
	m.seed(answers)
	return m, nil
}

// newMaintainer binds a plan set to fixed values.
func newMaintainer(eng *Engine, ps *maintPlans, fixed query.Bindings) *Maintainer {
	m := &Maintainer{eng: eng, ps: ps, fixed: fixed.Clone(), vals: make([]relation.Value, len(ps.fixed))}
	for i, x := range ps.fixed {
		m.vals[i] = fixed[x]
	}
	return m
}

// seed installs the initial answer set before the Maintainer is
// published (or, from Watch, under the commit lock before the handle is
// registered).
func (m *Maintainer) seed(ts *relation.TupleSet) { m.answers = ts }

// buildMaintPlans compiles the per-occurrence and verification plans of q
// for the fixed variables x.
func buildMaintPlans(eng *Engine, q *query.CQ, x query.VarSet) (*maintPlans, error) {
	if len(q.Eqs) > 0 {
		applied, ok := q.ApplyEqs()
		if !ok {
			return nil, fmt.Errorf("core: query %s is unsatisfiable", q.Name)
		}
		q = applied
	}
	ps := &maintPlans{
		cq:       q,
		fixed:    x.Sorted(),
		occs:     make(map[string][]*occPlan),
		coef:     make(map[string]plan.Cost),
		bodyRels: make(map[string]bool, len(q.Atoms)),
	}
	ps.initHead(q.Head)
	an := eng.An
	mode := eng.Optimizer()
	// One maintenance plan per atom occurrence: the remaining conjunction
	// must be controlled by x̄ ∪ vars(atom), since the delta tuple supplies
	// the atom's variables (Q being x̄-scale-independent under A(R),
	// Proposition 5.5(1)).
	for i, a := range q.Atoms {
		ps.bodyRels[a.Rel] = true
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
		ctrl := x.Union(a.FreeVars())
		d := res.Controls(ctrl)
		if d == nil {
			return nil, fmt.Errorf("core: %s is not incrementally scale-independent for updates to %s: remainder %s not %s-controlled: %w",
				q.Name, a.Rel, restBody, ctrl, ErrWatchNotMaintainable)
		}
		op, err := ps.compileOcc(a, compilePlan(d, eng.DB, mode, ctrl))
		if err != nil {
			return nil, err
		}
		ps.occs[a.Rel] = append(ps.occs[a.Rel], op)
		c := ps.coef[a.Rel]
		ps.coef[a.Rel] = plan.Cost{
			Candidates: plan.SatAdd(c.Candidates, op.plan.Bound.Candidates),
			Reads:      plan.SatAdd(c.Reads, op.plan.Bound.Reads),
		}
	}
	// Deletion support (Proposition 5.5(2)): re-derivation of a candidate
	// answer requires the whole body controlled by x̄ ∪ head variables.
	full, err := an.Analyze(q.Formula())
	if err != nil {
		return nil, err
	}
	ctrl := x.Union(q.HeadVars())
	if d := full.Controls(ctrl); d != nil {
		ps.verify = compilePlan(d, eng.DB, mode, ctrl)
	}
	return ps, nil
}

// compileOcc precomputes the positional unification of atom a, peels the
// guards off its remainder plan p, and says where each answer term's
// value comes from.
func (ps *maintPlans) compileOcc(a *query.Atom, p *Plan) (*occPlan, error) {
	op := &occPlan{atom: a, plan: p}
	first := make(map[string]int, len(a.Args))
	for pos, arg := range a.Args {
		switch {
		case !arg.IsVar():
			op.consts = append(op.consts, argConst{pos: pos, v: arg.Value()})
		case ps.fixedIdx(arg.Name()) >= 0:
			op.fixed = append(op.fixed, argRef{pos: pos, idx: ps.fixedIdx(arg.Name())})
		default:
			if at, ok := first[arg.Name()]; ok {
				op.repeats = append(op.repeats, argRef{pos: pos, idx: at})
				continue
			}
			first[arg.Name()] = pos
			op.binds = append(op.binds, argBind{pos: pos, name: arg.Name()})
		}
	}
	// src is where a term's value comes from once the tuple has unified,
	// or ok false when the rest plan binds it.
	src := func(t query.Term) (argSrc, bool) {
		if !t.IsVar() {
			return argSrc{from: srcConst, v: t.Value()}, true
		}
		if i := ps.fixedIdx(t.Name()); i >= 0 {
			return argSrc{from: srcFixed, idx: i}, true
		}
		if at, ok := first[t.Name()]; ok {
			return argSrc{from: srcDelta, idx: at}, true
		}
		return argSrc{from: srcPlan, name: t.Name()}, false
	}
	env := p.Vars.Mask(query.NewVarSet(ps.fixed...).Union(a.FreeVars()))
	probes, rest := plan.PeelGuards(p.Root, env)
	for _, g := range probes {
		gd := guard{op: g.OpID(), rel: g.Atom.Rel, args: make([]argSrc, len(g.Atom.Args))}
		for i, arg := range g.Atom.Args {
			s, ok := src(arg)
			if !ok {
				return nil, fmt.Errorf("core: guard %s of the %s plan reads %s, which neither ā nor the delta binds", g.Atom, a, arg)
			}
			gd.args[i] = s
		}
		op.guards = append(op.guards, gd)
	}
	op.rest = rest
	op.out = make([]argSrc, len(ps.rem))
	for i, h := range ps.rem {
		op.out[i], _ = src(h)
	}
	return op, nil
}

// fixedIdx returns x's index among the fixed variables, or -1.
func (ps *maintPlans) fixedIdx(x string) int {
	if i, ok := slices.BinarySearch(ps.fixed, x); ok {
		return i
	}
	return -1
}

// newReexecMaintainer builds a Maintainer that maintains purely by bounded
// re-execution of an already-prepared plan — the WithReexec path for
// queries whose body is not a maintainable conjunction. bodyRels comes
// from the query formula, so irrelevant commits are still skipped.
func newReexecMaintainer(p *PreparedQuery, fixed query.Bindings) *Maintainer {
	ps := &maintPlans{fixed: fixed.Vars().Sorted(), bodyRels: make(map[string]bool)}
	ps.initHead(query.Vars(p.q.Head...))
	collectRels(p.q.Body, ps.bodyRels)
	m := newMaintainer(p.eng, ps, fixed)
	m.reexec = p
	return m
}

// initHead splits the full head into fixed and remaining terms.
func (ps *maintPlans) initHead(head []query.Term) {
	for i, h := range head {
		if h.IsVar() && ps.fixedIdx(h.Name()) >= 0 {
			continue
		}
		ps.rem = append(ps.rem, h)
		ps.remPos = append(ps.remPos, i)
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
func (m *Maintainer) SupportsDeletions() bool { return m.ps.verify != nil }

// Maintained reports whether delta maintenance plans exist: false for a
// pure re-execution maintainer (every commit resyncs through the
// prepared plan).
func (m *Maintainer) Maintained() bool { return m.ps.occs != nil }

// maintStep is what one plan set decides about one commit, the same for
// every Maintainer sharing the plan set and its re-execution strategy:
// whether ΔD touches the body, whether it is maintained by re-execution,
// the read bound maintenance runs under, or why it cannot be maintained.
// The zero value is an untouched plan set.
type maintStep struct {
	touched bool
	reexec  bool
	bound   int64
	err     error
}

// step decides how ΔD is maintained for every Maintainer of ps whose
// re-execution plan is reexec (nil for a view). None of it reads ā, so
// Engine.Commit evaluates it once per group of watchers, not per watcher.
func (ps *maintPlans) step(d *deltaDigest, reexec *PreparedQuery) maintStep {
	if !ps.touches(d) {
		return maintStep{}
	}
	if err := ps.canMaintain(d, reexec); err != nil {
		return maintStep{touched: true, err: err}
	}
	s := maintStep{touched: true, reexec: ps.useReexec(d, reexec)}
	s.bound = ps.deltaBound(d, reexec, s.reexec)
	return s
}

// touches reports whether ΔD mentions any relation of the query body.
func (ps *maintPlans) touches(d *deltaDigest) bool {
	for i := range d.rels {
		if ps.bodyRels[d.rels[i].rel] {
			return true
		}
	}
	return false
}

// useReexec reports whether ΔD is maintained by re-executing the
// prepared plan (pure re-execution mode, or the deletion fallback).
func (ps *maintPlans) useReexec(d *deltaDigest, reexec *PreparedQuery) bool {
	if ps.occs == nil {
		return true
	}
	return !d.insertOnly && ps.verify == nil && reexec != nil
}

// canMaintain checks that a strategy exists for ΔD.
func (ps *maintPlans) canMaintain(d *deltaDigest, reexec *PreparedQuery) error {
	if ps.occs == nil && reexec == nil {
		return fmt.Errorf("core: maintainer has neither delta plans nor a re-execution plan: %w", ErrWatchNotMaintainable)
	}
	if ps.occs != nil && !d.insertOnly && ps.verify == nil && reexec == nil {
		return fmt.Errorf("core: %s supports insert-only updates (body not controlled by head variables): %w",
			ps.cq.Name, ErrWatchNotMaintainable)
	}
	return nil
}

// deltaBound is the static, N-derived bound on the tuple reads
// maintaining the answers under ΔD may charge: per inserted or deleted
// tuple, the remainder plans' read bounds; per potential deletion
// candidate, the verification plan's read bound — or, when ΔD is
// maintained by re-execution, the prepared plan's full bound M. The
// per-tuple terms are precomputed per relation, so this is a few
// multiply-adds. Independent of |D| by construction; Engine.Commit
// enforces it as the per-delta MaxReads.
func (ps *maintPlans) deltaBound(d *deltaDigest, reexec *PreparedQuery, useReexec bool) int64 {
	if useReexec {
		if reexec == nil {
			return 0
		}
		return reexec.plan.Bound.Reads
	}
	var reads, delCands int64
	for i := range d.rels {
		r := &d.rels[i]
		c := ps.coef[r.rel]
		reads = plan.SatAdd(reads, plan.SatMul(int64(len(r.ins)+len(r.del)), c.Reads))
		delCands = plan.SatAdd(delCands, plan.SatMul(int64(len(r.del)), c.Candidates))
	}
	if ps.verify != nil {
		reads = plan.SatAdd(reads, plan.SatMul(delCands, ps.verify.Bound.Reads))
	}
	return reads
}

// charge points m.rt at one maintenance call's context and stats.
func (m *Maintainer) charge(ctx context.Context, es *store.ExecStats) {
	m.rt = plan.BackendRuntime{Ctx: ctx, B: m.eng.DB, Es: es}
}

// preDelete computes the deletion candidates of ΔD against the OLD
// database state: answers that some occurrence of a deleted tuple
// contributed to. It must run before the update is applied. The set is
// nil when there are none; reexec is the commit's maintStep.reexec.
func (m *Maintainer) preDelete(ctx context.Context, es *store.ExecStats, d *deltaDigest, reexec bool) (*relation.TupleSet, error) {
	if reexec || d.insertOnly {
		return nil, nil
	}
	m.charge(ctx, es)
	var delCand *relation.TupleSet
	for i := range d.rels {
		r := &d.rels[i]
		if len(r.del) == 0 {
			continue
		}
		for _, op := range m.ps.occs[r.rel] {
			for _, t := range r.del {
				var err error
				if delCand, err = m.occAnswers(op, t, delCand); err != nil {
					return nil, err
				}
			}
		}
	}
	return delCand, nil
}

// postApply finishes maintenance after the update has been applied:
// insertion candidates against the NEW state, then bounded re-verification
// of the deletion candidates — or one bounded re-execution when ΔD is
// maintained by resync. It mutates the answer set and returns the delta.
func (m *Maintainer) postApply(ctx context.Context, es *store.ExecStats, d *deltaDigest, reexec bool, delCand *relation.TupleSet) (ins, del []relation.Tuple, err error) {
	if reexec {
		return m.resync(ctx, es)
	}
	m.charge(ctx, es)
	var insCand *relation.TupleSet
	for i := range d.rels {
		r := &d.rels[i]
		if len(r.ins) == 0 {
			continue
		}
		for _, op := range m.ps.occs[r.rel] {
			for _, t := range r.ins {
				if insCand, err = m.occAnswers(op, t, insCand); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if insCand != nil {
		for _, t := range insCand.Tuples() {
			if !m.answers.Contains(t) {
				ins = append(ins, t)
			}
		}
	}
	// A deletion candidate disappears only if no alternative derivation
	// survives: bounded re-verification with the full head fixed.
	if delCand != nil {
		for _, t := range delCand.Tuples() {
			if !m.answers.Contains(t) {
				continue
			}
			if insCand != nil && insCand.Contains(t) {
				continue // re-derived via an insertion in the same update
			}
			still, err := m.rederive(t)
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
	m.charge(ctx, es)
	head := make([]string, len(m.ps.rem))
	for i, h := range m.ps.rem {
		head[i] = h.Name()
	}
	got := relation.NewTupleSet(m.answers.Len())
	for t, err := range projectSeq(m.reexec.plan.Root.Stream(&m.rt, m.fixed), head, m.reexec.q.Name) {
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

// occAnswers adds to cands (allocated on the first answer) the answers
// occurrence op derives from delta tuple t, and returns the set: unify by
// position, probe the guards, and only when they all hold run the rest of
// the plan under the environment ā ∪ t, charging m.rt.
func (m *Maintainer) occAnswers(op *occPlan, t relation.Tuple, cands *relation.TupleSet) (*relation.TupleSet, error) {
	if !op.unifies(t, m.vals) {
		return cands, nil
	}
	if len(op.guards) > 0 {
		if err := m.rt.Check(); err != nil {
			return nil, err
		}
		for i := range op.guards {
			g := &op.guards[i]
			m.probe = m.probe[:0]
			for _, a := range g.args {
				m.probe = append(m.probe, a.value(t, m.vals))
			}
			if ok, err := m.rt.Member(g.op, g.rel, m.probe); err != nil || !ok {
				return cands, err
			}
		}
	}
	if op.rest == nil {
		return addCand(cands, op.answer(t, m.vals, nil)), nil
	}
	return m.runRest(op, t, cands)
}

// runRest runs the rest of op's plan for delta tuple t, whose guards
// held, adding its answers to cands. (Apart from occAnswers, so the
// variables the loop body captures are moved to the heap only here.)
func (m *Maintainer) runRest(op *occPlan, t relation.Tuple, cands *relation.TupleSet) (*relation.TupleSet, error) {
	env := make(query.Bindings, len(m.fixed)+len(op.binds))
	for x, v := range m.fixed {
		env[x] = v
	}
	for _, b := range op.binds {
		env[b.name] = t[b.pos]
	}
	for b, err := range op.rest.Stream(&m.rt, env) {
		if err != nil {
			return nil, err
		}
		if tu := op.answer(t, m.vals, b); tu != nil {
			cands = addCand(cands, tu)
		}
	}
	return cands, nil
}

// unifies reports whether delta tuple t matches the occurrence atom under
// ā: arity, constants, fixed variables and repeated variables, checked by
// position before anything is allocated.
func (op *occPlan) unifies(t relation.Tuple, vals []relation.Value) bool {
	if len(t) != len(op.atom.Args) {
		return false
	}
	for _, c := range op.consts {
		if !t[c.pos].Equal(c.v) {
			return false
		}
	}
	for _, f := range op.fixed {
		if !t[f.pos].Equal(vals[f.idx]) {
			return false
		}
	}
	for _, r := range op.repeats {
		if !t[r.pos].Equal(t[r.idx]) {
			return false
		}
	}
	return true
}

// answer builds the answer tuple over the remaining head from the delta
// tuple, ā and the rest plan's binding b; nil when b leaves a term
// unbound.
func (op *occPlan) answer(t relation.Tuple, vals []relation.Value, b query.Bindings) relation.Tuple {
	tu := make(relation.Tuple, len(op.out))
	for i, s := range op.out {
		if s.from != srcPlan {
			tu[i] = s.value(t, vals)
			continue
		}
		v, ok := b[s.name]
		if !ok {
			return nil
		}
		tu[i] = v
	}
	return tu
}

// value resolves a constant, fixed or delta source.
func (s *argSrc) value(t relation.Tuple, vals []relation.Value) relation.Value {
	switch s.from {
	case srcFixed:
		return vals[s.idx]
	case srcDelta:
		return t[s.idx]
	default:
		return s.v
	}
}

// addCand adds t to cands, allocating the set on first use.
func addCand(cands *relation.TupleSet, t relation.Tuple) *relation.TupleSet {
	if cands == nil {
		cands = relation.NewTupleSet(0)
	}
	cands.Add(t)
	return cands
}

// rederive checks boundedly whether answer t (over the remaining head) is
// still derivable, probing the verification plan for a first witness only.
func (m *Maintainer) rederive(t relation.Tuple) (bool, error) {
	env := make(query.Bindings, len(m.fixed)+len(m.ps.rem))
	for x, v := range m.fixed {
		env[x] = v
	}
	for i, h := range m.ps.rem {
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
	for _, err := range m.ps.verify.Root.Stream(&m.rt, env) {
		if err != nil {
			return false, err
		}
		return true, nil // first witness suffices
	}
	return false, nil
}
