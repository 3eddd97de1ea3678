package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/views"
)

// Materialized views as serving citizens (Section 6 of the paper): a view
// registered with CreateView is materialized into the storage backend as
// an ordinary relation with its own access entries, maintained
// transactionally inside Engine.Commit by the same incremental machinery
// that serves Live watchers, and consulted by Prepare — both to undercut
// a base plan's read bound and to rescue queries that are not
// controllable over the base relations at all (Theorem 6.1 / Corollary
// 6.2: Q ∈ VSQ(V, M)).
//
// Because every shard and the engine's analyzer share one relational
// schema and one access schema, registering the view relation and its
// entries makes view atoms in rewriting bodies analyzable and compilable
// exactly like base atoms: a rewriting plan is ordinary plan IR whose
// IndexLookups happen to name a view relation. No special lowering
// exists.

// matView is one registered materialized view. The maintainer is driven
// exclusively under the engine's commit lock (CreateView and Commit both
// hold it); seq and broken are additionally guarded by Engine.viewMu so
// Views(), /statusz and EXPLAIN freshness read them without the commit
// lock.
type matView struct {
	view    *views.View
	def     *query.CQ
	m       *Maintainer
	entries []access.Entry
	id      int64 // registration order: deterministic maintenance order
	seq     int64 // engine commit seq the extent is fresh as of
	broken  error // non-nil after a failed maintenance: stale, unplannable
}

// ViewInfo is the observable state of one registered view (Engine.Views,
// /statusz).
type ViewInfo struct {
	// Name is the view relation's name; Def the defining CQ.
	Name string `json:"name"`
	Def  string `json:"def"`
	// Rows is the current size of the materialized extent.
	Rows int `json:"rows"`
	// FreshSeq is the engine commit sequence number the extent reflects:
	// every commit ≤ FreshSeq is folded in.
	FreshSeq int64 `json:"fresh_seq"`
	// Entries are the access entries registered for the view relation
	// (derived bounds plus caller-supplied ones).
	Entries []string `json:"entries,omitempty"`
	// Broken, when non-empty, is the maintenance failure that froze the
	// view: the extent is stale and the planner no longer uses it.
	Broken string `json:"broken,omitempty"`
}

// CreateView materializes def into the storage backend and registers it
// as a transactionally maintained view:
//
//   - the definition is checked incrementally maintainable (the same
//     Proposition 5.5 conditions Live watchers need, with no fixed
//     variables: every per-atom remainder controlled by the atom's
//     variables, deletions re-verified through the head);
//   - the initial extent is computed and stored through the backend's DDL
//     path (Backend.AddRelation) — on a sharded backend the view relation
//     is hash-routed from its access entries like any base relation;
//   - access entries for the view are derived from the definition's own
//     controllability (for each head variable x with an x̄={x}-controlled
//     body, the candidate bound of that derivation bounds every σ_x=a(V)
//     group), with caller-supplied entries added on top after a
//     conformance check against the initial extent;
//   - from then on every Engine.Commit that touches the view's base
//     relations maintains the extent inside the commit pipeline, with
//     reads charged and bounded exactly like watcher maintenance.
//
// Registration bumps the engine's view epoch: every cached plan (and
// cached ErrNotControllable outcome) becomes unreachable, so the next
// Prepare sees the new view. Wraps ErrWatchNotMaintainable when the
// definition cannot be incrementally maintained.
func (e *Engine) CreateView(def *query.CQ, entries ...access.Entry) (ViewInfo, error) {
	v, err := views.NewView(def)
	if err != nil {
		return ViewInfo{}, err
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	name := v.Name()
	if e.viewByName(name) != nil {
		return ViewInfo{}, fmt.Errorf("core: %w: view %q", ErrViewExists, name)
	}
	// Existence is asked of the backend instance, not the relational
	// schema: schema objects are shared across shards (and across backends
	// in test harnesses), so a declaration may outlive any one instance's
	// relation.
	if e.DB.HasRelation(name) {
		return ViewInfo{}, fmt.Errorf("core: %w: base relation %q", ErrViewExists, name)
	}
	m, err := NewMaintainer(e, def, nil)
	if err != nil {
		return ViewInfo{}, fmt.Errorf("core: view %q: %w", name, err)
	}
	auto, err := e.deriveViewEntries(v)
	if err != nil {
		return ViewInfo{}, fmt.Errorf("core: view %q: %w", name, err)
	}
	tuples := m.Answers().Tuples()
	for _, en := range entries {
		if en.Rel != name {
			return ViewInfo{}, fmt.Errorf("core: %w: view %q: entry %s names another relation", ErrInvalidQuery, name, en.String())
		}
		if err := checkEntryOnExtent(v.Schema(), en, tuples); err != nil {
			return ViewInfo{}, fmt.Errorf("core: view %q: %w", name, err)
		}
	}
	all := append(auto, entries...)
	if err := e.DB.AddRelation(v.Schema(), all, tuples); err != nil {
		return ViewInfo{}, fmt.Errorf("core: view %q: %w", name, err)
	}
	mv := &matView{view: v, def: def, m: m, entries: all, seq: e.commitSeq.Load()}
	e.viewMu.Lock()
	if e.viewReg == nil {
		e.viewReg = make(map[string]*matView)
	}
	e.viewID++
	mv.id = e.viewID
	e.viewReg[name] = mv
	e.viewList = append(slices.Clip(e.viewList), mv)
	e.viewMu.Unlock()
	e.viewEpoch.Add(1)
	return e.viewInfo(mv), nil
}

// DropView retracts a registered view: the backing relation, its access
// entries and indices are removed from the backend, the maintainer is
// discarded, and the view epoch bumps so cached plans that read the view
// become unreachable. In-flight executions holding such a plan may fail
// their next fetch with an error wrapping store.ErrUnknownRelation — the
// DDL analogue of dropping a table under a running query.
func (e *Engine) DropView(name string) error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	e.viewMu.Lock()
	mv, ok := e.viewReg[name]
	if !ok {
		e.viewMu.Unlock()
		return fmt.Errorf("core: %w: %q", ErrUnknownView, name)
	}
	delete(e.viewReg, name)
	e.deactivateLocked(mv)
	e.viewMu.Unlock()
	e.viewEpoch.Add(1)
	return e.DB.DropRelation(name)
}

// Views snapshots the registered views in registration order.
func (e *Engine) Views() []ViewInfo {
	e.viewMu.RLock()
	mvs := make([]*matView, 0, len(e.viewReg))
	for _, mv := range e.viewReg {
		mvs = append(mvs, mv)
	}
	e.viewMu.RUnlock()
	sort.Slice(mvs, func(i, j int) bool { return mvs[i].id < mvs[j].id })
	out := make([]ViewInfo, len(mvs))
	for i, mv := range mvs {
		out[i] = e.viewInfo(mv)
	}
	return out
}

// NumViews reports the number of registered views (broken ones included).
func (e *Engine) NumViews() int {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return len(e.viewReg)
}

// ViewEpoch reports the view-set epoch: bumped by CreateView, DropView
// and a maintenance failure. Part of every plan-cache key.
func (e *Engine) ViewEpoch() int64 { return e.viewEpoch.Load() }

func (e *Engine) viewInfo(mv *matView) ViewInfo {
	e.viewMu.RLock()
	seq, broken := mv.seq, mv.broken
	e.viewMu.RUnlock()
	info := ViewInfo{
		Name:     mv.view.Name(),
		Def:      mv.def.String(),
		Rows:     mv.m.Len(),
		FreshSeq: seq,
	}
	for _, en := range mv.entries {
		info.Entries = append(info.Entries, en.String())
	}
	if broken != nil {
		info.Broken = broken.Error()
	}
	return info
}

func (e *Engine) viewByName(name string) *matView {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return e.viewReg[name]
}

// viewFreshSeq returns the commit seq the named view's extent reflects.
func (e *Engine) viewFreshSeq(name string) (int64, bool) {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	mv, ok := e.viewReg[name]
	if !ok {
		return 0, false
	}
	return mv.seq, true
}

// activeViews returns the non-broken views in registration order. The
// slice is shared: callers must not modify it.
func (e *Engine) activeViews() []*matView {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return e.viewList
}

// deactivateLocked takes mv off the active list, publishing a new list.
//
//sivet:holds viewMu
func (e *Engine) deactivateLocked(mv *matView) {
	e.viewList = slices.DeleteFunc(slices.Clone(e.viewList), func(v *matView) bool { return v == mv })
}

// breakView freezes a view after a maintenance failure: the extent stays
// (stale) but the planner stops using it, and the epoch bump invalidates
// every cached plan that reads it. Called under the commit lock.
func (e *Engine) breakView(mv *matView, err error) {
	e.viewMu.Lock()
	mv.broken = err
	e.deactivateLocked(mv)
	e.viewMu.Unlock()
	e.viewEpoch.Add(1)
}

// deriveViewEntries computes sound access entries for the view relation
// from the definition's own controllability analysis: if the body is
// x̄-controlled for x̄ ⊆ head, the derivation's candidate bound also bounds
// |σ_x̄=ā(V)| for every ā — the view's answers are projections of at most
// that many candidate valuations. One entry per singleton head variable
// plus, when the body is ∅-controlled (a closed, bounded view), a
// whole-relation entry.
func (e *Engine) deriveViewEntries(v *views.View) ([]access.Entry, error) {
	res, err := e.An.Analyze(v.Def.Formula())
	if err != nil {
		return nil, err
	}
	rs := v.Schema()
	var out []access.Entry
	add := func(on []string, d *Derivation) {
		c := CostOf(d).Candidates
		if c >= plan.CostCap {
			return // saturated bound: useless as an entry
		}
		out = append(out, access.Plain(rs.Name, on, int(c), 1))
	}
	if d := res.Controls(nil); d != nil {
		add(nil, d)
	}
	for _, x := range rs.Attrs {
		if d := res.Controls(query.NewVarSet(x)); d != nil {
			add([]string{x}, d)
		}
	}
	return out, nil
}

// checkEntryOnExtent verifies a caller-supplied entry against the initial
// extent: every σ_X=ā group within its N. Like the base access schema,
// the entry remains an assumption about future data — maintenance does
// not re-check it — but a bound the current extent already violates is
// rejected outright.
func checkEntryOnExtent(rs relation.RelSchema, en access.Entry, tuples []relation.Tuple) error {
	if err := en.Validate(relation.MustSchema(rs)); err != nil {
		return err
	}
	onPos, err := rs.Positions(en.On)
	if err != nil {
		return err
	}
	projPos, err := rs.Positions(en.ProjFor(rs))
	if err != nil {
		return err
	}
	groups := make(map[string]*relation.TupleSet)
	for _, t := range tuples {
		k := t.Project(onPos).Key()
		g := groups[k]
		if g == nil {
			g = relation.NewTupleSet(1)
			groups[k] = g
		}
		g.Add(t.Project(projPos))
		//sivet:ignore entrybound -- checks the data against the declared N; a conformance check, not a price
		if g.Len() > en.N {
			return fmt.Errorf("entry %s violated by the initial extent (group of %s)", en.String(), t)
		}
	}
	return nil
}

// viewRewritePlan searches for a view-based plan of q controlled by x̄:
// rewritings of q over the active views (views.FindRewritings — soundness
// via expansion equivalence) whose bodies are x̄-controlled under the
// view-extended access schema, compiled through the ordinary plan
// pipeline. It returns the first rewriting plan with the smallest static
// read bound, annotated with the views it reads, provided that bound is
// strictly below base's. With base nil, q is not controllable over the
// base relations and any x̄-controlled rewriting rescues it (the Theorem
// 6.1 path: q served from VSQ(V, M) with M = the plan's base read bound);
// the plan is marked rescued.
//
// Candidates are priced before they are built. The incumbent is base's
// bound, then the bound of the cheapest rewriting built so far; a
// candidate is expanded, checked for equivalence, analysed and compiled
// only when plan.PriceBelow says its body might cost fewer reads. The
// price is a lower bound on every plan the analysis and the optimizer
// can build, so the plan chosen is the one building every candidate would
// choose. A rescue prices nothing until its first candidate is built.
func (e *Engine) viewRewritePlan(q *query.Query, x query.VarSet, mode OptimizerMode, base *Plan) (*PreparedQuery, bool) {
	active := e.activeViews()
	if len(active) == 0 {
		return nil, false
	}
	cqq, ok := query.AsCQ(q)
	if !ok {
		return nil, false
	}
	vs := make([]*views.View, len(active))
	for i, mv := range active {
		vs[i] = mv.view
	}
	acc := e.DB.Access()
	var best *PreparedQuery
	// incumbent is the bound a rewriting must undercut: the cheapest one
	// built so far, else base's; a rescue has none before its first.
	incumbent := func() (int64, bool) {
		switch {
		case best != nil:
			return best.plan.Bound.Reads, true
		case base != nil:
			return base.Bound.Reads, true
		}
		return 0, false
	}
	mayWin := func(r *views.Rewriting) bool {
		limit, ok := incumbent()
		return !ok || plan.PriceBelow(acc, r.Body.Atoms, x, limit)
	}
	rws, err := views.FindRewritings(cqq, vs, 0, func(r *views.Rewriting) bool {
		// A head reshaped by eq-elimination would not project back.
		return sameHead(r.Body.Head, q.Head) && mayWin(r)
	})
	if err != nil {
		return nil, false
	}
	for _, r := range rws {
		if best != nil && !mayWin(r) {
			continue // priced against base, but a cheaper rewriting is built now
		}
		rq, err := r.Body.Query()
		if err != nil {
			continue
		}
		res, err := e.An.AnalyzeQuery(rq)
		if err != nil {
			continue
		}
		d := res.Controls(x)
		if d == nil {
			continue
		}
		pl := compilePlan(d, e.DB, mode, nil)
		if limit, ok := incumbent(); ok && pl.Bound.Reads >= limit {
			continue
		}
		pl.Views = rewritingViews(r)
		pl.Rescued = base == nil
		best = &PreparedQuery{eng: e, q: q, ctrl: x.Clone(), d: d, plan: pl}
	}
	return best, best != nil
}

// sameHead reports whether a rewriting's head, without its constants (as
// CQ.Query drops them), is the variable list head.
func sameHead(terms []query.Term, head []string) bool {
	i := 0
	for _, t := range terms {
		if !t.IsVar() {
			continue
		}
		if i == len(head) || t.Name() != head[i] {
			return false
		}
		i++
	}
	return i == len(head)
}

// rewritingViews lists the distinct view relations a rewriting reads, in
// body order.
func rewritingViews(r *views.Rewriting) []string {
	var out []string
	seen := make(map[string]bool)
	for _, va := range r.ViewAtoms {
		if !seen[va.Rel] {
			seen[va.Rel] = true
			out = append(out, va.Rel)
		}
	}
	return out
}

// viewFreshness renders EXPLAIN provenance for a view-serving plan: each
// view with the commit seq its extent is fresh as of.
func (e *Engine) viewFreshness(names []string) string {
	if e == nil || len(names) == 0 {
		return ""
	}
	parts := make([]string, 0, len(names))
	for _, n := range names {
		if seq, ok := e.viewFreshSeq(n); ok {
			parts = append(parts, fmt.Sprintf("%s fresh@%d", n, seq))
		} else {
			parts = append(parts, n+" (dropped)")
		}
	}
	return "view freshness: " + strings.Join(parts, ", ")
}
