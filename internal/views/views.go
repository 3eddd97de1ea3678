// Package views implements scale independence using views (Section 6 of
// the paper): CQ view definitions and materialization, rewriting search
// with equivalence checked through expansion and containment, the
// constrained-variable analysis and VQSI decision procedure of Theorem
// 6.1, and the sufficient conditions of Corollary 6.2 for answering a
// query from materialized views plus a bounded number of base tuples.
package views

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/relation"
)

// View is a named conjunctive view over the base schema. The head must be
// variables only; the view relation's attributes are named after them.
type View struct {
	Def *query.CQ
}

// NewView validates a view definition.
func NewView(def *query.CQ) (*View, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(def.Head))
	for _, h := range def.Head {
		if !h.IsVar() {
			return nil, fmt.Errorf("views: %s: constant in view head", def.Name)
		}
		if seen[h.Name()] {
			return nil, fmt.Errorf("views: %s: repeated head variable %q", def.Name, h.Name())
		}
		seen[h.Name()] = true
	}
	return &View{Def: def}, nil
}

// Name returns the view's relation name.
func (v *View) Name() string { return v.Def.Name }

// Schema returns the view's relation schema (attributes named after the
// head variables).
func (v *View) Schema() relation.RelSchema {
	attrs := make([]string, len(v.Def.Head))
	for i, h := range v.Def.Head {
		attrs[i] = h.Name()
	}
	return relation.RelSchema{Name: v.Def.Name, Attrs: attrs}
}

// CombinedSchema extends the base schema with one relation per view.
func CombinedSchema(base *relation.Schema, views []*View) (*relation.Schema, error) {
	s, err := relation.NewSchema(base.Rels()...)
	if err != nil {
		return nil, err
	}
	for _, v := range views {
		if err := s.Add(v.Schema()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Materialize evaluates every view over base and returns a combined
// database over CombinedSchema (base relations shared by value copy).
func Materialize(base *relation.Database, views []*View) (*relation.Database, error) {
	cs, err := CombinedSchema(base.Schema(), views)
	if err != nil {
		return nil, err
	}
	db := relation.NewDatabase(cs)
	for _, name := range base.Schema().Names() {
		for _, t := range base.Rel(name).Tuples() {
			db.MustInsert(name, t)
		}
	}
	for _, v := range views {
		ext, err := eval.AnswersCQ(eval.DBSource{DB: base}, v.Def, nil)
		if err != nil {
			return nil, err
		}
		for _, t := range ext.Tuples() {
			db.MustInsert(v.Name(), t)
		}
	}
	return db, nil
}

// Rewriting is a candidate rewriting Q′ of Q using views: base atoms Q′b
// plus view atoms Q′v, with Q's head.
type Rewriting struct {
	Q         *query.CQ
	Body      *query.CQ // rewritten query; atoms = BaseAtoms ∪ ViewAtoms
	BaseAtoms []*query.Atom
	ViewAtoms []*query.Atom
}

// BaseSize returns ‖Q′b‖, the number of base atoms — the quantity bounded
// by M in Theorem 6.1.
func (r *Rewriting) BaseSize() int { return len(r.BaseAtoms) }

// String renders the rewriting.
func (r *Rewriting) String() string { return r.Body.String() }

// application is one way to use a view: a homomorphism from the view body
// into the query body, covering a set of query atoms.
type application struct {
	view     *View
	viewAtom *query.Atom
	covered  map[int]bool // indices into q.Atoms
}

// findApplications enumerates embeddings of each view body into q.
func findApplications(q *query.CQ, views []*View, limit int) []application {
	var out []application
	for _, v := range views {
		def, ok := v.Def.ApplyEqs()
		if !ok {
			continue
		}
		embedViewBody(def, q, func(h query.Subst, covered map[int]bool) bool {
			args := make([]query.Term, len(def.Head))
			for i, hv := range def.Head {
				args[i] = h.ApplyTerm(hv)
			}
			cov := make(map[int]bool, len(covered))
			for k := range covered {
				cov[k] = true
			}
			out = append(out, application{
				view:     v,
				viewAtom: query.NewAtom(v.Name(), args...),
				covered:  cov,
			})
			return len(out) < limit
		})
		if len(out) >= limit {
			break
		}
	}
	return out
}

// embedViewBody backtracks over the view's body atoms, mapping each to a
// query atom.
func embedViewBody(def *query.CQ, q *query.CQ, yield func(h query.Subst, covered map[int]bool) bool) {
	h := make(query.Subst)
	covered := make(map[int]bool)
	stopped := false
	var rec func(i int)
	rec = func(i int) {
		if stopped {
			return
		}
		if i == len(def.Atoms) {
			if !yield(h, covered) {
				stopped = true
			}
			return
		}
		a := def.Atoms[i]
		for qi, b := range q.Atoms {
			if b.Rel != a.Rel || len(b.Args) != len(a.Args) {
				continue
			}
			var added []string
			ok := true
			for k := range a.Args {
				at, bt := a.Args[k], b.Args[k]
				if !at.IsVar() {
					if bt.IsVar() || at.Value() != bt.Value() {
						ok = false
						break
					}
					continue
				}
				if cur, has := h[at.Name()]; has {
					if cur != bt {
						ok = false
						break
					}
					continue
				}
				h[at.Name()] = bt
				added = append(added, at.Name())
			}
			if ok {
				wasCovered := covered[qi]
				covered[qi] = true
				rec(i + 1)
				if !wasCovered {
					delete(covered, qi)
				}
			}
			for _, v := range added {
				delete(h, v)
			}
			if stopped {
				return
			}
		}
	}
	rec(0)
}

// Expansion unfolds the rewriting's view atoms by their definitions
// (standardized apart), yielding a CQ over the base schema.
func (r *Rewriting) Expansion(views map[string]*View) (*query.CQ, error) {
	atoms := append([]*query.Atom(nil), r.BaseAtoms...)
	for i, va := range r.ViewAtoms {
		v := views[va.Rel]
		if v == nil {
			return nil, fmt.Errorf("views: unknown view %q in rewriting", va.Rel)
		}
		def, ok := v.Def.ApplyEqs()
		if !ok {
			return nil, fmt.Errorf("views: unsatisfiable view %q", va.Rel)
		}
		def = cq.StandardizeApart(def, fmt.Sprintf("_v%d", i))
		if len(def.Head) != len(va.Args) {
			return nil, fmt.Errorf("views: arity mismatch for %q", va.Rel)
		}
		sub := make(query.Subst, len(def.Head))
		for k, hv := range def.Head {
			sub[hv.Name()] = va.Args[k]
		}
		for _, a := range def.Atoms {
			atoms = append(atoms, &query.Atom{Rel: a.Rel, Args: sub.ApplyTerms(a.Args)})
		}
	}
	return &query.CQ{Name: r.Q.Name + "_exp", Head: r.Q.Head, Atoms: atoms}, nil
}

// FindRewritings enumerates rewritings of q using the views: subsets of
// view applications whose view atoms, together with the uncovered base
// atoms, are equivalent to q (checked via expansion and CQ containment
// both ways). The search is capped; cap ≤ 0 means DefaultRewritingCap.
//
// With admit nil, the trivial rewriting (no views) is included. With
// admit set, FindRewritings serves a caller that already holds the base
// plan: it returns nothing when no view applies, never builds the trivial
// rewriting, and offers every other candidate to admit before checking
// it — only candidates admit accepts are expanded, checked for
// equivalence and counted against the cap. Candidates reach admit with
// Q, Body, BaseAtoms and ViewAtoms set.
func FindRewritings(q *query.CQ, views []*View, cap int, admit func(*Rewriting) bool) ([]*Rewriting, error) {
	if cap <= 0 {
		cap = DefaultRewritingCap
	}
	qq, ok := q.ApplyEqs()
	if !ok {
		return nil, fmt.Errorf("views: query %s is unsatisfiable", q.Name)
	}
	apps := findApplications(qq, views, 32)
	first := 0
	if admit != nil {
		if len(apps) == 0 {
			return nil, nil
		}
		first = 1 // the trivial rewriting is the caller's base plan
	}
	byName := make(map[string]*View, len(views))
	for _, v := range views {
		byName[v.Name()] = v
	}
	var out []*Rewriting
	// Subsets of applications, small first.
	n := len(apps)
	total := 1 << n
	if n > 12 {
		total = 1 << 12
	}
	for mask := first; mask < total && len(out) < cap; mask++ {
		covered := make(map[int]bool)
		var viewAtoms []*query.Atom
		seenAtom := make(map[string]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for k := range apps[i].covered {
				covered[k] = true
			}
			key := apps[i].viewAtom.String()
			if !seenAtom[key] {
				seenAtom[key] = true
				viewAtoms = append(viewAtoms, apps[i].viewAtom)
			}
		}
		var baseAtoms []*query.Atom
		for i, a := range qq.Atoms {
			if !covered[i] {
				baseAtoms = append(baseAtoms, a)
			}
		}
		body := &query.CQ{
			Name:  qq.Name + "_rw",
			Head:  qq.Head,
			Atoms: append(append([]*query.Atom(nil), baseAtoms...), viewAtoms...),
		}
		if body.Validate() != nil {
			continue
		}
		r := &Rewriting{Q: qq, Body: body, BaseAtoms: baseAtoms, ViewAtoms: viewAtoms}
		if admit != nil && !admit(r) {
			continue
		}
		exp, err := r.Expansion(byName)
		if err != nil {
			continue
		}
		if cq.Equivalent(exp, qq) {
			out = append(out, r)
		}
	}
	return out, nil
}

// DefaultRewritingCap bounds the number of rewritings returned (with an
// admit callback: of admitted candidates that passed the equivalence
// check).
const DefaultRewritingCap = 64

// UnconstrainedVars returns the distinguished variables of the rewriting
// that are unconstrained per Theorem 6.1: not instantiated to a constant
// and connected to a base atom through a chain of view atoms sharing
// variables.
func (r *Rewriting) UnconstrainedVars() query.VarSet {
	out := make(query.VarSet)
	for _, h := range r.Body.Head {
		if !h.IsVar() {
			continue
		}
		if r.connectsToBase(h.Name()) {
			out[h.Name()] = true
		}
	}
	return out
}

// connectsToBase runs the chain search: frontier variables grow through
// view atoms; reaching any base atom makes the variable unconstrained.
func (r *Rewriting) connectsToBase(x string) bool {
	frontier := query.NewVarSet(x)
	for {
		for _, b := range r.BaseAtoms {
			if !b.FreeVars().Disjoint(frontier) {
				return true
			}
		}
		grew := false
		for _, va := range r.ViewAtoms {
			vs := va.FreeVars()
			if vs.Disjoint(frontier) {
				continue
			}
			for v := range vs {
				if !frontier[v] {
					frontier[v] = true
					grew = true
				}
			}
		}
		if !grew {
			return false
		}
	}
}

// VQSIDecision is the outcome of the VQSI problem.
type VQSIDecision struct {
	InVSQ     bool
	Rewriting *Rewriting // witnessing rewriting when InVSQ
	// Reason explains a negative answer.
	Reason string
}

// DecideVQSI decides whether Q ∈ VSQ(V, M) per the characterization in the
// proof of Theorem 6.1: Q is scale-independent w.r.t. M using V iff some
// rewriting Q′ has (a) every distinguished variable constrained and (b)
// ‖Q′b‖ ≤ M; for Boolean queries condition (b) alone.
func DecideVQSI(q *query.CQ, views []*View, m int, cap int) (*VQSIDecision, error) {
	rws, err := FindRewritings(q, views, cap, nil)
	if err != nil {
		return nil, err
	}
	boolean := len(q.Head) == 0
	for _, r := range rws {
		if r.BaseSize() > m {
			continue
		}
		if boolean || r.UnconstrainedVars().IsEmpty() {
			return &VQSIDecision{InVSQ: true, Rewriting: r}, nil
		}
	}
	return &VQSIDecision{InVSQ: false,
		Reason: fmt.Sprintf("no rewriting among %d candidates has ‖Q'b‖ ≤ %d with all distinguished variables constrained", len(rws), m)}, nil
}

// ViewAccess builds an access schema for the combined (base + views)
// schema: the base entries are kept, and each view gets the entries the
// caller supplies (views are assumed cached and indexable at will, per the
// paper's "materialized views should be of small size").
func ViewAccess(baseAcc *access.Schema, combined *relation.Schema, viewEntries []access.Entry) (*access.Schema, error) {
	out := access.New(combined)
	out.ImplicitMembership = baseAcc.ImplicitMembership
	for _, e := range baseAcc.Explicit() {
		if err := out.Add(e); err != nil {
			return nil, err
		}
	}
	for _, e := range viewEntries {
		if err := out.Add(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}
