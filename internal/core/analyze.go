package core

import (
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/query"
)

// Rule names the controllability rule that produced a derivation node,
// using the paper's terminology (Section 4).
type Rule string

// The controllability rules.
const (
	RuleAtom       Rule = "atom"
	RuleConditions Rule = "conditions"
	RuleConj       Rule = "conjunction"
	RuleDisj       Rule = "disjunction"
	RuleSafeNeg    Rule = "safe-negation"
	RuleExists     Rule = "existential"
	RuleForall     Rule = "universal"
	RuleEmbedded   Rule = "embedded"
)

// Derivation is a proof that a formula is Ctrl-controlled under the access
// schema, carrying enough structure to compile into an executable bounded
// plan. Children are stored in execution order: for a conjunction,
// Children[0] runs first and Children[1] runs once per candidate binding.
type Derivation struct {
	Rule     Rule
	F        query.Formula
	Ctrl     query.VarSet
	Entry    access.Entry  // RuleAtom: the access entry used
	OnPos    []int         // RuleAtom: positions (within the atom) of Entry.On
	Children []*Derivation // rule-dependent subderivations
	Chase    *ChasePlan    // RuleEmbedded
}

// Free returns the free variables of the derived formula.
func (d *Derivation) Free() query.VarSet { return d.F.FreeVars() }

// Explain renders the derivation tree, one rule per line.
func (d *Derivation) Explain() string {
	var b strings.Builder
	d.explain(&b, 0)
	return b.String()
}

func (d *Derivation) explain(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s[%s] %s controlled by %s", indent, d.Rule, d.F, d.Ctrl)
	switch d.Rule {
	case RuleAtom:
		fmt.Fprintf(b, " via %s", d.Entry.String())
	case RuleEmbedded:
		fmt.Fprintf(b, " via chase (%d steps)", len(d.Chase.Steps))
	}
	b.WriteByte('\n')
	if d.Chase != nil {
		for _, s := range d.Chase.Steps {
			fmt.Fprintf(b, "%s  step: %s\n", indent, s)
		}
	}
	for _, c := range d.Children {
		c.explain(b, depth+1)
	}
}

// Analyzer computes controllability under a fixed access schema.
type Analyzer struct {
	Acc *access.Schema
	// MaxSets caps the number of minimal controlling sets kept per
	// subformula; QCntl is NP-complete (Theorem 4.4), so the family can be
	// exponential. 0 means DefaultMaxSets. Truncation is reported in
	// Result.Truncated.
	MaxSets int
}

// DefaultMaxSets is the default cap on per-node family size.
const DefaultMaxSets = 64

// NewAnalyzer builds an analyzer for the access schema.
func NewAnalyzer(acc *access.Schema) *Analyzer { return &Analyzer{Acc: acc} }

// Result holds the controllability analysis of one formula.
type Result struct {
	Formula query.Formula
	// Derivs contains one derivation per minimal controlling set (the
	// cheapest found for that set).
	Derivs []*Derivation
	// Truncated reports that the family was capped at MaxSets somewhere,
	// so a controlling set may have been missed.
	Truncated bool
}

// Family returns the minimal controlling sets.
func (r *Result) Family() Family {
	out := make(Family, len(r.Derivs))
	for i, d := range r.Derivs {
		out[i] = d.Ctrl
	}
	return out
}

// Controls returns a derivation witnessing that the formula is
// x̄-controlled, or nil if none of the derived sets is contained in x̄.
func (r *Result) Controls(x query.VarSet) *Derivation {
	for _, d := range r.Derivs {
		if d.Ctrl.SubsetOf(x) {
			return d
		}
	}
	return nil
}

// FullyControlled reports whether the formula is controlled by all of its
// free variables (the paper's "Q′ is controlled under A").
func (r *Result) FullyControlled() bool {
	return r.Controls(r.Formula.FreeVars()) != nil
}

// Analyze computes the family of minimal controlling sets for f, with a
// derivation for each.
func (a *Analyzer) Analyze(f query.Formula) (*Result, error) {
	st := &analysisState{an: a, max: a.MaxSets}
	if st.max <= 0 {
		st.max = DefaultMaxSets
	}
	ds, err := st.analyze(f, false)
	if err != nil {
		return nil, err
	}
	return &Result{Formula: f, Derivs: ds, Truncated: st.truncated}, nil
}

// AnalyzeQuery analyzes the body of a named query.
func (a *Analyzer) AnalyzeQuery(q *query.Query) (*Result, error) { return a.Analyze(q.Body) }

type analysisState struct {
	an        *Analyzer
	max       int
	truncated bool
}

// analyze returns derivations for the minimal controlling sets of f.
// parentConj marks nodes analyzed as direct constituents of an enclosing
// conjunctive shape (And or Exists): the chase runs only at the maximal
// conjunctive node, which sees the whole flattened conjunction and is
// insensitive to the binary rule's association order.
func (st *analysisState) analyze(f query.Formula, parentConj bool) ([]*Derivation, error) {
	var cands []*Derivation

	// conditions rule: any Boolean combination of equalities (no relation
	// atoms, no quantifiers) is controlled by all its variables.
	if isEqualityOnly(f) {
		cands = append(cands, &Derivation{Rule: RuleConditions, F: f, Ctrl: f.FreeVars()})
	}

	switch n := f.(type) {
	case *query.Atom:
		ds, err := st.atomDerivs(n)
		if err != nil {
			return nil, err
		}
		cands = append(cands, ds...)
	case *query.Eq, *query.Truth:
		// covered by the conditions rule above
	case *query.Not:
		// A bare negation has no rule (safe negation is recognized at the
		// enclosing conjunction); equality-only case handled above.
	case *query.And:
		ds, err := st.conjDerivs(n)
		if err != nil {
			return nil, err
		}
		cands = append(cands, ds...)
	case *query.Or:
		ds, err := st.disjDerivs(n)
		if err != nil {
			return nil, err
		}
		cands = append(cands, ds...)
	case *query.Implies:
		// No rule outside ∀ȳ(Q → Q′); equality-only handled above.
	case *query.Exists:
		ds, err := st.existsDerivs(n)
		if err != nil {
			return nil, err
		}
		cands = append(cands, ds...)
	case *query.Forall:
		ds, err := st.forallDerivs(n)
		if err != nil {
			return nil, err
		}
		cands = append(cands, ds...)
	default:
		return nil, fmt.Errorf("core: unknown formula node %T", f)
	}

	// Chase-based controllability for conjunctive shapes: plain entries
	// make it order-insensitive (unlike the binary conjunction rule);
	// embedded entries realize Proposition 4.5. Runs only at the maximal
	// conjunctive node.
	if !parentConj {
		eds, err := st.embeddedDerivs(f)
		if err != nil {
			return nil, err
		}
		cands = append(cands, eds...)
	}

	return st.minimalize(cands), nil
}

// minimalize keeps one (cheapest) derivation per minimal controlling set,
// capped at max.
func (st *analysisState) minimalize(cands []*Derivation) []*Derivation {
	byCtrl := make(map[string]*Derivation)
	var sets []query.VarSet
	for _, d := range cands {
		k := d.Ctrl.Key()
		prev, ok := byCtrl[k]
		if !ok {
			byCtrl[k] = d
			sets = append(sets, d.Ctrl)
			continue
		}
		if CostOf(d).Reads < CostOf(prev).Reads {
			byCtrl[k] = d
		}
	}
	fam := normalizeFamily(sets)
	if len(fam) > st.max {
		fam = fam[:st.max]
		st.truncated = true
	}
	out := make([]*Derivation, len(fam))
	for i, s := range fam {
		out[i] = byCtrl[s.Key()]
	}
	return out
}

// atomDerivs applies the atom rule: for each plain access entry
// (R, X, N, T), the atom is controlled by its variables at the X positions.
// Embedded entries do not control the full atom (their Y omits attributes)
// and are used only by the chase.
func (st *analysisState) atomDerivs(a *query.Atom) ([]*Derivation, error) {
	rs, ok := st.an.Acc.Relational().Rel(a.Rel)
	if !ok {
		return nil, fmt.Errorf("core: unknown relation %q in atom %s", a.Rel, a)
	}
	if len(a.Args) != rs.Arity() {
		return nil, fmt.Errorf("core: atom %s has arity %d, relation %s has %d", a, len(a.Args), a.Rel, rs.Arity())
	}
	var out []*Derivation
	for _, e := range st.an.Acc.ForRel(a.Rel) {
		if e.IsEmbedded() {
			continue
		}
		pos, err := rs.Positions(e.On)
		if err != nil {
			return nil, err
		}
		ctrl := make(query.VarSet)
		for _, p := range pos {
			if a.Args[p].IsVar() {
				ctrl[a.Args[p].Name()] = true
			}
		}
		out = append(out, &Derivation{Rule: RuleAtom, F: a, Ctrl: ctrl, Entry: e, OnPos: pos})
	}
	return out, nil
}

// conjDerivs applies the conjunction rule and, when one side is a safe
// negation of the other’s variables, the safe-negation rule.
func (st *analysisState) conjDerivs(n *query.And) ([]*Derivation, error) {
	left, err := st.analyze(n.L, true)
	if err != nil {
		return nil, err
	}
	right, err := st.analyze(n.R, true)
	if err != nil {
		return nil, err
	}
	freeL, freeR := n.L.FreeVars(), n.R.FreeVars()
	var out []*Derivation
	// Conjunction rule: Q1 ∧ Q2 is controlled by x̄1 ∪ (x̄2 − ȳ1) (evaluate
	// Q1 first) and by x̄2 ∪ (x̄1 − ȳ2) (evaluate Q2 first), where ȳi are
	// the other free variables of Qi.
	for _, dl := range left {
		for _, dr := range right {
			out = append(out, &Derivation{
				Rule: RuleConj, F: n,
				Ctrl:     dl.Ctrl.Union(dr.Ctrl.Minus(freeL)),
				Children: []*Derivation{dl, dr},
			})
			out = append(out, &Derivation{
				Rule: RuleConj, F: n,
				Ctrl:     dr.Ctrl.Union(dl.Ctrl.Minus(freeR)),
				Children: []*Derivation{dr, dl},
			})
		}
	}
	// Safe negation: Q ∧ ¬Q′ with free(Q′) ⊆ free(Q), Q′ fully controlled.
	// The second child derives the *inner* Q′ (the executor inverts it).
	if neg, ok := n.R.(*query.Not); ok && neg.F.FreeVars().SubsetOf(freeL) {
		inner, err := st.analyze(neg.F, false)
		if err != nil {
			return nil, err
		}
		if dn := fullyControlledDeriv(inner, neg.F); dn != nil {
			for _, dl := range left {
				out = append(out, &Derivation{
					Rule: RuleSafeNeg, F: n, Ctrl: dl.Ctrl,
					Children: []*Derivation{dl, dn},
				})
			}
		}
	}
	if neg, ok := n.L.(*query.Not); ok && neg.F.FreeVars().SubsetOf(freeR) {
		inner, err := st.analyze(neg.F, false)
		if err != nil {
			return nil, err
		}
		if dn := fullyControlledDeriv(inner, neg.F); dn != nil {
			for _, dr := range right {
				out = append(out, &Derivation{
					Rule: RuleSafeNeg, F: n, Ctrl: dr.Ctrl,
					Children: []*Derivation{dr, dn},
				})
			}
		}
	}
	return out, nil
}

// fullyControlledDeriv picks a derivation showing f is controlled by all
// its free variables, preferring cheap ones. The derivations in ds are for
// f itself.
func fullyControlledDeriv(ds []*Derivation, f query.Formula) *Derivation {
	free := f.FreeVars()
	var best *Derivation
	for _, d := range ds {
		if !d.Ctrl.SubsetOf(free) {
			continue
		}
		if best == nil || CostOf(d).Reads < CostOf(best).Reads {
			best = d
		}
	}
	return best
}

// disjDerivs applies the disjunction rule: both disjuncts must have the
// same free variables; the result is controlled by x̄1 ∪ x̄2.
func (st *analysisState) disjDerivs(n *query.Or) ([]*Derivation, error) {
	if !n.L.FreeVars().Equal(n.R.FreeVars()) {
		return nil, nil
	}
	left, err := st.analyze(n.L, false)
	if err != nil {
		return nil, err
	}
	right, err := st.analyze(n.R, false)
	if err != nil {
		return nil, err
	}
	var out []*Derivation
	for _, dl := range left {
		for _, dr := range right {
			out = append(out, &Derivation{
				Rule: RuleDisj, F: n,
				Ctrl:     dl.Ctrl.Union(dr.Ctrl),
				Children: []*Derivation{dl, dr},
			})
		}
	}
	return out, nil
}

// existsDerivs applies the existential rule: controlling sets of the body
// that avoid the quantified variables carry over.
func (st *analysisState) existsDerivs(n *query.Exists) ([]*Derivation, error) {
	body, err := st.analyze(n.Body, true)
	if err != nil {
		return nil, err
	}
	z := query.NewVarSet(n.Vars...)
	var out []*Derivation
	for _, d := range body {
		if d.Ctrl.Disjoint(z) {
			out = append(out, &Derivation{
				Rule: RuleExists, F: n, Ctrl: d.Ctrl,
				Children: []*Derivation{d},
			})
		}
	}
	return out, nil
}

// forallDerivs applies the universal rule to the shape ∀ȳ (Q → Q′): Q must
// be controlled by its free variables outside ȳ, Q′ must be fully
// controlled with free(Q′) ⊆ free(Q) ∪ ȳ; the result is controlled by
// free(Q) − ȳ (and by nothing smaller — see Proposition 4.3).
func (st *analysisState) forallDerivs(n *query.Forall) ([]*Derivation, error) {
	imp, ok := n.Body.(*query.Implies)
	if !ok {
		return nil, nil
	}
	y := query.NewVarSet(n.Vars...)
	freeQ := imp.L.FreeVars()
	if !imp.R.FreeVars().SubsetOf(freeQ.Union(y)) {
		return nil, nil
	}
	x := freeQ.Minus(y)
	qDerivs, err := st.analyze(imp.L, false)
	if err != nil {
		return nil, err
	}
	dq := fullyControlledSubset(qDerivs, x)
	if dq == nil {
		return nil, nil
	}
	qpDerivs, err := st.analyze(imp.R, false)
	if err != nil {
		return nil, err
	}
	dqp := fullyControlledDeriv(qpDerivs, imp.R)
	if dqp == nil {
		return nil, nil
	}
	return []*Derivation{{
		Rule: RuleForall, F: n, Ctrl: x,
		Children: []*Derivation{dq, dqp},
	}}, nil
}

// fullyControlledSubset picks the cheapest derivation whose controlling set
// is contained in x.
func fullyControlledSubset(ds []*Derivation, x query.VarSet) *Derivation {
	var best *Derivation
	for _, d := range ds {
		if !d.Ctrl.SubsetOf(x) {
			continue
		}
		if best == nil || CostOf(d).Reads < CostOf(best).Reads {
			best = d
		}
	}
	return best
}

// isEqualityOnly reports whether f mentions no relation atoms and no
// quantifiers: a Boolean combination of equalities and truth constants.
func isEqualityOnly(f query.Formula) bool {
	switch n := f.(type) {
	case *query.Eq, *query.Truth:
		return true
	case *query.Atom:
		return false
	case *query.Not:
		return isEqualityOnly(n.F)
	case *query.And:
		return isEqualityOnly(n.L) && isEqualityOnly(n.R)
	case *query.Or:
		return isEqualityOnly(n.L) && isEqualityOnly(n.R)
	case *query.Implies:
		return isEqualityOnly(n.L) && isEqualityOnly(n.R)
	case *query.Exists, *query.Forall:
		return false
	default:
		return false
	}
}

// allArgsBoundOrConst reports whether every argument at the given positions
// is a constant or a variable in bound.
func allArgsBoundOrConst(a *query.Atom, positions []int, bound query.VarSet) bool {
	for _, p := range positions {
		t := a.Args[p]
		if t.IsVar() && !bound.Contains(t.Name()) {
			return false
		}
	}
	return true
}
