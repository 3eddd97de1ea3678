package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/access"
	"repro/internal/plan"
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
	Rule Rule
	F    query.Formula
	// Ctrl is the controlling set of a derivation Result.Derivs lists
	// (nil on the derivations below it).
	Ctrl     query.VarSet
	Entry    access.Entry  // RuleAtom: the access entry used
	OnPos    []int         // RuleAtom: positions (within the atom) of Entry.On
	Children []*Derivation // rule-dependent subderivations
	Chase    *ChasePlan    // RuleEmbedded

	// vars numbers the analyzed formula's variables, pos is F's pre-order
	// position in it, and ctrl and cost are the controlling set as a mask
	// over vars and CostOf(d), all set when the analysis builds d.
	vars *plan.Vars
	pos  int
	ctrl uint64
	cost plan.Cost
}

// CostOf returns the static bound of a derivation, composed by the
// analysis from plan's step rules as it builds d, mirroring the proof of
// Theorem 4.2. It equals the Bound of the derivation's 1:1 compiled
// operator plan (TestCompileBoundMatchesCostOf); an optimized plan may
// carry a tighter bound.
func CostOf(d *Derivation) plan.Cost { return d.cost }

// Explain renders the derivation tree, one rule per line.
func (d *Derivation) Explain() string {
	var b strings.Builder
	d.explain(&b, 0)
	return b.String()
}

func (d *Derivation) explain(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s[%s] %s controlled by %s", indent, d.Rule, d.F, d.vars.Format(d.ctrl))
	switch d.Rule {
	case RuleAtom:
		fmt.Fprintf(b, " via %s", d.Entry.String())
	case RuleEmbedded:
		fmt.Fprintf(b, " via chase (%d steps)", len(d.Chase.Steps))
	}
	b.WriteByte('\n')
	if d.Chase != nil {
		for _, s := range d.Chase.Steps {
			fmt.Fprintf(b, "%s  step: %s\n", indent, s.Format(d.vars))
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

// Analyze computes the family of minimal controlling sets for f, with a
// derivation for each. The analysis runs on bit masks: f's variables, free
// and bound, are numbered once in sorted-name order (plan.NumberFormula),
// so f may have at most 64 distinct variables; a wider formula fails with
// ErrInvalidQuery. The derivations share the numbering with every plan
// compiled from them.
func (a *Analyzer) Analyze(f query.Formula) (*Result, error) {
	st := &analysisState{an: a, max: a.MaxSets}
	if st.max <= 0 {
		st.max = DefaultMaxSets
	}
	if err := st.number(f); err != nil {
		return nil, err
	}
	ds, err := st.analyze(f, 0, false)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		d.Ctrl = st.vars.Set(d.ctrl)
	}
	return &Result{Formula: f, Derivs: ds, Truncated: st.truncated}, nil
}

// AnalyzeQuery analyzes the body of a named query.
func (a *Analyzer) AnalyzeQuery(q *query.Query) (*Result, error) { return a.Analyze(q.Body) }

type analysisState struct {
	an        *Analyzer
	max       int
	truncated bool
	vars      *plan.Vars // the formula's variables, in sorted-name order
}

// number numbers f's variables.
func (st *analysisState) number(f query.Formula) error {
	vars, err := plan.NumberFormula(f)
	if errors.Is(err, plan.ErrTooManyVars) {
		return fmt.Errorf("core: %w: formula has more than 64 distinct variables, the analysis handles at most 64", ErrInvalidQuery)
	}
	st.vars = vars
	return err
}

// family collects one formula node's candidate derivations as an antichain
// of controlling sets: for each minimal set, the first of the cheapest (by
// Reads) derivations offered for it.
type family []*Derivation

// admit reports where a candidate controlled by ctrl, reading reads, goes:
// -1 when a kept set is contained in ctrl (an equal one no more expensive),
// otherwise the slot the caller fills. Kept sets that ctrl strictly
// contains are dropped.
func (fam *family) admit(ctrl uint64, reads int64) int {
	for i, d := range *fam {
		if d.ctrl&^ctrl == 0 {
			if d.ctrl == ctrl && reads < d.cost.Reads {
				return i
			}
			return -1
		}
	}
	kept := (*fam)[:0]
	for _, d := range *fam {
		if ctrl&^d.ctrl != 0 {
			kept = append(kept, d)
		}
	}
	*fam = append(kept, nil)
	return len(kept)
}

// offer admits a derivation by rule of f, at pre-order position pos, from
// at most two children, and allocates it, together with its Children, only
// if it is kept.
func (st *analysisState) offer(fam *family, rule Rule, f query.Formula, pos int, ctrl uint64, cost plan.Cost, children ...*Derivation) {
	i := fam.admit(ctrl, cost.Reads)
	if i < 0 {
		return
	}
	n := new(struct {
		d    Derivation
		kids [2]*Derivation
	})
	n.d = Derivation{Rule: rule, F: f, vars: st.vars, pos: pos, ctrl: ctrl, cost: cost}
	if k := copy(n.kids[:], children); k > 0 {
		n.d.Children = n.kids[:k:k]
	}
	(*fam)[i] = &n.d
}

// compareSets orders controlling sets as a Family lists them: smaller
// sets first, then by Key. Bits follow sorted variable names, so of two
// sets of one size the one holding the lowest bit they differ in has the
// smaller Key (variable names are identifiers, whose characters all sort
// after Key's comma).
func compareSets(a, b uint64) int {
	if na, nb := bits.OnesCount64(a), bits.OnesCount64(b); na != nb {
		return na - nb
	}
	if a == b {
		return 0
	}
	if d := a ^ b; a&d&-d != 0 {
		return -1
	}
	return 1
}

// analyze returns derivations for the minimal controlling sets of f, the
// node at pre-order position pos. parentConj marks nodes analyzed as
// direct constituents of an enclosing conjunctive shape (And or Exists):
// the chase runs only at the maximal conjunctive node, which sees the
// whole flattened conjunction and is insensitive to the binary rule's
// association order.
func (st *analysisState) analyze(f query.Formula, pos int, parentConj bool) ([]*Derivation, error) {
	var fam family

	// conditions rule: any Boolean combination of equalities (no relation
	// atoms, no quantifiers) is controlled by all its variables.
	if isEqualityOnly(f) {
		st.offer(&fam, RuleConditions, f, pos, st.vars.Free(pos), plan.Probe(0))
	}

	var err error
	switch n := f.(type) {
	case *query.Atom:
		err = st.atomDerivs(&fam, n, pos)
	case *query.Eq, *query.Truth:
		// covered by the conditions rule above
	case *query.Not:
		// A bare negation has no rule (safe negation is recognized at the
		// enclosing conjunction); equality-only case handled above.
	case *query.And:
		err = st.conjDerivs(&fam, n, pos)
	case *query.Or:
		err = st.disjDerivs(&fam, n, pos)
	case *query.Implies:
		// No rule outside ∀ȳ(Q → Q′); equality-only handled above.
	case *query.Exists:
		err = st.existsDerivs(&fam, n, pos)
	case *query.Forall:
		err = st.forallDerivs(&fam, n, pos)
	default:
		return nil, fmt.Errorf("core: unknown formula node %T", f)
	}
	if err != nil {
		return nil, err
	}

	// Chase-based controllability for conjunctive shapes: plain entries
	// make it order-insensitive (unlike the binary conjunction rule);
	// embedded entries realize Proposition 4.5. Runs only at the maximal
	// conjunctive node.
	if !parentConj {
		if err := st.embeddedDerivs(&fam, f, pos); err != nil {
			return nil, err
		}
	}

	slices.SortFunc(fam, func(a, b *Derivation) int { return compareSets(a.ctrl, b.ctrl) })
	if len(fam) > st.max {
		fam = fam[:st.max]
		st.truncated = true
	}
	return fam, nil
}

// atomDerivs applies the atom rule: for each plain access entry
// (R, X, N, T), the atom is controlled by its variables at the X positions.
// Embedded entries do not control the full atom (their Y omits attributes)
// and are used only by the chase.
func (st *analysisState) atomDerivs(fam *family, a *query.Atom, pos int) error {
	rs, ok := st.an.Acc.Relational().Rel(a.Rel)
	if !ok {
		return fmt.Errorf("core: unknown relation %q in atom %s", a.Rel, a)
	}
	if len(a.Args) != rs.Arity() {
		return fmt.Errorf("core: atom %s has arity %d, relation %s has %d", a, len(a.Args), a.Rel, rs.Arity())
	}
	args := st.vars.Args(pos)
	for _, l := range st.an.Acc.Locate(a.Rel) {
		if l.IsEmbedded() {
			continue
		}
		ctrl, cost := plan.ArgMask(args, l.OnPos), plan.Fetch(plan.EntryBound(l.Entry), true)
		if i := fam.admit(ctrl, cost.Reads); i >= 0 {
			(*fam)[i] = &Derivation{Rule: RuleAtom, F: a, Entry: l.Entry, OnPos: l.OnPos, vars: st.vars, pos: pos, ctrl: ctrl, cost: cost}
		}
	}
	return nil
}

// conjDerivs applies the conjunction rule and, when one side is a safe
// negation of the other’s variables, the safe-negation rule.
func (st *analysisState) conjDerivs(fam *family, n *query.And, pos int) error {
	lPos, rPos := pos+1, st.vars.Right(pos)
	left, err := st.analyze(n.L, lPos, true)
	if err != nil {
		return err
	}
	right, err := st.analyze(n.R, rPos, true)
	if err != nil {
		return err
	}
	freeL, freeR := st.vars.Free(lPos), st.vars.Free(rPos)
	// Conjunction rule: Q1 ∧ Q2 is controlled by x̄1 ∪ (x̄2 − ȳ1) (evaluate
	// Q1 first) and by x̄2 ∪ (x̄1 − ȳ2) (evaluate Q2 first), where ȳi are
	// the other free variables of Qi.
	for _, dl := range left {
		for _, dr := range right {
			st.offer(fam, RuleConj, n, pos, dl.ctrl|dr.ctrl&^freeL, plan.Join(dl.cost, dr.cost), dl, dr)
			st.offer(fam, RuleConj, n, pos, dr.ctrl|dl.ctrl&^freeR, plan.Join(dr.cost, dl.cost), dr, dl)
		}
	}
	// Safe negation: Q ∧ ¬Q′ with free(Q′) ⊆ free(Q), Q′ fully controlled.
	// The second child derives the *inner* Q′ (the executor inverts it).
	if err := st.safeNegDerivs(fam, n, pos, n.R, rPos, left, freeL); err != nil {
		return err
	}
	return st.safeNegDerivs(fam, n, pos, n.L, lPos, right, freeR)
}

// safeNegDerivs applies the safe-negation rule to the conjunction n at pos
// when its conjunct neg, at negPos, is a negation whose variables the
// other conjunct, with derivations other and free variables freeOther,
// binds.
func (st *analysisState) safeNegDerivs(fam *family, n *query.And, pos int, neg query.Formula, negPos int, other []*Derivation, freeOther uint64) error {
	nf, ok := neg.(*query.Not)
	innerFree := st.vars.Free(negPos) // ¬Q′ and Q′ have the same free variables
	if !ok || innerFree&^freeOther != 0 {
		return nil
	}
	inner, err := st.analyze(nf.F, negPos+1, false)
	if err != nil {
		return err
	}
	if dn := cheapestWithin(inner, innerFree); dn != nil {
		for _, dp := range other {
			st.offer(fam, RuleSafeNeg, n, pos, dp.ctrl, plan.Anti(dp.cost, dn.cost), dp, dn)
		}
	}
	return nil
}

// cheapestWithin picks the cheapest derivation whose controlling set is
// contained in x (the first on ties), or nil.
func cheapestWithin(ds []*Derivation, x uint64) *Derivation {
	var best *Derivation
	for _, d := range ds {
		if d.ctrl&^x == 0 && (best == nil || d.cost.Reads < best.cost.Reads) {
			best = d
		}
	}
	return best
}

// disjDerivs applies the disjunction rule: both disjuncts must have the
// same free variables; the result is controlled by x̄1 ∪ x̄2.
func (st *analysisState) disjDerivs(fam *family, n *query.Or, pos int) error {
	lPos, rPos := pos+1, st.vars.Right(pos)
	if st.vars.Free(lPos) != st.vars.Free(rPos) {
		return nil
	}
	left, err := st.analyze(n.L, lPos, false)
	if err != nil {
		return err
	}
	right, err := st.analyze(n.R, rPos, false)
	if err != nil {
		return err
	}
	for _, dl := range left {
		for _, dr := range right {
			st.offer(fam, RuleDisj, n, pos, dl.ctrl|dr.ctrl, plan.Union(dl.cost, dr.cost), dl, dr)
		}
	}
	return nil
}

// existsDerivs applies the existential rule: controlling sets of the body
// that avoid the quantified variables carry over.
func (st *analysisState) existsDerivs(fam *family, n *query.Exists, pos int) error {
	body, err := st.analyze(n.Body, pos+1, true)
	if err != nil {
		return err
	}
	// The quantified variables that occur free in the body: a body
	// derivation's controlling set holds only those.
	z := st.vars.Free(pos+1) &^ st.vars.Free(pos)
	for _, d := range body {
		if d.ctrl&z == 0 {
			st.offer(fam, RuleExists, n, pos, d.ctrl, d.cost, d)
		}
	}
	return nil
}

// forallDerivs applies the universal rule to the shape ∀ȳ (Q → Q′): Q must
// be controlled by its free variables outside ȳ, Q′ must be fully
// controlled with free(Q′) ⊆ free(Q) ∪ ȳ; the result is controlled by
// free(Q) − ȳ (and by nothing smaller — see Proposition 4.3).
func (st *analysisState) forallDerivs(fam *family, n *query.Forall, pos int) error {
	imp, ok := n.Body.(*query.Implies)
	if !ok {
		return nil
	}
	// The quantified variables that occur free in the body: no other
	// variable of Q or Q′ could be among ȳ.
	impPos := pos + 1
	qPos, qpPos := impPos+1, st.vars.Right(impPos)
	y := st.vars.Free(impPos) &^ st.vars.Free(pos)
	freeQ, freeQp := st.vars.Free(qPos), st.vars.Free(qpPos)
	if freeQp&^(freeQ|y) != 0 {
		return nil
	}
	x := freeQ &^ y
	qDerivs, err := st.analyze(imp.L, qPos, false)
	if err != nil {
		return err
	}
	dq := cheapestWithin(qDerivs, x)
	if dq == nil {
		return nil
	}
	qpDerivs, err := st.analyze(imp.R, qpPos, false)
	if err != nil {
		return err
	}
	dqp := cheapestWithin(qpDerivs, freeQp)
	if dqp == nil {
		return nil
	}
	st.offer(fam, RuleForall, n, pos, x, plan.Forall(dq.cost, dqp.cost), dq, dqp)
	return nil
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
