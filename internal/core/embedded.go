package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// ChasePlan is the executable form of an embedded-controllability
// derivation (Proposition 4.5). For a conjunctive formula
// ∃z̄ (A1 ∧ ... ∧ Ak ∧ eqs), the plan enumerates candidate bindings for
// the variables by a sequence of bounded fetches licensed by (possibly
// embedded) access entries, then verifies every atom.
//
// An atom is verified either by a membership probe (all its variables
// bound) or by one of its own fetch steps when the positions outside the
// step's X ∪ Y hold only existentially quantified variables that occur
// nowhere else — those positions are existentially absorbed by the
// projection π_Y(σ_X=ā(R)), which contains exactly the combinations for
// which a completion exists.
type ChasePlan struct {
	// Atoms of the (equality-free-by-substitution) conjunction.
	Atoms []*query.Atom
	// Steps in execution order.
	Steps []ChaseStep
	// MembershipAtoms indexes Atoms that require a final membership probe.
	MembershipAtoms []int
	// Free is the set of variables whose values the plan outputs.
	Free query.VarSet
	// EqConsts binds variables equated to constants before execution.
	EqConsts map[string]relation.Value
	// EqVars are variable equalities checked on every candidate after the
	// steps run (propagation steps bind, these verify).
	EqVars [][2]string
}

// ChaseStep is one bounded action of a chase plan.
type ChaseStep struct {
	// Fetch step (Atom != nil): retrieve via Entry with values for the
	// variables/constants at OnPos; unify fetched tuples with ProjPos.
	Atom    *query.Atom
	AtomIdx int
	Entry   access.Entry
	OnPos   []int // positions (within the atom) of Entry.On
	ProjPos []int // positions of Entry's effective Y
	Binds   []string
	// Verifies marks a fetch that fully verifies its atom (no membership
	// probe needed).
	Verifies bool
	// Equality-propagation step (Atom == nil): bind/check L = R.
	EqL, EqR string
}

// String renders the step for Explain output.
func (s ChaseStep) String() string {
	if s.Atom == nil {
		return fmt.Sprintf("propagate %s = %s", s.EqL, s.EqR)
	}
	verb := "fetch"
	if s.Verifies {
		verb = "fetch+verify"
	}
	return fmt.Sprintf("%s %s via %s (binds %s)", verb, s.Atom, s.Entry.String(), strings.Join(s.Binds, ","))
}

// maxEmbeddedFreeVars bounds the subset search for minimal controlling
// sets; embedded analysis is skipped for wider formulas.
const maxEmbeddedFreeVars = 12

// embeddedDerivs attempts chase-based controllability on conjunctive
// shapes: plain entries alone already make the chase derive controlling
// sets insensitively to conjunct order, and embedded entries realize
// Proposition 4.5.
func (st *analysisState) embeddedDerivs(f query.Formula) ([]*Derivation, error) {
	rels := query.Relations(f)
	if len(rels) == 0 {
		return nil, nil
	}
	atoms, eqs, quantified, ok := conjShape(f)
	if !ok {
		return nil, nil
	}
	free := f.FreeVars()
	if free.Len() > maxEmbeddedFreeVars {
		return nil, nil
	}
	builder, err := newChaseBuilder(st.an.Acc, atoms, eqs, free, quantified)
	if err != nil {
		return nil, err
	}
	if builder == nil {
		return nil, nil
	}
	// Search minimal x̄ ⊆ free such that the chase succeeds, smallest first.
	freeVars := free.Sorted()
	var found []query.VarSet
	var derivs []*Derivation
	for size := 0; size <= len(freeVars); size++ {
		subsets(freeVars, size, func(sub []string) bool {
			x := query.NewVarSet(sub...)
			for _, m := range found {
				if m.SubsetOf(x) {
					return true // not minimal
				}
			}
			plan, ok := builder.build(x)
			if !ok {
				return true
			}
			found = append(found, x)
			derivs = append(derivs, &Derivation{Rule: RuleEmbedded, F: f, Ctrl: x, Chase: plan})
			return len(derivs) < st.max
		})
		if len(derivs) >= st.max {
			st.truncated = true
			break
		}
	}
	return derivs, nil
}

// subsets enumerates size-k subsets of items in lexicographic order,
// stopping when yield returns false.
func subsets(items []string, k int, yield func([]string) bool) {
	idx := make([]int, k)
	var rec func(start, d int) bool
	rec = func(start, d int) bool {
		if d == k {
			sub := make([]string, k)
			for i, j := range idx {
				sub[i] = items[j]
			}
			return yield(sub)
		}
		for i := start; i < len(items); i++ {
			idx[d] = i
			if !rec(i+1, d+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// conjShape decomposes ∃z̄ (conjunction of atoms and equalities), the
// fragment embedded analysis handles. It returns the atoms, equalities and
// quantified variables.
func conjShape(f query.Formula) (atoms []*query.Atom, eqs []*query.Eq, quantified query.VarSet, ok bool) {
	quantified = make(query.VarSet)
	body := f
	for {
		e, isEx := body.(*query.Exists)
		if !isEx {
			break
		}
		for _, v := range e.Vars {
			quantified[v] = true
		}
		body = e.Body
	}
	var walk func(query.Formula) bool
	walk = func(g query.Formula) bool {
		switch n := g.(type) {
		case *query.Atom:
			atoms = append(atoms, n)
			return true
		case *query.Eq:
			eqs = append(eqs, n)
			return true
		case *query.Truth:
			return n.Bool
		case *query.And:
			return walk(n.L) && walk(n.R)
		case *query.Exists:
			for _, v := range n.Vars {
				quantified[v] = true
			}
			return walk(n.Body)
		default:
			return false
		}
	}
	if !walk(body) || len(atoms) == 0 {
		return nil, nil, nil, false
	}
	return atoms, eqs, quantified, true
}

// chaseBuilder precomputes the candidate fetch steps for a conjunction and
// builds plans for specific controlling sets.
type chaseBuilder struct {
	acc        *access.Schema
	atoms      []*query.Atom
	allVars    query.VarSet
	free       query.VarSet
	quantified query.VarSet
	eqConsts   map[string]relation.Value
	eqVars     [][2]string
	// candidate fetch steps (unordered); build selects and orders them.
	fetches []ChaseStep
	// occurrence count of each variable across atoms (for projection
	// verification: absorbable variables occur exactly once).
	occurs map[string]int
}

func newChaseBuilder(acc *access.Schema, atoms []*query.Atom, eqs []*query.Eq, free, quantified query.VarSet) (*chaseBuilder, error) {
	b := &chaseBuilder{
		acc:        acc,
		atoms:      atoms,
		free:       free,
		quantified: quantified,
		allVars:    make(query.VarSet),
		eqConsts:   make(map[string]relation.Value),
		occurs:     make(map[string]int),
	}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				b.allVars[t.Name()] = true
				b.occurs[t.Name()]++
			}
		}
	}
	for _, e := range eqs {
		switch {
		case e.L.IsVar() && e.R.IsVar():
			b.eqVars = append(b.eqVars, [2]string{e.L.Name(), e.R.Name()})
			b.allVars[e.L.Name()] = true
			b.allVars[e.R.Name()] = true
		case e.L.IsVar():
			if prev, ok := b.eqConsts[e.L.Name()]; ok && prev != e.R.Value() {
				return nil, nil // unsatisfiable; no embedded derivation
			}
			b.eqConsts[e.L.Name()] = e.R.Value()
			b.allVars[e.L.Name()] = true
		case e.R.IsVar():
			if prev, ok := b.eqConsts[e.R.Name()]; ok && prev != e.L.Value() {
				return nil, nil
			}
			b.eqConsts[e.R.Name()] = e.L.Value()
			b.allVars[e.R.Name()] = true
		default:
			if e.L.Value() != e.R.Value() {
				return nil, nil
			}
		}
	}
	rel := acc.Relational()
	for ai, a := range atoms {
		rs, ok := rel.Rel(a.Rel)
		if !ok {
			return nil, fmt.Errorf("core: unknown relation %q in atom %s", a.Rel, a)
		}
		if len(a.Args) != rs.Arity() {
			return nil, fmt.Errorf("core: atom %s arity mismatch with %s", a, rs)
		}
		for _, e := range acc.ForRel(a.Rel) {
			onPos, err := rs.Positions(e.On)
			if err != nil {
				return nil, err
			}
			projPos, err := rs.Positions(e.ProjFor(rs))
			if err != nil {
				return nil, err
			}
			if len(onPos) == rs.Arity() {
				continue // pure membership entry; handled at verification
			}
			b.fetches = append(b.fetches, ChaseStep{
				Atom: a, AtomIdx: ai, Entry: e, OnPos: onPos, ProjPos: projPos,
			})
		}
	}
	return b, nil
}

// build attempts a chase from the controlling set x; it returns the plan
// and whether the chase covers the formula.
func (b *chaseBuilder) build(x query.VarSet) (*ChasePlan, bool) {
	if !x.SubsetOf(b.free) {
		return nil, false
	}
	bound := x.Clone()
	for v := range b.eqConsts {
		bound = bound.Add(v)
	}
	var steps []ChaseStep
	used := make([]bool, len(b.fetches))
	for {
		progress := false
		// Equality propagation first: free.
		for _, ev := range b.eqVars {
			l, r := ev[0], ev[1]
			if bound[l] != bound[r] {
				steps = append(steps, ChaseStep{EqL: l, EqR: r})
				bound = bound.Add(l).Add(r)
				progress = true
			}
		}
		// Pick the available fetch with the smallest N that binds new vars.
		best := -1
		for i, fs := range b.fetches {
			if used[i] || !allArgsBoundOrConst(fs.Atom, fs.OnPos, bound) {
				continue
			}
			binds := newVarsAt(fs.Atom, fs.ProjPos, bound)
			if len(binds) == 0 {
				continue
			}
			if best < 0 || b.fetches[i].Entry.N < b.fetches[best].Entry.N {
				best = i
			}
		}
		if best >= 0 {
			fs := b.fetches[best]
			fs.Binds = newVarsAt(fs.Atom, fs.ProjPos, bound)
			for _, v := range fs.Binds {
				bound = bound.Add(v)
			}
			steps = append(steps, fs)
			used[best] = true
			progress = true
		}
		if !progress {
			break
		}
	}
	if !b.free.SubsetOf(bound) {
		return nil, false
	}
	// Variables constrained by equalities cannot be absorbed by
	// projections; they must be bound so the equality can be checked.
	for _, ev := range b.eqVars {
		if !bound[ev[0]] || !bound[ev[1]] {
			return nil, false
		}
	}
	// Verification: atoms with all variables bound get membership probes;
	// others need a projection-verifying fetch step.
	plan := &ChasePlan{
		Atoms:    b.atoms,
		Steps:    steps,
		Free:     b.free.Clone(),
		EqConsts: b.eqConsts,
		EqVars:   b.eqVars,
	}
	for ai, a := range b.atoms {
		unbound := a.FreeVars().Minus(bound)
		if unbound.IsEmpty() {
			// A membership probe needs the implicit membership access
			// method or an explicit whole-key entry.
			if !b.membershipAllowed(a.Rel) {
				if !b.markVerifier(plan, ai, bound, unbound) {
					return nil, false
				}
				continue
			}
			plan.MembershipAtoms = append(plan.MembershipAtoms, ai)
			continue
		}
		// Unbound variables must be absorbable: quantified and occurring
		// exactly once.
		for v := range unbound {
			if !b.quantified[v] || b.occurs[v] != 1 {
				return nil, false
			}
		}
		if !b.markVerifier(plan, ai, bound, unbound) {
			return nil, false
		}
	}
	return plan, true
}

// membershipAllowed reports whether fully-bound tuples of rel can be
// probed for membership.
func (b *chaseBuilder) membershipAllowed(rel string) bool {
	if b.acc.ImplicitMembership {
		return true
	}
	rs, ok := b.acc.Relational().Rel(rel)
	if !ok {
		return false
	}
	for _, e := range b.acc.ForRel(rel) { // explicit only: implicit membership is off
		if !e.IsEmbedded() && len(e.On) == rs.Arity() {
			return true
		}
	}
	return false
}

// markVerifier finds (or appends) a fetch step on atom ai whose X ∪ Y
// covers every position not holding an absorbable unbound variable, and
// marks it as the atom's verifier.
func (b *chaseBuilder) markVerifier(plan *ChasePlan, ai int, bound, unbound query.VarSet) bool {
	qualifies := func(fs ChaseStep) bool {
		covered := make(map[int]bool, len(fs.OnPos)+len(fs.ProjPos))
		for _, p := range fs.OnPos {
			covered[p] = true
		}
		for _, p := range fs.ProjPos {
			covered[p] = true
		}
		for p, t := range fs.Atom.Args {
			if covered[p] {
				continue
			}
			if !t.IsVar() || !unbound[t.Name()] {
				return false
			}
		}
		return true
	}
	// Prefer a step already in the plan.
	for i := range plan.Steps {
		fs := &plan.Steps[i]
		if fs.Atom != nil && fs.AtomIdx == ai && qualifies(*fs) {
			fs.Verifies = true
			return true
		}
	}
	// Otherwise append a verify-only fetch (binds nothing new).
	for _, fs := range b.fetches {
		if fs.AtomIdx != ai || !allArgsBoundOrConst(fs.Atom, fs.OnPos, bound) || !qualifies(fs) {
			continue
		}
		step := fs
		step.Verifies = true
		step.Binds = nil
		plan.Steps = append(plan.Steps, step)
		return true
	}
	return false
}

// newVarsAt lists the variables at positions not yet bound, deduplicated,
// in position order.
func newVarsAt(a *query.Atom, positions []int, bound query.VarSet) []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range positions {
		t := a.Args[p]
		if t.IsVar() && !bound[t.Name()] && !seen[t.Name()] {
			seen[t.Name()] = true
			out = append(out, t.Name())
		}
	}
	sort.Strings(out)
	return out
}
