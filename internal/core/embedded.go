package core

import (
	"fmt"
	"math/bits"
	"slices"
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

	binds uint64 // Binds as a mask, until the analysis exports the plan
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
func (st *analysisState) embeddedDerivs(fam *family, f query.Formula) error {
	var atoms []*query.Atom
	var eqs []*query.Eq
	var quantified uint64
	if !st.conjShape(f, &atoms, &eqs, &quantified) || len(atoms) == 0 {
		return nil
	}
	free := st.free[f]
	if bits.OnesCount64(free) > maxEmbeddedFreeVars {
		return nil
	}
	b, err := st.newChaseBuilder(atoms, eqs, free, quantified)
	if err != nil || b == nil {
		return err
	}
	// Search minimal x̄ ⊆ free such that the chase succeeds, smallest first
	// and in lexicographic order of the sorted free variables. A subset is
	// a mask, so one the chase rejects allocates nothing.
	var freeBits [maxEmbeddedFreeVars]uint64
	n := 0
	for m := free; m != 0; m &= m - 1 {
		freeBits[n] = m & -m
		n++
	}
	var found []uint64
	var idx [maxEmbeddedFreeVars]int
search:
	for size := 0; size <= n; size++ {
		for i := 0; i < size; i++ {
			idx[i] = i
		}
		for {
			var x uint64
			for _, i := range idx[:size] {
				x |= freeBits[i]
			}
			if !containsAny(x, found) {
				if cost, ok := b.chase(x); ok {
					if len(found) == st.max {
						st.truncated = true // a further minimal set is cut off
						break search
					}
					found = append(found, x)
					if i := fam.admit(x, cost.Reads); i >= 0 {
						(*fam)[i] = &Derivation{Rule: RuleEmbedded, F: f, Chase: b.plan(), ctrl: x, cost: cost}
					}
				}
			}
			if !nextSubset(idx[:size], n) {
				break
			}
		}
	}
	return nil
}

// containsAny reports whether x contains one of the sets.
func containsAny(x uint64, sets []uint64) bool {
	for _, m := range sets {
		if m&^x == 0 {
			return true
		}
	}
	return false
}

// nextSubset advances idx, a strictly increasing choice of indices below n,
// to the next one in lexicographic order; false when idx was the last.
func nextSubset(idx []int, n int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// conjShape decomposes ∃z̄ (conjunction of atoms and equalities), the
// fragment embedded analysis handles, appending its atoms and equalities
// and adding its quantified variables to quantified.
func (st *analysisState) conjShape(g query.Formula, atoms *[]*query.Atom, eqs *[]*query.Eq, quantified *uint64) bool {
	switch n := g.(type) {
	case *query.Atom:
		*atoms = append(*atoms, n)
		return true
	case *query.Eq:
		*eqs = append(*eqs, n)
		return true
	case *query.Truth:
		return n.Bool
	case *query.And:
		return st.conjShape(n.L, atoms, eqs, quantified) && st.conjShape(n.R, atoms, eqs, quantified)
	case *query.Exists:
		*quantified |= st.mask(n.Vars)
		return st.conjShape(n.Body, atoms, eqs, quantified)
	default:
		return false
	}
}

// chaseBuilder precomputes the candidate fetch steps for a conjunction,
// with their variables as masks, and chases specific controlling sets.
type chaseBuilder struct {
	atoms      []*query.Atom
	atomVars   []uint64 // each atom's variables
	probe      []bool   // each atom's fully bound tuples may be probed for membership
	fetches    []chaseFetch
	eqConsts   map[string]relation.Value
	eqVars     [][2]string
	eqBits     [][2]uint64 // eqVars as bits
	constBound uint64      // variables equated to constants
	free       uint64
	// absorbable variables are quantified and occur exactly once among
	// the atoms: a projection can leave them unbound.
	absorbable uint64

	// The last chase, for plan: its moves in order, the atoms it probes
	// for membership, and the fetches it used.
	moves  []chaseMove
	probes []int
}

// chaseFetch is a candidate fetch step with its variables as masks.
type chaseFetch struct {
	step  ChaseStep
	on    uint64 // variables at OnPos: the fetch is ready once they are bound
	proj  uint64 // variables at ProjPos: what the fetch binds
	loose uint64 // variables at positions outside OnPos ∪ ProjPos
	// pinned marks a constant outside OnPos ∪ ProjPos: the fetch cannot
	// verify its atom.
	pinned bool
	used   bool // by the current chase
}

// verifies reports whether the fetch's X ∪ Y covers every position of its
// atom that does not hold an absorbable unbound variable.
func (fs *chaseFetch) verifies(unbound uint64) bool { return !fs.pinned && fs.loose&^unbound == 0 }

// chaseMove is one step of a chase: a fetch of fetches[fetch] binding
// binds, or (fetch < 0) the propagation of equality eqVars[eq].
type chaseMove struct {
	fetch, eq int
	binds     uint64
	verifies  bool
}

func (st *analysisState) newChaseBuilder(atoms []*query.Atom, eqs []*query.Eq, free, quantified uint64) (*chaseBuilder, error) {
	b := &chaseBuilder{
		atoms:    atoms,
		free:     free,
		atomVars: make([]uint64, len(atoms)),
		probe:    make([]bool, len(atoms)),
	}
	var seen, twice uint64
	for ai, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				bit := st.vars.Bit(t.Name())
				twice |= seen & bit
				seen |= bit
				b.atomVars[ai] |= bit
			}
		}
	}
	b.absorbable = quantified & seen &^ twice
	bindConst := func(v string, val relation.Value) bool {
		if prev, ok := b.eqConsts[v]; ok && prev != val {
			return false // unsatisfiable; no embedded derivation
		}
		if b.eqConsts == nil {
			b.eqConsts = make(map[string]relation.Value)
		}
		b.eqConsts[v] = val
		b.constBound |= st.vars.Bit(v)
		return true
	}
	for _, e := range eqs {
		switch {
		case e.L.IsVar() && e.R.IsVar():
			b.eqVars = append(b.eqVars, [2]string{e.L.Name(), e.R.Name()})
			b.eqBits = append(b.eqBits, [2]uint64{st.vars.Bit(e.L.Name()), st.vars.Bit(e.R.Name())})
		case e.L.IsVar():
			if !bindConst(e.L.Name(), e.R.Value()) {
				return nil, nil
			}
		case e.R.IsVar():
			if !bindConst(e.R.Name(), e.L.Value()) {
				return nil, nil
			}
		default:
			if e.L.Value() != e.R.Value() {
				return nil, nil
			}
		}
	}
	acc := st.an.Acc
	for ai, a := range atoms {
		rs, ok := acc.Relational().Rel(a.Rel)
		if !ok {
			return nil, fmt.Errorf("core: unknown relation %q in atom %s", a.Rel, a)
		}
		if len(a.Args) != rs.Arity() {
			return nil, fmt.Errorf("core: atom %s arity mismatch with %s", a, rs)
		}
		// A membership probe needs the implicit membership access method or
		// an explicit whole-key entry.
		b.probe[ai] = acc.ImplicitMembership
		for _, l := range acc.Locate(a.Rel) {
			if len(l.On) == rs.Arity() {
				// pure membership entry; handled at verification
				b.probe[ai] = b.probe[ai] || !l.IsEmbedded()
				continue
			}
			fs := chaseFetch{
				step: ChaseStep{Atom: a, AtomIdx: ai, Entry: l.Entry, OnPos: l.OnPos, ProjPos: l.ProjPos},
				on:   st.vars.At(a, l.OnPos),
				proj: st.vars.At(a, l.ProjPos),
			}
			for p, t := range a.Args {
				if slices.Contains(l.OnPos, p) || slices.Contains(l.ProjPos, p) {
					continue
				}
				if t.IsVar() {
					fs.loose |= st.vars.Bit(t.Name())
				} else {
					fs.pinned = true
				}
			}
			b.fetches = append(b.fetches, fs)
		}
	}
	b.moves = make([]chaseMove, 0, len(b.fetches)+len(b.eqBits)+len(atoms))
	b.probes = make([]int, 0, len(atoms))
	return b, nil
}

// chase runs the chase from the controlling set x and reports the cost of
// the plan it finds, or false when the chase does not cover the formula.
// The plan itself stays in the builder's scratch until plan is called.
func (b *chaseBuilder) chase(x uint64) (Cost, bool) {
	bound := x | b.constBound
	b.moves, b.probes = b.moves[:0], b.probes[:0]
	for i := range b.fetches {
		b.fetches[i].used = false
	}
	for progress := true; progress; {
		progress = false
		// Equality propagation first: free.
		for i, ev := range b.eqBits {
			if (bound&ev[0] == 0) != (bound&ev[1] == 0) {
				b.moves = append(b.moves, chaseMove{fetch: -1, eq: i})
				bound |= ev[0] | ev[1]
				progress = true
			}
		}
		// Pick the available fetch with the smallest N that binds new vars.
		best := -1
		for i := range b.fetches {
			fs := &b.fetches[i]
			if fs.used || fs.on&^bound != 0 || fs.proj&^bound == 0 {
				continue
			}
			if best < 0 || fs.step.Entry.N < b.fetches[best].step.Entry.N {
				best = i
			}
		}
		if best >= 0 {
			fs := &b.fetches[best]
			b.moves = append(b.moves, chaseMove{fetch: best, binds: fs.proj &^ bound})
			bound |= fs.proj
			fs.used = true
			progress = true
		}
	}
	if b.free&^bound != 0 {
		return Cost{}, false
	}
	// Variables constrained by equalities cannot be absorbed by
	// projections; they must be bound so the equality can be checked.
	for _, ev := range b.eqBits {
		if bound&ev[0] == 0 || bound&ev[1] == 0 {
			return Cost{}, false
		}
	}
	// Verification: atoms with all variables bound get membership probes;
	// others need a projection-verifying fetch step, and their unbound
	// variables must be absorbable.
	for ai, vars := range b.atomVars {
		unbound := vars &^ bound
		if unbound == 0 && b.probe[ai] {
			b.probes = append(b.probes, ai)
			continue
		}
		if unbound&^b.absorbable != 0 || !b.markVerifier(ai, bound, unbound) {
			return Cost{}, false
		}
	}
	c := Cost{Candidates: 1}
	for _, m := range b.moves {
		if m.fetch >= 0 {
			c = chaseFetchCost(c, b.fetches[m.fetch].step.Entry.N, m.binds != 0)
		}
	}
	return chaseProbeCost(c, len(b.probes)), true
}

// markVerifier finds (or appends) a fetch on atom ai that verifies it and
// marks it as the atom's verifier.
func (b *chaseBuilder) markVerifier(ai int, bound, unbound uint64) bool {
	// Prefer a step already in the plan.
	for i := range b.moves {
		m := &b.moves[i]
		if m.fetch >= 0 && b.fetches[m.fetch].step.AtomIdx == ai && b.fetches[m.fetch].verifies(unbound) {
			m.verifies = true
			return true
		}
	}
	// Otherwise append a verify-only fetch (binds nothing new).
	for i := range b.fetches {
		fs := &b.fetches[i]
		if fs.step.AtomIdx == ai && fs.on&^bound == 0 && fs.verifies(unbound) {
			b.moves = append(b.moves, chaseMove{fetch: i, verifies: true})
			return true
		}
	}
	return false
}

// plan builds the ChasePlan of the last successful chase.
func (b *chaseBuilder) plan() *ChasePlan {
	p := &ChasePlan{Atoms: b.atoms, EqConsts: b.eqConsts, EqVars: b.eqVars}
	if len(b.moves) > 0 {
		p.Steps = make([]ChaseStep, len(b.moves))
	}
	for i, m := range b.moves {
		if m.fetch < 0 {
			p.Steps[i] = ChaseStep{EqL: b.eqVars[m.eq][0], EqR: b.eqVars[m.eq][1]}
			continue
		}
		s := b.fetches[m.fetch].step
		s.binds, s.Verifies = m.binds, m.verifies
		p.Steps[i] = s
	}
	if len(b.probes) > 0 {
		p.MembershipAtoms = slices.Clone(b.probes)
	}
	return p
}
