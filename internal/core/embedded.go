package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/access"
	"repro/internal/plan"
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
	// EqConsts binds variables equated to constants before execution.
	EqConsts map[string]relation.Value
	// EqVars are variable equalities checked on every candidate after the
	// steps run (propagation steps bind, these verify).
	EqVars [][2]string

	// free is the variables whose values the plan outputs, and constBound
	// those EqConsts binds, as masks over the analysis numbering.
	free, constBound uint64
}

// ChaseStep is one bounded action of a chase plan: the operator's step,
// with its route left unresolved until the plan is compiled.
type ChaseStep = plan.ChaseStep

// maxEmbeddedFreeVars bounds the subset search for minimal controlling
// sets; embedded analysis is skipped for wider formulas.
const maxEmbeddedFreeVars = 12

// embeddedDerivs attempts chase-based controllability on conjunctive
// shapes: plain entries alone already make the chase derive controlling
// sets insensitively to conjunct order, and embedded entries realize
// Proposition 4.5.
func (st *analysisState) embeddedDerivs(fam *family, f query.Formula, pos int) error {
	var c conjunction
	if !st.conjShape(f, pos, &c) || len(c.atoms) == 0 {
		return nil
	}
	free := st.vars.Free(pos)
	if bits.OnesCount64(free) > maxEmbeddedFreeVars {
		return nil
	}
	b, err := st.newChaseBuilder(&c, free, c.quantified)
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
						(*fam)[i] = &Derivation{Rule: RuleEmbedded, F: f, Chase: b.plan(), vars: st.vars, pos: pos, ctrl: x, cost: cost}
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

// conjunction is a formula of the shape ∃z̄ (conjunction of atoms and
// equalities), the fragment embedded analysis handles, taken apart.
type conjunction struct {
	atoms      []*query.Atom
	atomArgs   [][]int8 // each atom's argument ids
	eqs        []*query.Eq
	eqArgs     [][]int8 // each equality's argument ids
	quantified uint64   // the variables z̄ quantifies that occur in the body

	// Inline backing for conjunctions of up to eight atoms.
	atomBuf [8]*query.Atom
	argsBuf [8][]int8
}

// conjShape decomposes g, the node at pre-order position pos, into c when
// it has the shape of a conjunction.
func (st *analysisState) conjShape(g query.Formula, pos int, c *conjunction) bool {
	switch n := g.(type) {
	case *query.Atom:
		if c.atoms == nil {
			c.atoms, c.atomArgs = c.atomBuf[:0], c.argsBuf[:0]
		}
		c.atoms = append(c.atoms, n)
		c.atomArgs = append(c.atomArgs, st.vars.Args(pos))
		return true
	case *query.Eq:
		c.eqs = append(c.eqs, n)
		c.eqArgs = append(c.eqArgs, st.vars.Args(pos))
		return true
	case *query.Truth:
		return n.Bool
	case *query.And:
		return st.conjShape(n.L, pos+1, c) && st.conjShape(n.R, st.vars.Right(pos), c)
	case *query.Exists:
		c.quantified |= st.vars.Free(pos+1) &^ st.vars.Free(pos)
		return st.conjShape(n.Body, pos+1, c)
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

	// Inline backing for conjunctions of up to eight atoms.
	atomVarsBuf [8]uint64
	probeBuf    [8]bool
	probesBuf   [8]int
}

// backed returns buf[:n], or a new slice of length n when buf is too
// short.
func backed[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// chaseFetch is a candidate fetch of atoms[atom] through the entry at
// loc, with its variables as masks.
type chaseFetch struct {
	loc   *access.Located
	atom  int
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

func (st *analysisState) newChaseBuilder(c *conjunction, free, quantified uint64) (*chaseBuilder, error) {
	atoms := c.atoms
	b := &chaseBuilder{atoms: atoms, free: free}
	b.atomVars, b.probe = backed(b.atomVarsBuf[:], len(atoms)), backed(b.probeBuf[:], len(atoms))
	var seen, twice uint64
	for ai, args := range c.atomArgs {
		for _, id := range args {
			if id >= 0 {
				bit := uint64(1) << id
				twice |= seen & bit
				seen |= bit
				b.atomVars[ai] |= bit
			}
		}
	}
	b.absorbable = quantified & seen &^ twice
	bindConst := func(v string, id int8, val relation.Value) bool {
		if prev, ok := b.eqConsts[v]; ok && prev != val {
			return false // unsatisfiable; no embedded derivation
		}
		if b.eqConsts == nil {
			b.eqConsts = make(map[string]relation.Value)
		}
		b.eqConsts[v] = val
		b.constBound |= 1 << id
		return true
	}
	for i, e := range c.eqs {
		l, r := c.eqArgs[i][0], c.eqArgs[i][1]
		switch {
		case e.L.IsVar() && e.R.IsVar():
			b.eqVars = append(b.eqVars, [2]string{e.L.Name(), e.R.Name()})
			b.eqBits = append(b.eqBits, [2]uint64{1 << l, 1 << r})
		case e.L.IsVar():
			if !bindConst(e.L.Name(), l, e.R.Value()) {
				return nil, nil
			}
		case e.R.IsVar():
			if !bindConst(e.R.Name(), r, e.L.Value()) {
				return nil, nil
			}
		default:
			if e.L.Value() != e.R.Value() {
				return nil, nil
			}
		}
	}
	acc := st.an.Acc
	n := 0
	for _, a := range atoms {
		n += len(acc.Locate(a.Rel))
	}
	b.fetches = make([]chaseFetch, 0, n)
	for ai, a := range atoms {
		locs := acc.Locate(a.Rel)
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
		for li := range locs {
			l := &locs[li]
			if len(l.On) == rs.Arity() {
				// pure membership entry; handled at verification
				b.probe[ai] = b.probe[ai] || !l.IsEmbedded()
				continue
			}
			args := c.atomArgs[ai]
			fs := chaseFetch{loc: l, atom: ai, on: plan.ArgMask(args, l.OnPos), proj: plan.ArgMask(args, l.ProjPos)}
			for p, id := range args {
				if slices.Contains(l.OnPos, p) || slices.Contains(l.ProjPos, p) {
					continue
				}
				if id >= 0 {
					fs.loose |= 1 << id
				} else {
					fs.pinned = true
				}
			}
			b.fetches = append(b.fetches, fs)
		}
	}
	b.moves = make([]chaseMove, 0, len(b.fetches)+len(b.eqBits)+len(atoms))
	b.probes = backed(b.probesBuf[:], len(atoms))[:0]
	return b, nil
}

// chase runs the chase from the controlling set x and reports the cost of
// the plan it finds, or false when the chase does not cover the formula.
// The plan itself stays in the builder's scratch until plan is called.
func (b *chaseBuilder) chase(x uint64) (plan.Cost, bool) {
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
			if best < 0 || plan.EntryBound(fs.loc.Entry) < plan.EntryBound(b.fetches[best].loc.Entry) {
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
		return plan.Cost{}, false
	}
	// Variables constrained by equalities cannot be absorbed by
	// projections; they must be bound so the equality can be checked.
	for _, ev := range b.eqBits {
		if bound&ev[0] == 0 || bound&ev[1] == 0 {
			return plan.Cost{}, false
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
			return plan.Cost{}, false
		}
	}
	c := plan.Cost{Candidates: 1}
	for _, m := range b.moves {
		if m.fetch >= 0 {
			c = plan.Join(c, plan.Fetch(plan.EntryBound(b.fetches[m.fetch].loc.Entry), m.binds != 0))
		}
	}
	return plan.Join(c, plan.Probe(len(b.probes))), true
}

// markVerifier finds (or appends) a fetch on atom ai that verifies it and
// marks it as the atom's verifier.
func (b *chaseBuilder) markVerifier(ai int, bound, unbound uint64) bool {
	// Prefer a step already in the plan.
	for i := range b.moves {
		m := &b.moves[i]
		if m.fetch >= 0 && b.fetches[m.fetch].atom == ai && b.fetches[m.fetch].verifies(unbound) {
			m.verifies = true
			return true
		}
	}
	// Otherwise append a verify-only fetch (binds nothing new).
	for i := range b.fetches {
		fs := &b.fetches[i]
		if fs.atom == ai && fs.on&^bound == 0 && fs.verifies(unbound) {
			b.moves = append(b.moves, chaseMove{fetch: i, verifies: true})
			return true
		}
	}
	return false
}

// plan builds the ChasePlan of the last successful chase.
func (b *chaseBuilder) plan() *ChasePlan {
	p := &ChasePlan{Atoms: b.atoms, EqConsts: b.eqConsts, EqVars: b.eqVars, free: b.free, constBound: b.constBound}
	if len(b.moves) > 0 {
		p.Steps = make([]ChaseStep, len(b.moves))
	}
	for i, m := range b.moves {
		if m.fetch < 0 {
			ev := b.eqBits[m.eq]
			p.Steps[i] = ChaseStep{EqL: b.eqVars[m.eq][0], EqR: b.eqVars[m.eq][1], Proj: ev[0] | ev[1]}
			continue
		}
		fs := &b.fetches[m.fetch]
		p.Steps[i] = ChaseStep{
			Atom: b.atoms[fs.atom], AtomIdx: fs.atom, Entry: fs.loc.Entry, OnPos: fs.loc.OnPos, ProjPos: fs.loc.ProjPos,
			Binds: m.binds, Verifies: m.verifies, On: fs.on, Proj: fs.proj,
		}
	}
	if len(b.probes) > 0 {
		p.MembershipAtoms = slices.Clone(b.probes)
	}
	return p
}
