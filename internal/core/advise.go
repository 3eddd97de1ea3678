package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// The paper's conclusion asks how to design access schemas for a workload
// ("the lower bounds ... suggest what indices to build on our datasets").
// Advise answers the single-query version: given a query Q and a desired
// controlling set x̄, propose the plain access entries (indices with
// cardinality bounds) that would make Q x̄-controlled.

// Advice is the result of access-schema design for one query.
type Advice struct {
	// Entries are the proposed additions to the access schema. Their N
	// values are the tightest bounds observed in the provided data, or
	// PlaceholderN when no data was given (the DBA must supply the real
	// bound — it is a semantic constraint, not a physical one).
	Entries []access.Entry
	// Derivation witnesses x̄-controllability under the extended schema.
	Derivation *Derivation
}

// PlaceholderN marks an advised cardinality bound that must be confirmed
// by the schema owner.
const PlaceholderN = 1000

// Advise proposes access entries making q x̄-controlled under acc. The
// query must have a conjunctive body (the fragment with an effective
// design procedure); data, when non-nil, is used to compute tight N values
// and to validate that it conforms to the proposed entries.
func Advise(acc *access.Schema, q *query.Query, x query.VarSet, data *relation.Database) (*Advice, error) {
	working := acc.Clone()
	st := &analysisState{an: NewAnalyzer(working)}
	if err := st.number(q.Body); err != nil {
		return nil, err
	}
	var c conjunction
	if !st.conjShape(q.Body, 0, &c) || len(c.atoms) == 0 {
		return nil, fmt.Errorf("core: %w: Advise handles conjunctive queries; %s is not one", ErrInvalidQuery, q.Name)
	}
	if !x.SubsetOf(q.Body.FreeVars()) {
		return nil, fmt.Errorf("core: %w: %s is not a subset of the free variables of %s", ErrInvalidQuery, x, q.Name)
	}
	atoms, free, xBits := c.atoms, st.vars.Free(0), st.vars.Mask(x)
	var proposed []access.Entry
	rel := acc.Relational()

	for round := 0; round <= len(atoms)+1; round++ {
		an := NewAnalyzer(working)
		res, err := an.Analyze(q.Body)
		if err != nil {
			return nil, err
		}
		if d := res.Controls(x); d != nil {
			return &Advice{Entries: proposed, Derivation: d}, nil
		}
		// Re-run the chase's closure with the current entries to find what
		// is reachable from x̄, then propose an entry for an atom with
		// unbound variables, keyed on its currently bound positions.
		builder, err := st.newChaseBuilder(&c, free, free&^xBits)
		if err != nil {
			return nil, fmt.Errorf("core: cannot analyze conjunction for advice: %w", err)
		}
		if builder == nil {
			return nil, fmt.Errorf("core: %w: conjunction yields no chase for advice", ErrInvalidQuery)
		}
		bound := builder.closure(xBits)
		isBound := func(id int8) bool { return id < 0 || bound&(1<<id) != 0 }
		best, bestScore := -1, -1
		for ai, args := range c.atomArgs {
			if builder.atomVars[ai]&^bound == 0 {
				continue
			}
			// Prefer atoms with many bound positions (more selective keys).
			score := 0
			for _, id := range args {
				if isBound(id) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = ai, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: %w: no atom to index, yet %s not %s-controlled (non-conjunctive obstruction)", ErrNotControllable, q.Name, x)
		}
		a := atoms[best]
		rs, ok := rel.Rel(a.Rel)
		if !ok {
			return nil, fmt.Errorf("core: %w: unknown relation %q", ErrInvalidQuery, a.Rel)
		}
		var key []string
		for p, id := range c.atomArgs[best] {
			if isBound(id) {
				key = append(key, rs.Attrs[p])
			}
		}
		entry := access.Plain(a.Rel, key, PlaceholderN, 1)
		if data != nil {
			n, err := access.TightestN(data, entry)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				n = 1 // empty groups: any positive bound holds
			}
			entry.N = n
		}
		if err := working.Add(entry); err != nil {
			return nil, err
		}
		proposed = append(proposed, entry)
	}
	return nil, fmt.Errorf("core: %w: advice did not converge for %s (needs non-index constraints, e.g. embedded entries)", ErrNotControllable, q.Name)
}

// closure runs the chase's binding closure from x without building a
// plan: every ready fetch binds, whatever its N.
func (b *chaseBuilder) closure(x uint64) uint64 {
	bound := x | b.constBound
	for i := range b.fetches {
		b.fetches[i].used = false
	}
	for progress := true; progress; {
		progress = false
		for _, ev := range b.eqBits {
			if (bound&ev[0] == 0) != (bound&ev[1] == 0) {
				bound |= ev[0] | ev[1]
				progress = true
			}
		}
		for i := range b.fetches {
			fs := &b.fetches[i]
			if fs.used || fs.on&^bound != 0 || fs.proj&^bound == 0 {
				continue
			}
			bound |= fs.proj
			fs.used = true
			progress = true
		}
	}
	return bound
}
