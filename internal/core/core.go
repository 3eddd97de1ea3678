// Package core implements the paper's primary contribution (Section 4 of
// Fan, Geerts, Libkin, PODS 2014): the syntactic class of x̄-controlled FO
// queries under an access schema A, and the bounded-evaluation engine that
// makes Theorem 4.2 effective — if Q is x̄-controlled under A then, given
// values ā for x̄, Q(ā, D) is computed by touching a number of tuples that
// depends only on Q and A, never on |D|.
//
// The package provides:
//
//   - Analyzer: computes, for a formula, the family of minimal controlling
//     variable sets together with derivations (which rule produced which
//     set, and from which access schema entries);
//   - embedded controllability (x̄[ȳ]-controlled, Proposition 4.5) for
//     conjunctive formulas via a chase over embedded entries;
//   - Engine.Prepare: compiles a derivation into a cost-optimized,
//     cached physical plan; PreparedQuery.Query/Exec run it against a
//     store.Backend under per-call stats, producing both the answer and
//     (through the stats' trace) the witness set D_Q;
//   - static cost bounds (the M derivable from the N values of A);
//   - the decision problems QCntl and QCntl_min of Theorem 4.4.
package core

import "repro/internal/query"

// Family is an antichain of minimal controlling variable sets: Q is
// x̄-controlled iff some member is a subset of x̄ (the expansion rule is
// implicit in this representation).
type Family []query.VarSet

// Controls reports whether the family licenses control by x̄.
func (f Family) Controls(x query.VarSet) bool {
	for _, s := range f {
		if s.SubsetOf(x) {
			return true
		}
	}
	return false
}

// MinSize returns the size of the smallest controlling set, or -1 for an
// empty family.
func (f Family) MinSize() int {
	if len(f) == 0 {
		return -1
	}
	min := f[0].Len()
	for _, s := range f[1:] {
		if s.Len() < min {
			min = s.Len()
		}
	}
	return min
}
