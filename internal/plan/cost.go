package plan

import (
	"fmt"
	"math"

	"repro/internal/access"
)

// This file is the one cost algebra of the engine: Theorem 4.2's bound M
// as products and sums of the access schema's N values. Every price — a
// derivation's cost in the analysis, an operator's Bound, the chain and
// chase reorders' estimates, a view rewriting's PriceBelow — is built
// from one step rule (Fetch, Probe, with N read only through EntryBound)
// and four compositions (Join, Union, Anti, Forall), so the bounds the
// analysis ranks by, the optimizer orders by and the plan reports cannot
// disagree.

// Cost is the static bound an operator guarantees, expressed in the
// N-values of the access schema (Theorem 4.2's "time that depends only on
// A and Q"): Candidates bounds the number of bindings the operator can
// yield, Reads bounds the number of tuples it fetches. Both are
// independent of |D| by construction.
type Cost struct {
	Candidates int64
	Reads      int64
}

// CostCap saturates cost arithmetic well below overflow: a bound at the
// cap means "effectively unbounded".
const CostCap = math.MaxInt64 / 4

// costCap is the internal shorthand.
const costCap = CostCap

// SatAdd adds with saturation at the cost cap.
func SatAdd(a, b int64) int64 {
	if a > costCap-b {
		return costCap
	}
	return a + b
}

// SatMul multiplies with saturation at the cost cap.
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}

// String renders the cost.
func (c Cost) String() string {
	return fmt.Sprintf("≤%d candidates, ≤%d reads", c.Candidates, c.Reads)
}

// EntryBound is the bound on the group one fetch through e retrieves:
// the only place a price reads an entry's N.
func EntryBound(e access.Entry) int64 { return int64(e.N) }

// Fetch prices one fetch through an entry of bound n (EntryBound) for one
// candidate: n reads, and up to n candidates when the fetch binds a
// variable not bound before it. A fetch that binds nothing new keeps its
// candidate when the group is non-empty, so it yields min(n, 1): an
// n = 0 group is empty and lets nothing through.
func Fetch(n int64, binds bool) Cost {
	if binds {
		return Cost{Candidates: n, Reads: n}
	}
	return Cost{Candidates: min(n, 1), Reads: n}
}

// Probe prices the membership probes of k fully bound atoms for one
// candidate: k reads, and at most that candidate out. Probe(0) is a
// condition filter, which reads nothing.
func Probe(k int) Cost { return Cost{Candidates: 1, Reads: int64(k)} }

// Join composes l and r run in sequence, r once per candidate of l: the
// conjunction rule and NLJoin, and the running price of a chain or chase.
func Join(l, r Cost) Cost {
	return Cost{
		Candidates: SatMul(l.Candidates, r.Candidates),
		Reads:      SatAdd(l.Reads, SatMul(l.Candidates, r.Reads)),
	}
}

// Union composes two branches that both run: the disjunction rule and
// StreamUnion.
func Union(a, b Cost) Cost {
	return Cost{
		Candidates: SatAdd(a.Candidates, b.Candidates),
		Reads:      SatAdd(a.Reads, b.Reads),
	}
}

// Anti composes a positive side with an emptiness probe of the negated
// side per candidate, whose worst case is its full bound: the
// safe-negation rule and AntiProbe.
func Anti(pos, neg Cost) Cost {
	return Cost{
		Candidates: pos.Candidates,
		Reads:      SatAdd(pos.Reads, SatMul(pos.Candidates, neg.Reads)),
	}
}

// Forall composes a generator with an emptiness probe of the test per
// generated candidate, yielding at most one binding: the universal rule
// and ForallCheck.
func Forall(gen, test Cost) Cost {
	return Cost{
		Candidates: 1,
		Reads:      SatAdd(gen.Reads, SatMul(gen.Candidates, test.Reads)),
	}
}
