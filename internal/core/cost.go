package core

import (
	"fmt"

	"repro/internal/plan"
)

// Saturating cost arithmetic (plan.SatAdd, plan.SatMul) lives with the
// operator IR; the analyzer shares it so derivation costs and plan bounds
// never diverge.

// Cost is the static bound a derivation (or its compiled physical plan)
// guarantees, expressed in the N-values of the access schema (Theorem
// 4.2's "time that depends only on A and Q"): Candidates bounds the
// number of candidate bindings, Reads bounds the number of tuples fetched
// from the store. Both are independent of |D| by construction. It is the
// operator IR's cost type; the analyzer uses it to rank derivations
// before compilation.
type Cost = plan.Cost

// CostOf returns the static bound of a derivation, computed by structural
// induction when the analysis builds it, mirroring the proof of Theorem
// 4.2. It equals the Bound of the derivation's 1:1 compiled operator plan
// (compile_test pins this); an optimized plan may carry a tighter bound.
func CostOf(d *Derivation) Cost { return d.cost }

// ruleCost combines the costs of a two-child rule's children, in
// execution order.
func ruleCost(r Rule, c0, c1 Cost) Cost {
	switch r {
	case RuleConj:
		return Cost{
			Candidates: plan.SatMul(c0.Candidates, c1.Candidates),
			Reads:      plan.SatAdd(c0.Reads, plan.SatMul(c0.Candidates, c1.Reads)),
		}
	case RuleDisj:
		return Cost{
			Candidates: plan.SatAdd(c0.Candidates, c1.Candidates),
			Reads:      plan.SatAdd(c0.Reads, c1.Reads),
		}
	case RuleSafeNeg:
		return Cost{
			Candidates: c0.Candidates,
			Reads:      plan.SatAdd(c0.Reads, plan.SatMul(c0.Candidates, c1.Reads)),
		}
	case RuleForall:
		return Cost{
			Candidates: 1,
			Reads:      plan.SatAdd(c0.Reads, plan.SatMul(c0.Candidates, c1.Reads)),
		}
	default:
		panic(fmt.Sprintf("core: ruleCost of rule %q", r))
	}
}

// chaseFetchCost charges one fetch step through an entry of bound n to a
// chase's running cost: n reads per candidate, and n times the candidates
// when the step binds variables.
func chaseFetchCost(c Cost, n int, binds bool) Cost {
	c.Reads = plan.SatAdd(c.Reads, plan.SatMul(c.Candidates, int64(n)))
	if binds {
		c.Candidates = plan.SatMul(c.Candidates, int64(n))
	}
	return c
}

// chaseProbeCost charges one membership probe per candidate per
// membership-verified atom.
func chaseProbeCost(c Cost, probed int) Cost {
	c.Reads = plan.SatAdd(c.Reads, plan.SatMul(c.Candidates, int64(probed)))
	return c
}
