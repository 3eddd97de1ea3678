package plan_test

import (
	"testing"

	"repro/internal/access"
	"repro/internal/plan"
)

// TestCostAlgebra pins the step rule and the four compositions on hand
// values: every bound in the engine is built from these.
func TestCostAlgebra(t *testing.T) {
	c := func(cands, reads int64) plan.Cost { return plan.Cost{Candidates: cands, Reads: reads} }
	for _, tc := range []struct {
		name      string
		got, want plan.Cost
	}{
		{"EntryBound reads N", c(plan.EntryBound(access.Plain("r", []string{"a"}, 7, 1)), 0), c(7, 0)},
		{"binding fetch", plan.Fetch(50, true), c(50, 50)},
		{"non-binding fetch keeps its candidate", plan.Fetch(50, false), c(1, 50)},
		{"N = 0 binding fetch", plan.Fetch(0, true), c(0, 0)},
		{"N = 0 non-binding fetch drops its candidate", plan.Fetch(0, false), c(0, 0)},
		{"probe of k atoms", plan.Probe(3), c(1, 3)},
		{"condition filter", plan.Probe(0), c(1, 0)},
		// friend (N 50) then person (N 1): Q1's 100 reads.
		{"join", plan.Join(c(50, 50), c(1, 1)), c(50, 100)},
		{"join runs r once per l candidate", plan.Join(c(3, 5), c(4, 7)), c(12, 26)},
		{"join with an empty left side", plan.Join(c(0, 0), c(1, 1)), c(0, 0)},
		{"union", plan.Union(c(3, 5), c(4, 7)), c(7, 12)},
		{"anti", plan.Anti(c(3, 5), c(4, 7)), c(3, 26)},
		{"forall", plan.Forall(c(3, 5), c(4, 7)), c(1, 26)},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

// TestCostAlgebraSaturates checks that every composition saturates at
// CostCap instead of overflowing.
func TestCostAlgebraSaturates(t *testing.T) {
	huge := plan.Cost{Candidates: plan.CostCap, Reads: plan.CostCap}
	two := plan.Cost{Candidates: 2, Reads: 2}
	for name, got := range map[string]plan.Cost{
		"join":       plan.Join(huge, two),
		"join right": plan.Join(two, huge),
		"union":      plan.Union(huge, huge),
	} {
		if got != huge {
			t.Errorf("%s: got %+v, want both at the cap", name, got)
		}
	}
	if got := plan.Anti(huge, two); got != huge {
		t.Errorf("anti: got %+v, want both at the cap", got)
	}
	if got := plan.Forall(huge, two); got != (plan.Cost{Candidates: 1, Reads: plan.CostCap}) {
		t.Errorf("forall: got %+v, want one candidate and reads at the cap", got)
	}
	if got := plan.Fetch(plan.CostCap, true); got != huge {
		t.Errorf("fetch at the cap: got %+v", got)
	}
}

func TestCostArithmeticSaturates(t *testing.T) {
	if plan.SatMul(plan.CostCap, 2) != plan.CostCap || plan.SatAdd(plan.CostCap, plan.CostCap) != plan.CostCap {
		t.Error("saturation broken")
	}
	if plan.SatMul(0, 5) != 0 || plan.SatMul(3, 4) != 12 || plan.SatAdd(3, 4) != 7 {
		t.Error("basic arithmetic broken")
	}
}
