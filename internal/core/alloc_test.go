//go:build !race

package core

import (
	"testing"

	"repro/internal/workload"
)

// TestAnalyzeAllocs caps the allocations of one controllability analysis
// of Q2 and Q3 on the social access schema. The analysis runs on variable
// bit masks over one numbering of the formula (plan.Vars) and builds a
// name set only for each derivation it returns; building them per
// candidate set, chase step and subformula, as name sets do, costs 291
// and 328 allocations, and numbering through a name map with per-node
// masks in a formula-keyed map and name sets for every returned node
// costs 61 and 60. The caps are today's 27 and 27 plus a tenth. (The race
// detector's instrumentation allocates on its own.)
func TestAnalyzeAllocs(t *testing.T) {
	an := NewAnalyzer(workload.Access(workload.DefaultConfig()))
	for _, tc := range []struct {
		src string
		max float64
	}{
		{workload.Q2Src, 29},
		{workload.Q3Src, 29},
	} {
		q := mustRuleOrQ(t, tc.src)
		got := testing.AllocsPerRun(100, func() {
			if _, err := an.AnalyzeQuery(q); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per analysis, want at most %.0f", q.Name, got, tc.max)
		}
	}
}
