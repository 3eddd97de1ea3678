//go:build !race

package core

import (
	"testing"

	"repro/internal/workload"
)

// TestAnalyzeAllocs caps the allocations of one controllability analysis
// of Q2 and Q3 on the social access schema. The analysis runs on variable
// bit masks and builds variable sets only for the derivations it returns;
// building them per candidate set, chase step and subformula, as name sets
// do, costs 291 and 328 allocations. The caps are a quarter of those.
// (The race detector's instrumentation allocates on its own.)
func TestAnalyzeAllocs(t *testing.T) {
	an := NewAnalyzer(workload.Access(workload.DefaultConfig()))
	for _, tc := range []struct {
		src string
		max float64
	}{
		{workload.Q2Src, 72},
		{workload.Q3Src, 82},
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
