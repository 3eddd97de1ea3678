//go:build !race

package parser_test

import (
	"testing"

	"repro/internal/parser"
)

// TestParseAllocs pins what one serving parse allocates for each pack
// query: the lexer's token slice, the parser, the AST it returns, and for
// conjunctive text the CQ the returned query is rebuilt from. A new
// per-token or per-node allocation shows here first. (Skipped under the
// race detector, whose instrumentation allocates.)
func TestParseAllocs(t *testing.T) {
	caps := []struct {
		name string
		max  float64
	}{{"Q1", 18}, {"Q2", 15}, {"Q3", 23}, {"Q4", 18}, {"Q5", 15}, {"Q6", 13}, {"Q7", 18}}
	for i, c := range caps {
		src := servingTexts[i]
		got := testing.AllocsPerRun(100, func() {
			if _, err := parser.ParseServing(src); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: ParseServing allocates %v times, cap %v", c.name, got, c.max)
		}
	}
}
