package parser_test

import (
	"regexp"
	"testing"

	"repro/internal/parser"
	"repro/internal/query"
)

// posRe matches the "line:col: " prefix positioned parser errors carry.
var posRe = regexp.MustCompile(`^(\d+):(\d+): `)

// FuzzDSLParser throws arbitrary bytes at every entry point of the query
// DSL. Four properties must hold on any input:
//
//  1. no entry point panics — a malformed query over the wire must come
//     back as a 400, never take the serving tier down;
//  2. every error is non-empty, and when it carries a position the line
//     and column are both ≥ 1 (tokenizer coordinates are 1-based);
//  3. printing is a parser fixpoint: a successfully parsed formula or
//     query re-parses from its own String() form, and the re-parse
//     prints identically. Answering from the printed form is how EXPLAIN
//     and the view catalog persist queries, so print→parse must not
//     drift;
//  4. ParseServing agrees with trying ParseCQ (then CQ.Query) first and
//     ParseQuery second: it succeeds exactly when that order does, and
//     its query prints identically.
//
// The seeds are the original hand-written ones, then the serving pack
// Q1–Q7, the showcase views and a catalog, so a run starts from the
// shapes the server parses.
func FuzzDSLParser(f *testing.F) {
	for _, src := range concat(fuzzSeeds, servingTexts, []string{catalogSrc}) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip("long inputs add nothing over short ones here")
		}
		checkErr := func(err error) {
			if err == nil {
				return
			}
			msg := err.Error()
			if msg == "" {
				t.Fatalf("empty error message for %q", src)
			}
			if m := posRe.FindStringSubmatch(msg); m != nil && (m[1] == "0" || m[2] == "0") {
				t.Fatalf("zero-based error position %q for %q", msg, src)
			}
		}
		if fm, err := parser.ParseFormula(src); err != nil {
			checkErr(err)
		} else {
			printed := fm.String()
			again, err := parser.ParseFormula(printed)
			if err != nil {
				t.Fatalf("formula round-trip: %q parsed, but its print %q does not: %v", src, printed, err)
			}
			if got := again.String(); got != printed {
				t.Fatalf("formula print not a fixpoint: %q, then %q", printed, got)
			}
		}
		if q, err := parser.ParseQuery(src); err != nil {
			checkErr(err)
		} else {
			printed := q.String()
			if _, err := parser.ParseQuery(printed); err != nil {
				t.Fatalf("query round-trip: %q parsed, but its print %q does not: %v", src, printed, err)
			}
		}
		_, err := parser.ParseCQ(src)
		checkErr(err)
		_, err = parser.ParseUCQ(src)
		checkErr(err)
		_, err = parser.ParseCatalog(src)
		checkErr(err)

		got, err := parser.ParseServing(src)
		checkErr(err)
		want, wantErr := parseTwoStep(src)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("ParseServing(%q) error %v, ParseCQ-then-ParseQuery error %v", src, err, wantErr)
		case err == nil && got.String() != want.String():
			t.Fatalf("ParseServing(%q) = %s, ParseCQ-then-ParseQuery = %s", src, got, want)
		}
	})
}

// parseTwoStep parses a serving query the way callers did before
// ParseServing: the rule form (or a conjunctive := body) through ParseCQ
// first, the formula form through ParseQuery second.
func parseTwoStep(src string) (*query.Query, error) {
	if cq, err := parser.ParseCQ(src); err == nil {
		return cq.Query()
	}
	return parser.ParseQuery(src)
}
