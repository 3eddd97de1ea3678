package parser_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backendtest"
	"repro/internal/parser"
	"repro/internal/workload"
)

// goldenPath holds what TestParseGolden pins. On a mismatch the test
// writes what it computed next to it with a .got suffix; review the
// difference and move it over the golden to accept it.
var goldenPath = filepath.Join("testdata", "parse.golden")

// catalogSrc is the social schema of Example 1.1 in catalog syntax, with
// a comment, blank lines and every declaration form.
const catalogSrc = `
# The Facebook-style schema of Example 1.1.
relation person(id, name, city)
relation friend(id1, id2)
relation visit(id, rid, yy, mm, dd)
relation restr(rid, name, city, rating)

access friend(id1 -> *) limit 5000 time 1
access person(id -> *) limit 1 time 1
access visit(yy -> yy, mm, dd) limit 366 time 1
access restr(-> *) limit 1000 time 1
fd visit: id, yy, mm, dd -> rid time 1
fd restr: rid -> name
`

// servingTexts are the serving pack Q1–Q7 and the two showcase views.
var servingTexts = []string{
	workload.Q1Src,
	workload.Q2Src,
	workload.Q3Src,
	backendtest.Q4Src,
	backendtest.Q5Src,
	backendtest.Q6Src,
	backendtest.Q7Src,
	backendtest.VFolSrc,
	backendtest.VNYCSrc,
}

// fuzzSeeds are FuzzDSLParser's original seeds, in their original order.
var fuzzSeeds = []string{
	"Q(x) := E(x, y) and y = 3",
	"Q(x, y) :- E(x, z), E(z, y), z = \"a\"",
	"Q(x) := exists y (E(x, y) implies not F(y))",
	"Q(x) := A(x) or (B(x) and forall z (C(z)))",
	"Q(x) :- E(x, y); Q(x) :- F(y, x)",
	"rel E(src, dst); access E(src) -> 5, 1",
	"Q(x) :- E(x, x), x != 0",
	":= and or not ( \x00 \xff",
}

// corpus is the parser's pinned input set: the serving texts, a catalog,
// FuzzDSLParser's original seeds, and well-formed and malformed inputs
// that reach each result and error the lexer and parser build.
var corpus = concat(servingTexts, []string{catalogSrc}, fuzzSeeds, []string{
	"# a comment\nQ(x) := R(x) # trailing\n\n",
	"Q() :- R(x, y), R(y, z)",
	"Q(x) :- R(x, -5, 0007, '')",
	"Q(x) := true and R(x)",
	"Q(x) := false or R(x)",
	"Q(x) := exists y, z ((R(x, y)) and (exists w (S(y, z, w) and z = 'a')))",
	"Q(x, y) := x = y",
	"Q(x, 3) := R(x)",
	"Q(x) :- R(x)\n  , S(x,\n 'a')",
	"exists id (friend(p, id) and person(id, name, 'NYC'))",
	"R(x) implies S(x) implies T(x)",

	"",
	"Q(x) :=",
	"Q(x) := R(x",
	"Q(x) := R(x) and",
	"Q(x :- R(x)",
	"Q(x) := 'abc",
	"Q(x) := R(x) ! S(x)",
	"Q(x) := R(x, -)",
	"Q(x) := R(x, 99999999999999999999)",
	"Q(x) := R(x) @",
	"and(x) := R(x)",
	"Q(x) := exists not (R(x))",
	"Q(x, x) := R(x)",
	"Q(x) := R(x, y)",
	"Q(x) :- R(x) or S(x)",
	"Q(x, y) :- R(x)",
	"Q(x) := R(x) or S(x)",
	"Q(x) := not R(x) and",
	"Q(x) := R(x)\n  and S(x, 'a\n')",
	"Q(x) := R(x) R(y)",
	"Q(x) = R(x)",
	"Q(x) := x != 3 and R(x)",
	"Q(é) := R(é)",
	"Q(x) := or(x)",
	"Q(x) := R(x) and forall y (S(x, y) implies T(y)) or x = 1",
	"relation R(a, b)\naccess R(a -> *) limit x time 1",
	"relation R(a, b)\naccess R(a -> b) limit 3 time 1\nfd R a -> b",
	"relation R(a, a)",
})

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestParseGolden pins the parser's observable behaviour byte for byte:
// for every corpus input, what ParseFormula, ParseQuery, ParseCQ and
// ParseCatalog return — the String() rendering of the result, or the
// exact error text, line:col included.
func TestParseGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range corpus {
		fmt.Fprintf(&b, "== %q\n", src)
		f, err := parser.ParseFormula(src)
		writeResult(&b, "formula", f, err)
		q, err := parser.ParseQuery(src)
		writeResult(&b, "query", q, err)
		cq, err := parser.ParseCQ(src)
		writeResult(&b, "cq", cq, err)
		cat, err := parser.ParseCatalog(src)
		if err == nil {
			fmt.Fprintf(&b, "catalog:\n%s\n%s\n", indent(cat.Relational.String()), indent(cat.Access.String()))
		} else {
			fmt.Fprintf(&b, "catalog: error: %v\n", err)
		}
	}
	checkGolden(t, goldenPath, b.String())
}

func writeResult[T fmt.Stringer](b *strings.Builder, label string, v T, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s: error: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s: %s\n", label, v)
}

func indent(s string) string { return "\t" + strings.ReplaceAll(s, "\n", "\n\t") }

// checkGolden compares got with the golden file at path. On a mismatch it
// writes got next to the golden with a .got suffix and fails at the first
// differing line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	if err := os.WriteFile(path+".got", []byte(got), 0o644); err != nil {
		t.Error(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s\n(full output in %s.got)", path, i+1, g, w, path)
		}
	}
}
