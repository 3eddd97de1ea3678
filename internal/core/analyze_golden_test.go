package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workload"
)

// goldenPath holds the analysis output TestAnalysisGolden pins. On a
// mismatch the test writes what it computed next to it with a .got
// suffix; review the difference and move it over the golden to accept it.
var goldenPath = filepath.Join("testdata", "analysis.golden")

// TestAnalysisGolden pins the controllability analysis byte for byte: for
// each formula, the family of minimal controlling sets in order, the
// truncation flag, and each set's derivation (EXPLAIN rendering and
// static cost). The cases are the serving queries Q1–Q7 on the social
// access schema, the VFol rewriting bodies of Q1, Q2, Q3 and Q6 under the
// view-extended schema, the per-atom remainder bodies a Q2 maintainer
// analyzes, and seeded random conjunctive queries and FO formulas.
func TestAnalysisGolden(t *testing.T) {
	checkGolden(t, goldenPath, analysisGolden(t))
}

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

func analysisGolden(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = 60
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st)
	var b strings.Builder
	emit := func(name string, an *core.Analyzer, f query.Formula) {
		fmt.Fprintf(&b, "== %s: %s\n", name, f)
		res, err := an.Analyze(f)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return
		}
		fmt.Fprintf(&b, "truncated=%v family=%v\n", res.Truncated, res.Family())
		for _, d := range res.Derivs {
			c := core.CostOf(d)
			fmt.Fprintf(&b, "-- %s cands=%d reads=%d\n%s", d.Ctrl, c.Candidates, c.Reads, d.Explain())
		}
	}

	serving := []struct{ name, src string }{
		{"Q1", workload.Q1Src}, {"Q2", workload.Q2Src}, {"Q3", workload.Q3Src},
		{"Q4", backendtest.Q4Src}, {"Q5", backendtest.Q5Src},
		{"Q6", backendtest.Q6Src}, {"Q7", backendtest.Q7Src},
	}
	for _, q := range serving {
		emit(q.name, eng.An, goldenQuery(t, q.src).Body)
	}
	// Without visit(id) and without implicit membership, visits are reached
	// only through the embedded yy entry and the FD, and restr membership
	// needs a verifying fetch: the chase does the work.
	emb := access.New(workload.Schema())
	emb.ImplicitMembership = false
	emb.MustAdd(access.Plain("friend", []string{"id1"}, cfg.MaxFriends, 1))
	emb.MustAdd(access.Plain("person", []string{"id"}, 1, 1))
	emb.MustAdd(access.Plain("person", []string{"id", "name", "city"}, 1, 1))
	emb.MustAdd(access.Plain("restr", []string{"rid"}, 1, 1))
	emb.MustAdd(access.Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 366, 1))
	emb.MustAdd(access.FD("visit", []string{"id", "yy", "mm", "dd"}, []string{"rid"}, 1))
	anEmb := core.NewAnalyzer(emb)
	for _, q := range serving {
		emit("emb-"+q.name, anEmb, goldenQuery(t, q.src).Body)
	}

	q2 := goldenCQ(t, workload.Q2Src)
	for i := range q2.Atoms {
		var rest []query.Formula
		for j, a := range q2.Atoms {
			if j != i {
				rest = append(rest, a)
			}
		}
		emit(fmt.Sprintf("Q2-remainder-%s", q2.Atoms[i].Rel), eng.An, query.AndAll(rest...))
	}

	rng := rand.New(rand.NewSource(37))
	fo := &foGen{rng: rand.New(rand.NewSource(41))}
	for i := 0; i < 150; i++ {
		f := goldenQuery(t, core.RandomSocialCQ(rng)).Body
		emit(fmt.Sprintf("CQ%d", i), eng.An, f)
		if i%3 == 0 {
			emit(fmt.Sprintf("emb-CQ%d", i), anEmb, f)
		}
	}
	for i := 0; i < 150; i++ {
		f := fo.formula(3)
		emit(fmt.Sprintf("FO%d", i), eng.An, f)
		if i%3 == 0 {
			emit(fmt.Sprintf("emb-FO%d", i), anEmb, f)
		}
	}

	vfol := goldenCQ(t, backendtest.VFolSrc)
	if _, err := eng.CreateView(vfol, access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
		t.Fatal(err)
	}
	view, err := views.NewView(vfol)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ name, src string }{
		{"Q1", workload.Q1Src}, {"Q2", workload.Q2Src}, {"Q3", workload.Q3Src}, {"Q6", backendtest.Q6Src},
	} {
		cq, ok := query.AsCQ(goldenQuery(t, q.src))
		if !ok {
			t.Fatalf("%s is not a CQ", q.name)
		}
		rws, err := views.FindRewritings(cq, []*views.View{view}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rws {
			if len(r.ViewAtoms) > 0 {
				emit(fmt.Sprintf("%s-VFol-%d", q.name, i), eng.An, r.Body.Formula())
			}
		}
	}
	return b.String()
}

func goldenCQ(t *testing.T, src string) *query.CQ {
	t.Helper()
	cq, err := parser.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

// goldenQuery parses a query in rule form or formula form.
func goldenQuery(t *testing.T, src string) *query.Query {
	t.Helper()
	if cq, err := parser.ParseCQ(src); err == nil {
		q, err := cq.Query()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// foGen builds random FO formulas over the social schema that reach every
// controllability rule: conjunctions, safe negations, disjunctions over
// equal free variables, existential and universal quantification, and
// equalities. Variable names share prefixes so set ordering is exercised.
type foGen struct{ rng *rand.Rand }

var (
	foVars  = []string{"a", "ab", "a_1", "b", "b2", "id"}
	foRels  = []string{"friend", "person", "restr", "visit"}
	foArity = map[string]int{"friend": 2, "person": 3, "restr": 4, "visit": 5}
)

func (g *foGen) term(pool []string) query.Term {
	if g.rng.Intn(5) == 0 {
		if g.rng.Intn(2) == 0 {
			return query.Const(relation.Str("NYC"))
		}
		return query.Const(relation.Int(7))
	}
	return query.Var(pool[g.rng.Intn(len(pool))])
}

func (g *foGen) atom(pool []string) *query.Atom {
	rel := foRels[g.rng.Intn(len(foRels))]
	args := make([]query.Term, foArity[rel])
	for i := range args {
		args[i] = g.term(pool)
	}
	return query.NewAtom(rel, args...)
}

func (g *foGen) formula(depth int) query.Formula {
	if depth == 0 || g.rng.Intn(4) == 0 {
		if g.rng.Intn(5) == 0 {
			return query.NewEq(g.term(foVars), g.term(foVars))
		}
		return g.atom(foVars)
	}
	switch g.rng.Intn(7) {
	case 0, 1:
		return query.NewAnd(g.formula(depth-1), g.formula(depth-1))
	case 2: // safe negation: the negated atom uses only the left side's variables
		l := g.formula(depth - 1)
		free := l.FreeVars().Sorted()
		if len(free) == 0 {
			return l
		}
		return query.NewAnd(l, query.NewNot(g.atom(free)))
	case 3: // disjunction, over equal free variables half the time
		l := g.formula(depth - 1)
		if free := l.FreeVars().Sorted(); len(free) > 0 && g.rng.Intn(2) == 0 {
			r := query.Formula(g.atom(free))
			for _, v := range free {
				if !r.FreeVars().Contains(v) {
					r = query.NewAnd(r, query.NewEq(query.Var(v), query.Var(v)))
				}
			}
			return query.NewOr(l, r)
		}
		return query.NewOr(l, g.formula(depth-1))
	case 4, 5:
		body := g.formula(depth - 1)
		free := body.FreeVars().Sorted()
		if len(free) == 0 {
			return body
		}
		var ex []string
		for _, v := range free {
			if g.rng.Intn(2) == 0 {
				ex = append(ex, v)
			}
		}
		if len(ex) == 0 {
			return body
		}
		return query.NewExists(ex, body)
	default: // ∀y (Q → Q′) with Q′ over Q's variables
		l := g.formula(depth - 1)
		free := l.FreeVars().Sorted()
		if len(free) == 0 {
			return l
		}
		y := free[g.rng.Intn(len(free))]
		return query.NewForall([]string{y}, query.NewImplies(l, g.atom(free)))
	}
}
