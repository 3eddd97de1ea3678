package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// facebookCatalog is the schema + access schema of Examples 1.1/4.1/4.6,
// with small limits for tests.
const facebookCatalog = `
relation person(id, name, city)
relation friend(id1, id2)
relation restr(rid, name, city, rating)
relation visit(id, rid, yy, mm, dd)

access friend(id1 -> *) limit 5000 time 1
access person(id -> *) limit 1 time 1
access restr(rid -> *) limit 1 time 1
`

func mustCatalog(t *testing.T, src string) *parser.Catalog {
	t.Helper()
	cat, err := parser.ParseCatalog(src)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustQ(t testing.TB, src string) *query.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// usesRule reports whether rule appears anywhere in the derivation tree.
func usesRule(d *Derivation, rule Rule) bool {
	if d.Rule == rule {
		return true
	}
	for _, c := range d.Children {
		if usesRule(c, rule) {
			return true
		}
	}
	return false
}

func TestQ1IsPControlled(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	an := NewAnalyzer(cat.Access)
	res, err := an.AnalyzeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Controls(query.NewVarSet("p")); d == nil {
		t.Fatalf("Q1 should be p-controlled; family = %v", res.Family())
	}
	if d := res.Controls(query.NewVarSet()); d != nil {
		t.Fatalf("Q1 should not be ∅-controlled; got %s", d.Explain())
	}
	if d := res.Controls(query.NewVarSet("name")); d != nil {
		t.Fatal("Q1 should not be name-controlled")
	}
	// Static bound: 5000 friends, then one person lookup per friend.
	d := res.Controls(query.NewVarSet("p"))
	c := CostOf(d)
	if c.Reads > 10000 {
		t.Errorf("Q1 static bound = %v, paper gives 10000", c)
	}
}

func TestAtomRuleConstantsInKey(t *testing.T) {
	// restr(rid, rn, 'NYC', 'A') under access restr(city -> *): the key
	// attribute holds a constant, so the atom is ∅-controlled.
	cat := mustCatalog(t, `
relation restr(rid, name, city, rating)
access restr(city -> *) limit 100 time 1
`)
	an := NewAnalyzer(cat.Access)
	f, err := parser.ParseFormula("restr(rid, rn, 'NYC', 'A')")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Controls(query.NewVarSet()); d == nil {
		t.Fatalf("constant-keyed atom should be ∅-controlled; family %v", res.Family())
	}
}

func TestConjunctionRuleBothOrders(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(b, c)
access R(a -> *) limit 10 time 1
access S(b -> *) limit 10 time 1
`)
	an := NewAnalyzer(cat.Access)
	f, err := parser.ParseFormula("R(x, y) and S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate R first: {x} then S's key y is produced: {x}.
	if res.Controls(query.NewVarSet("x")) == nil {
		t.Errorf("expected x-controlled; family %v", res.Family())
	}
	// Evaluate S first: {y}; R's key x is not produced by S, so {x, y}
	// — subsumed by {x}. But {y} alone must not control (R needs x or a
	// full scan).
	if res.Controls(query.NewVarSet("y")) != nil {
		t.Errorf("y alone should not control; family %v", res.Family())
	}
}

func TestExistentialForgetsQuantified(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
access R(a -> *) limit 10 time 1
`)
	an := NewAnalyzer(cat.Access)
	// ∃x R(x, y): the only controlling sets of R(x,y) are {x} and {x,y},
	// both meeting x — nothing survives quantification.
	f, err := parser.ParseFormula("exists x (R(x, y))")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Family()) != 0 {
		t.Errorf("family should be empty, got %v", res.Family())
	}
}

func TestDisjunctionRule(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 10 time 1
access S(b -> *) limit 10 time 1
`)
	an := NewAnalyzer(cat.Access)
	f, err := parser.ParseFormula("R(x, y) or S(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	// x̄1 ∪ x̄2 = {x} ∪ {y} = {x, y}.
	if res.Controls(query.NewVarSet("x", "y")) == nil {
		t.Fatalf("expected {x,y}-controlled; family %v", res.Family())
	}
	if res.Controls(query.NewVarSet("x")) != nil {
		t.Error("x alone should not control the disjunction")
	}
}

func TestSafeNegationRule(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b)
access R(a -> *) limit 10 time 1
`)
	an := NewAnalyzer(cat.Access)
	f, err := parser.ParseFormula("R(x, y) and not S(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	// R is {x}-controlled; S(x,y) is fully controlled via implicit
	// membership; so the whole thing is {x}-controlled.
	if res.Controls(query.NewVarSet("x")) == nil {
		t.Fatalf("expected x-controlled; family %v", res.Family())
	}
}

func TestSafeNegationRequiresVarContainment(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a)
relation S(a, b)
access R(a -> *) limit 10 time 1
`)
	an := NewAnalyzer(cat.Access)
	// free(S(x,z)) ⊄ free(R(x)): not safe.
	f, err := parser.ParseFormula("R(x) and not S(x, z)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Family() {
		if s.SubsetOf(query.NewVarSet("x")) {
			t.Errorf("unsafe negation derived x-control: %v", res.Family())
		}
	}
}

func TestUniversalRuleSQLExample(t *testing.T) {
	// The SQL example of Section 4: R(x,y) ∧ x=1 ∧ ∀z (S(x,y,z) → T(x,y,z))
	// is controlled when S is (A,B)-controlled and T controlled by
	// anything.
	cat := mustCatalog(t, `
relation R(a, b)
relation S(a, b, c)
relation T(a, b, c)
access R(a -> *) limit 5 time 1
access S(a, b -> *) limit 5 time 1
`)
	an := NewAnalyzer(cat.Access)
	f, err := parser.ParseFormula("R(x, y) and x = 1 and forall z (S(x, y, z) implies T(x, y, z))")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controls(query.NewVarSet("x")) == nil {
		t.Fatalf("SQL example should be x-controlled; family %v", res.Family())
	}
	// Without the S(a,b) access entry the universal rule must fail.
	cat2 := mustCatalog(t, `
relation R(a, b)
relation S(a, b, c)
relation T(a, b, c)
access R(a -> *) limit 5 time 1
`)
	res2, err := NewAnalyzer(cat2.Access).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Controls(query.NewVarSet("x")) != nil {
		t.Errorf("without S(a,b) entry, should not be x-controlled; family %v", res2.Family())
	}
}

func TestQ3PlainVsEmbedded(t *testing.T) {
	// Example 4.1 / 4.6: Q3 is not (p,yy)-controlled under the plain
	// schema, and becomes (p,yy)-controlled once the 366-days embedded
	// entry and the FD are added.
	q3src := `Q3(rn, p, yy) := exists id, rid, pn, mm, dd (friend(p, id) and visit(id, rid, yy, mm, dd) and person(id, pn, 'NYC') and restr(rid, rn, 'NYC', 'A'))`
	plain := mustCatalog(t, facebookCatalog+`
access restr(city -> *) limit 50 time 1
`)
	q := mustQ(t, q3src)
	resPlain, err := NewAnalyzer(plain.Access).AnalyzeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Controls(query.NewVarSet("p", "yy")) != nil {
		t.Fatalf("Q3 should NOT be (p,yy)-controlled under plain access schema; family %v", resPlain.Family())
	}

	embedded := mustCatalog(t, facebookCatalog+`
access restr(city -> *) limit 50 time 1
access visit(yy -> yy, mm, dd) limit 366 time 1
fd visit: id, yy, mm, dd -> rid time 1
`)
	resEmb, err := NewAnalyzer(embedded.Access).AnalyzeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	d := resEmb.Controls(query.NewVarSet("p", "yy"))
	if d == nil {
		t.Fatalf("Q3 should be (p,yy)-controlled with embedded entries; family %v", resEmb.Family())
	}
	if !usesRule(d, RuleEmbedded) {
		t.Errorf("expected an embedded chase in the derivation:\n%s", d.Explain())
	}
	c := CostOf(d)
	if c.Reads <= 0 || c.Reads >= plan.CostCap {
		t.Errorf("embedded bound should be finite: %v", c)
	}
}

func TestQCntl(t *testing.T) {
	cat := mustCatalog(t, facebookCatalog)
	an := NewAnalyzer(cat.Access)
	q := mustQ(t, "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))")
	set, ok, err := QCntl(an, q, 1)
	if err != nil || !ok {
		t.Fatalf("QCntl(1) = %v, %v, %v", set, ok, err)
	}
	if !set.Equal(query.NewVarSet("p")) {
		t.Errorf("QCntl witness = %v", set)
	}
	if _, ok, _ := QCntl(an, q, 0); ok {
		t.Error("QCntl(0) should fail for Q1")
	}
	// QCntlMin: p is in a minimal controlling set; name is not.
	if _, ok, _ := QCntlMin(an, q, "p"); !ok {
		t.Error("QCntlMin(p) should hold")
	}
	if _, ok, _ := QCntlMin(an, q, "name"); ok {
		t.Error("QCntlMin(name) should fail")
	}
}

func TestAnalyzerUnknownRelation(t *testing.T) {
	cat := mustCatalog(t, "relation R(a)")
	an := NewAnalyzer(cat.Access)
	f, _ := parser.ParseFormula("nosuch(x)")
	if _, err := an.Analyze(f); err == nil {
		t.Error("unknown relation accepted")
	}
	f2, _ := parser.ParseFormula("R(x, y)")
	if _, err := an.Analyze(f2); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestImplicitMembershipToggle(t *testing.T) {
	cat := mustCatalog(t, "relation R(a, b)")
	// With implicit membership R(x,y) is {x,y}-controlled.
	an := NewAnalyzer(cat.Access)
	f, _ := parser.ParseFormula("R(x, y)")
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controls(query.NewVarSet("x", "y")) == nil {
		t.Error("implicit membership should control atoms fully")
	}
	// Without it, nothing controls the atom.
	acc2 := access.New(cat.Relational)
	acc2.ImplicitMembership = false
	res2, err := NewAnalyzer(acc2).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Family()) != 0 {
		t.Errorf("family without access = %v", res2.Family())
	}
}

// TestFamilyNormalization: the analyzer reports its family as a sorted
// antichain of minimal sets — the membership set {a, b, c} is subsumed by
// both keyed entries' sets — and a Family answers Controls and MinSize.
func TestFamilyNormalization(t *testing.T) {
	cat := mustCatalog(t, `
relation T(a, b, c)
access T(a -> *) limit 5 time 1
access T(b, c -> *) limit 5 time 1
`)
	f, err := parser.ParseFormula("T(a, b, c)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAnalyzer(cat.Access).Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if fam := res.Family(); len(fam) != 2 || !fam[0].Equal(query.NewVarSet("a")) || !fam[1].Equal(query.NewVarSet("b", "c")) {
		t.Fatalf("normalized family = %v, want [{a} {b, c}]", fam)
	}
	fam := Family{query.NewVarSet("a"), query.NewVarSet("b", "c")}
	if !fam.Controls(query.NewVarSet("a", "z")) {
		t.Error("Controls via subset failed")
	}
	if fam.Controls(query.NewVarSet("b")) {
		t.Error("Controls false positive")
	}
	if fam.MinSize() != 1 {
		t.Errorf("MinSize = %d", fam.MinSize())
	}
	var empty Family
	if empty.MinSize() != -1 || empty.Controls(query.NewVarSet()) {
		t.Error("empty family behavior")
	}
}

func TestEqualityOnlyControlled(t *testing.T) {
	cat := mustCatalog(t, "relation R(a)")
	an := NewAnalyzer(cat.Access)
	f, err := parser.ParseFormula("x = y or not (x = 3)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controls(query.NewVarSet("x", "y")) == nil {
		t.Errorf("conditions rule failed; family %v", res.Family())
	}
	if res.Controls(query.NewVarSet("x")) != nil {
		t.Error("conditions rule controls with all variables, not subsets")
	}
}

func TestMustInertRelationHelpers(t *testing.T) {
	// Guard against regressions in the fetch-value builder's error
	// reporting (now plan.TupleForPositions, shared by lookups and chase
	// steps).
	a := query.NewAtom("R", query.Var("x"), query.ConstInt(3))
	if _, err := plan.TupleForPositions(a, []int{0}, query.Bindings{}); err == nil {
		t.Error("unbound variable accepted")
	}
	vals, err := plan.TupleForPositions(a, []int{1, 0}, query.Bindings{"x": relation.Int(7)})
	if err != nil || vals[0] != relation.Int(3) || vals[1] != relation.Int(7) {
		t.Errorf("TupleForPositions = %v, %v", vals, err)
	}
}

// TestTruncatedOnlyWhenASetIsCutOff: over a bijection R, R(a, b) ∧ R(b, c)
// is controlled by each of {a}, {b} and {c} and by nothing smaller. With
// room for exactly those three sets the family is complete and must not be
// reported truncated; with room for two the third is cut off.
func TestTruncatedOnlyWhenASetIsCutOff(t *testing.T) {
	cat := mustCatalog(t, `
relation R(a, b)
access R(a -> *) limit 1 time 1
access R(b -> *) limit 1 time 1
`)
	f, err := parser.ParseFormula("R(a, b) and R(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		max       int
		want      string
		truncated bool
	}{
		{3, "[{a} {b} {c}]", false},
		{2, "[{a} {b}]", true},
	} {
		res, err := (&Analyzer{Acc: cat.Access, MaxSets: tc.max}).Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Family()); got != tc.want || res.Truncated != tc.truncated {
			t.Errorf("MaxSets %d: family %s, truncated %v; want %s, truncated %v", tc.max, got, res.Truncated, tc.want, tc.truncated)
		}
	}
}

// TestAnalyzeRejectsWideFormula: the analysis numbers a formula's
// variables as the bits of one word, so more than 64 of them are refused
// as an invalid query rather than analyzed wrongly.
func TestAnalyzeRejectsWideFormula(t *testing.T) {
	cat := mustCatalog(t, "relation R(a, b)")
	atoms := make([]query.Formula, 33)
	for i := range atoms {
		atoms[i] = query.NewAtom("R", query.Var(fmt.Sprintf("x%d", 2*i)), query.Var(fmt.Sprintf("x%d", 2*i+1)))
	}
	an := NewAnalyzer(cat.Access)
	if _, err := an.Analyze(query.AndAll(atoms...)); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("66 variables: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := an.Analyze(query.AndAll(atoms[:32]...)); err != nil {
		t.Errorf("64 variables: %v", err)
	}
}
