package query

import (
	"testing"

	"repro/internal/relation"
)

// q1 is the paper's Q1(p, name) = ∃id (friend(p,id) ∧ person(id,name,'NYC')).
func q1() *Query {
	body := NewExists([]string{"id"}, NewAnd(
		NewAtom("friend", Var("p"), Var("id")),
		NewAtom("person", Var("id"), Var("name"), ConstStr("NYC")),
	))
	return MustQuery("Q1", []string{"p", "name"}, body)
}

func TestVarSetOps(t *testing.T) {
	a := NewVarSet("x", "y")
	b := NewVarSet("y", "z")
	if !a.Union(b).Equal(NewVarSet("x", "y", "z")) {
		t.Error("Union")
	}
	if !a.Minus(b).Equal(NewVarSet("x")) {
		t.Error("Minus")
	}
	if !a.Intersect(b).Equal(NewVarSet("y")) {
		t.Error("Intersect")
	}
	if a.Disjoint(b) || !a.Disjoint(NewVarSet("q")) {
		t.Error("Disjoint")
	}
	if !NewVarSet("x").SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf")
	}
	if a.Key() != "x,y" || a.String() != "{x, y}" {
		t.Errorf("Key/String: %q %q", a.Key(), a.String())
	}
	var nilSet VarSet
	if nilSet.Contains("x") || nilSet.Len() != 0 || !nilSet.IsEmpty() {
		t.Error("nil set reads")
	}
	nilSet = nilSet.Add("w")
	if !nilSet.Contains("w") {
		t.Error("Add on nil")
	}
}

func TestTermBasics(t *testing.T) {
	v := Var("x")
	c := ConstStr("NYC")
	if !v.IsVar() || c.IsVar() {
		t.Fatal("IsVar")
	}
	if v.Name() != "x" || c.Value() != relation.Str("NYC") {
		t.Fatal("payloads")
	}
	if v.String() != "x" || c.String() != "'NYC'" {
		t.Errorf("String: %s %s", v, c)
	}
	defer func() {
		if recover() == nil {
			t.Error("Name on constant did not panic")
		}
	}()
	_ = c.Name()
}

func TestFreeVars(t *testing.T) {
	f := q1().Body
	if !f.FreeVars().Equal(NewVarSet("p", "name")) {
		t.Errorf("FreeVars = %v", f.FreeVars())
	}
	g := NewForall([]string{"y"}, NewImplies(
		NewAtom("S", Var("x"), Var("y")),
		NewAtom("T", Var("x"), Var("y")),
	))
	if !g.FreeVars().Equal(NewVarSet("x")) {
		t.Errorf("FreeVars forall = %v", g.FreeVars())
	}
	if !True.FreeVars().IsEmpty() {
		t.Error("True has free vars")
	}
}

func TestStringRendering(t *testing.T) {
	f := NewOr(NewAnd(NewAtom("R", Var("x")), NewAtom("S", Var("x"))), NewNot(NewAtom("T", Var("x"))))
	got := f.String()
	want := "R(x) and S(x) or not T(x)"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	// and binds tighter than or; parenthesization must preserve shape.
	g := NewAnd(NewOr(NewAtom("R", Var("x")), NewAtom("S", Var("x"))), NewAtom("T", Var("x")))
	if g.String() != "(R(x) or S(x)) and T(x)" {
		t.Errorf("String = %q", g.String())
	}
}

func TestSubstituteAvoidsCapture(t *testing.T) {
	// ∃y R(x, y) with x := y must not capture: result ∃y' R(y, y').
	f := NewExists([]string{"y"}, NewAtom("R", Var("x"), Var("y")))
	g := Substitute(f, Subst{"x": Var("y")})
	ex, ok := g.(*Exists)
	if !ok {
		t.Fatalf("got %T", g)
	}
	if ex.Vars[0] == "y" {
		t.Fatalf("capture: %s", g)
	}
	at := ex.Body.(*Atom)
	if at.Args[0] != Var("y") || at.Args[1] != Var(ex.Vars[0]) {
		t.Errorf("bad substitution result: %s", g)
	}
	// Substituting a bound variable is a no-op.
	h := Substitute(f, Subst{"y": ConstInt(3)})
	if h.String() != f.String() {
		t.Errorf("bound-variable substitution changed formula: %s", h)
	}
}

func TestBindAndFix(t *testing.T) {
	q := q1()
	fixed := q.Fix(Bindings{"p": relation.Int(7)})
	if len(fixed.Head) != 1 || fixed.Head[0] != "name" {
		t.Fatalf("Fix head = %v", fixed.Head)
	}
	if !fixed.Body.FreeVars().Equal(NewVarSet("name")) {
		t.Errorf("Fix free vars = %v", fixed.Body.FreeVars())
	}
	if err := fixed.Validate(); err != nil {
		t.Errorf("fixed query invalid: %v", err)
	}
}

func TestQueryValidate(t *testing.T) {
	if _, err := NewQuery("Q", []string{"x", "x"}, NewAtom("R", Var("x"))); err == nil {
		t.Error("duplicate head accepted")
	}
	if _, err := NewQuery("Q", []string{"x"}, NewAtom("R", Var("y"))); err == nil {
		t.Error("head/free mismatch accepted")
	}
	if _, err := NewQuery("Q", nil, NewExists([]string{"x"}, NewAtom("R", Var("x")))); err != nil {
		t.Errorf("boolean query rejected: %v", err)
	}
}

func TestCQBasics(t *testing.T) {
	cq := MustCQ("Q2", Vars("p", "rn"),
		[]*Atom{
			NewAtom("friend", Var("p"), Var("id")),
			NewAtom("visit", Var("id"), Var("rid")),
			NewAtom("person", Var("id"), Var("pn"), ConstStr("NYC")),
			NewAtom("restr", Var("rid"), Var("rn"), ConstStr("NYC"), ConstStr("A")),
		}, nil)
	if cq.Size() != 4 {
		t.Errorf("Size = %d", cq.Size())
	}
	if !cq.ExistVars().Equal(NewVarSet("id", "rid", "pn")) {
		t.Errorf("ExistVars = %v", cq.ExistVars())
	}
	f := cq.Formula()
	if !f.FreeVars().Equal(NewVarSet("p", "rn")) {
		t.Errorf("Formula free vars = %v", f.FreeVars())
	}
	q, err := cq.Query()
	if err != nil {
		t.Fatal(err)
	}
	back, ok := AsCQ(q)
	if !ok {
		t.Fatal("AsCQ failed on CQ-shaped query")
	}
	if back.Size() != 4 || len(back.Head) != 2 {
		t.Errorf("round trip: %s", back)
	}
}

func TestCQUnsafeHead(t *testing.T) {
	if _, err := NewCQ("Q", Vars("x"), []*Atom{NewAtom("R", Var("y"))}, nil); err == nil {
		t.Error("unsafe head accepted")
	}
	// Safe via equality with constant.
	if _, err := NewCQ("Q", Vars("x"), []*Atom{NewAtom("R", Var("y"))},
		[]*Eq{NewEq(Var("x"), ConstInt(1))}); err != nil {
		t.Errorf("const-equated head rejected: %v", err)
	}
}

func TestApplyEqs(t *testing.T) {
	cq := MustCQ("Q", Vars("x"),
		[]*Atom{NewAtom("R", Var("x"), Var("y"), Var("z"))},
		[]*Eq{NewEq(Var("y"), ConstInt(5)), NewEq(Var("z"), Var("y"))})
	out, ok := cq.ApplyEqs()
	if !ok {
		t.Fatal("satisfiable eqs reported contradictory")
	}
	a := out.Atoms[0]
	if a.Args[1] != ConstInt(5) || a.Args[2] != ConstInt(5) {
		t.Errorf("ApplyEqs result: %s", out)
	}
	if len(out.Eqs) != 0 {
		t.Error("eqs not eliminated")
	}
	bad := MustCQ("Q", nil, []*Atom{NewAtom("R", Var("x"))},
		[]*Eq{NewEq(Var("x"), ConstInt(1)), NewEq(Var("x"), ConstInt(2))})
	if _, ok := bad.ApplyEqs(); ok {
		t.Error("contradictory eqs accepted")
	}
}

func TestUCQ(t *testing.T) {
	a := MustCQ("A", Vars("x"), []*Atom{NewAtom("R", Var("x"))}, nil)
	b := MustCQ("B", Vars("x"), []*Atom{NewAtom("S", Var("x"), Var("y")), NewAtom("T", Var("y"))}, nil)
	u, err := NewUCQ("U", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 2 {
		t.Errorf("UCQ Size = %d", u.Size())
	}
	c := MustCQ("C", Vars("x", "y"), []*Atom{NewAtom("S", Var("x"), Var("y"))}, nil)
	if _, err := NewUCQ("U", a, c); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestAsCQRejectsNonCQ(t *testing.T) {
	q := MustQuery("Q", []string{"x"}, NewAnd(NewAtom("R", Var("x")), NewNot(NewAtom("S", Var("x")))))
	if _, ok := AsCQ(q); ok {
		t.Error("negation accepted as CQ")
	}
	q2 := MustQuery("Q", []string{"x"}, NewOr(NewAtom("R", Var("x")), NewAtom("S", Var("x"))))
	if _, ok := AsCQ(q2); ok {
		t.Error("disjunction accepted as CQ")
	}
}

func TestAtomsConstantsRelations(t *testing.T) {
	f := q1().Body
	atoms := Atoms(f)
	if len(atoms) != 2 || atoms[0].Rel != "friend" || atoms[1].Rel != "person" {
		t.Errorf("Atoms = %v", atoms)
	}
	consts := Constants(f)
	if len(consts) != 1 || consts[0] != ConstStr("NYC") {
		t.Errorf("Constants = %v", consts)
	}
	rels := Relations(f)
	if !rels["friend"] || !rels["person"] || len(rels) != 2 {
		t.Errorf("Relations = %v", rels)
	}
}
