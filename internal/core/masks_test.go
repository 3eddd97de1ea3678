package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestOperatorMasksAgreeWithNames: over the Q1–Q7 pack, thirty random
// social CQs and a hundred random FO formulas (which reach every rule),
// every operator's Out and Need masks name the variable sets the
// name-based computation gives. In a 1:1 compiled plan an operator's
// Out is its formula's FreeVars() and its Need the controlling set
// recomputed by name from the rule; in an optimized plan each operator's
// sets follow from its atom, condition or operands.
func TestOperatorMasksAgreeWithNames(t *testing.T) {
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
	an := core.NewAnalyzer(st.Access())
	srcs := []string{workload.Q1Src, workload.Q2Src, workload.Q3Src, backendtest.Q4Src, backendtest.Q5Src, backendtest.Q6Src, backendtest.Q7Src}
	for seed := int64(0); seed < 30; seed++ {
		srcs = append(srcs, core.RandomSocialCQ(rand.New(rand.NewSource(seed))))
	}
	var fs []query.Formula
	for _, src := range srcs {
		fs = append(fs, goldenQuery(t, src).Body)
	}
	fo := &foGen{rng: rand.New(rand.NewSource(43))}
	for i := 0; i < 100; i++ {
		fs = append(fs, fo.formula(3))
	}
	derivs, ops := 0, 0
	rules := map[core.Rule]bool{}
	for _, f := range fs {
		src := f.String()
		res, err := an.Analyze(f)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, d := range res.Derivs {
			derivs++
			for _, mode := range []core.OptimizerMode{core.OptimizerOff, core.OptimizerOn} {
				p := core.CompilePlan(d, st, mode)
				names := func(m uint64) query.VarSet { return p.Vars.Set(m) }
				if got := names(p.Root.Need()); !got.Equal(d.Ctrl) {
					t.Errorf("%s: root Need %s, derivation controlled by %s", src, got, d.Ctrl)
				}
				if mode == core.OptimizerOff {
					lockstep(t, src, d, p.Root, names, rules)
				}
				ops += checkOperands(t, src, p.Root, names)
			}
		}
	}
	if len(rules) != 8 {
		t.Fatalf("only the rules %v were checked", rules)
	}
	t.Logf("%d derivations, %d operators checked", derivs, ops)
}

// lockstep walks a derivation and its 1:1 compiled plan together and
// checks every operator's Out against its formula's FreeVars() and its
// Need against the controlling set ctrlByName recomputes from the rule.
func lockstep(t *testing.T, src string, d *core.Derivation, n plan.Node, names func(uint64) query.VarSet, rules map[core.Rule]bool) {
	t.Helper()
	rules[d.Rule] = true
	if got, want := names(n.Out()), d.F.FreeVars(); !got.Equal(want) {
		t.Errorf("%s: %s over %s: Out %s, FreeVars %s", src, n.Describe(), d.F, got, want)
	}
	if d.Rule == core.RuleEmbedded {
		// The chase's controlling set is the subset its search found; its
		// other variable sets are checked step by step.
		if got := names(n.Need()); !got.SubsetOf(d.F.FreeVars()) {
			t.Errorf("%s: chase over %s needs %s, outside its free variables", src, d.F, got)
		}
		return
	}
	if got, want := names(n.Need()), ctrlByName(d); !got.Equal(want) {
		t.Errorf("%s: %s [%s] over %s: Need %s, by name %s", src, n.Describe(), d.Rule, d.F, got, want)
	}
	var kids []plan.Node
	plan.EachChild(n, func(c plan.Node) { kids = append(kids, c) })
	if len(kids) != len(d.Children) {
		t.Fatalf("%s: %s has %d operands, its derivation %d children", src, n.Describe(), len(kids), len(d.Children))
	}
	for i, c := range d.Children {
		lockstep(t, src, c, kids[i], names, rules)
	}
}

// ctrlByName recomputes a derivation's controlling set over variable
// names, rule by rule (Section 4).
func ctrlByName(d *core.Derivation) query.VarSet {
	switch d.Rule {
	case core.RuleAtom:
		out := query.NewVarSet()
		for _, p := range d.OnPos {
			if a := d.F.(*query.Atom).Args[p]; a.IsVar() {
				out.Add(a.Name())
			}
		}
		return out
	case core.RuleConditions:
		return d.F.FreeVars()
	case core.RuleConj:
		first, then := d.Children[0], d.Children[1]
		return ctrlByName(first).Union(ctrlByName(then).Minus(first.F.FreeVars()))
	case core.RuleSafeNeg, core.RuleExists:
		return ctrlByName(d.Children[0])
	case core.RuleDisj:
		return ctrlByName(d.Children[0]).Union(ctrlByName(d.Children[1]))
	case core.RuleForall:
		fa := d.F.(*query.Forall)
		return fa.Body.(*query.Implies).L.FreeVars().Minus(query.NewVarSet(fa.Vars...))
	default:
		panic(fmt.Sprintf("no name-based controlling set for rule %s", d.Rule))
	}
}

// checkOperands checks every operator of a plan against its atom,
// condition or operands, and returns the number of operators checked.
func checkOperands(t *testing.T, src string, n plan.Node, names func(uint64) query.VarSet) int {
	t.Helper()
	out, need := names(n.Out()), names(n.Need())
	fail := func(want string) {
		t.Errorf("%s: %s: Out %s, Need %s; want %s", src, n.Describe(), out, need, want)
	}
	atVars := func(a *query.Atom, positions []int) query.VarSet {
		s := query.NewVarSet()
		for _, p := range positions {
			if a.Args[p].IsVar() {
				s.Add(a.Args[p].Name())
			}
		}
		return s
	}
	switch v := n.(type) {
	case *plan.IndexLookup:
		if !out.Equal(v.Atom.FreeVars()) || !need.Equal(atVars(v.Atom, v.OnPos)) {
			fail("the atom's variables and those at OnPos")
		}
	case *plan.MembershipProbe:
		if !out.Equal(v.Atom.FreeVars()) || !need.Equal(out) {
			fail("the atom's variables for both")
		}
	case *plan.Select:
		if !out.Equal(v.Cond.FreeVars()) || !need.Equal(out) {
			fail("the condition's variables for both")
		}
	case *plan.NLJoin:
		if !out.Equal(names(v.L.Out()).Union(names(v.R.Out()))) {
			fail("Out = L.Out ∪ R.Out")
		}
	case *plan.AntiProbe:
		if !out.Equal(names(v.Pos.Out())) {
			fail("Out = Pos.Out")
		}
	case *plan.StreamUnion:
		for _, b := range v.Branches {
			if !names(b.Out()).Equal(out) {
				fail("every branch's Out")
			}
		}
	case *plan.Project:
		child := names(v.Child.Out())
		if len(v.Drop) > 0 && !out.Equal(child.Minus(query.NewVarSet(v.Drop...))) || !out.SubsetOf(child) {
			fail("Out = Child.Out − Drop, or a restriction of Child.Out")
		}
	case *plan.ForallCheck:
		if !out.Equal(names(v.Gen.Out()).Minus(query.NewVarSet(v.Drop...))) {
			fail("Out = Gen.Out − Drop")
		}
	case *plan.ChaseExec:
		bound := need.Clone()
		for name := range v.EqConsts {
			bound.Add(name)
		}
		for _, s := range v.Steps {
			if s.Atom == nil {
				bound.Add(s.EqL)
				bound.Add(s.EqR)
				continue
			}
			want := atVars(s.Atom, s.ProjPos).Minus(bound)
			if got := names(s.Binds); !got.Equal(want) {
				t.Errorf("%s: chase step %s binds %s, want %s", src, s.Atom, got, want)
			}
			bound = bound.Union(atVars(s.Atom, s.ProjPos))
		}
		if !out.SubsetOf(bound) {
			fail("Out bound by the chase")
		}
	}
	count := 1
	plan.EachChild(n, func(c plan.Node) { count += checkOperands(t, src, c, names) })
	return count
}
