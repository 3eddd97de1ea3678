package core

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// This file is the bridge between the analyzer and the physical layer:
// a controllability derivation (the *proof* that bounded evaluation
// exists) compiles into an operator plan (internal/plan — the *how*).
// Compilation is 1:1 — one operator per rule application, in the
// analysis-emitted order — so an unoptimized plan executes exactly the
// derivation; Optimize then reorders conjuncts, re-selects access
// entries sideways and upgrades fully-bound atoms to membership probes,
// and ResolveRoutes pins every fetch's single-shard vs scatter decision
// against the concrete backend.

// Compile translates a derivation into its 1:1 operator plan (analysis
// order, analysis-chosen entries, routing unresolved). The plan's Bound
// equals CostOf(d).
func Compile(d *Derivation) plan.Node {
	switch d.Rule {
	case RuleAtom:
		return plan.NewIndexLookup(d.F.(*query.Atom), d.Entry, d.OnPos, d.Ctrl, d.Free())
	case RuleConditions:
		return plan.NewSelect(d.F)
	case RuleConj:
		l, r := Compile(d.Children[0]), Compile(d.Children[1])
		return plan.NewNLJoin(l, r, d.Ctrl, d.Free())
	case RuleDisj:
		branches := make([]plan.Node, len(d.Children))
		for i, c := range d.Children {
			branches[i] = Compile(c)
		}
		return plan.NewStreamUnion(branches, d.Ctrl, d.Free())
	case RuleSafeNeg:
		pos, neg := Compile(d.Children[0]), Compile(d.Children[1])
		return plan.NewAntiProbe(pos, neg, d.Ctrl, d.Free())
	case RuleExists:
		ex := d.F.(*query.Exists)
		return plan.NewProject(Compile(d.Children[0]), ex.Vars, d.Ctrl, d.Free())
	case RuleForall:
		fa := d.F.(*query.Forall)
		gen, test := Compile(d.Children[0]), Compile(d.Children[1])
		return plan.NewForallCheck(gen, test, fa.Vars, d.Ctrl, d.Free())
	case RuleEmbedded:
		return compileChase(d)
	default:
		panic(fmt.Sprintf("core: compile unknown rule %q", d.Rule))
	}
}

// compileChase translates an embedded-controllability chase plan into its
// executable operator.
func compileChase(d *Derivation) plan.Node {
	cp := d.Chase
	n := plan.NewChaseExec(d.Ctrl)
	n.Atoms = cp.Atoms
	n.MembershipAtoms = cp.MembershipAtoms
	n.Free = cp.Free
	n.EqConsts = cp.EqConsts
	n.EqVars = cp.EqVars
	n.Steps = make([]plan.ChaseStep, len(cp.Steps))
	for i, s := range cp.Steps {
		n.Steps[i] = plan.ChaseStep{
			Atom:     s.Atom,
			AtomIdx:  s.AtomIdx,
			Entry:    s.Entry,
			OnPos:    s.OnPos,
			ProjPos:  s.ProjPos,
			Binds:    s.Binds,
			Verifies: s.Verifies,
			EqL:      s.EqL,
			EqR:      s.EqR,
		}
	}
	return n
}

// compilePlan builds the full physical plan for d against backend b under
// the given optimizer mode: compile, optimize (unless off), resolve
// routes.
func compilePlan(d *Derivation, b store.Backend, mode OptimizerMode) *Plan {
	root := Compile(d)
	if mode != OptimizerOff && b != nil {
		root = (&plan.Optimizer{Acc: b.Access()}).Optimize(root)
	}
	if b != nil {
		plan.ResolveRoutes(root, b)
	}
	// Operator IDs are assigned after optimization and routing, so the
	// numbering matches the tree EXPLAIN (and EXPLAIN ANALYZE) renders.
	return &Plan{Derivation: d, Bound: root.Bound(), Root: root, Mode: mode, NumOps: plan.AssignOpIDs(root)}
}
