package core

import (
	"fmt"
	"slices"

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
// equals CostOf(d). Its operators' variable sets are masks over the
// analysis numbering d carries.
func Compile(d *Derivation) plan.Node {
	vt, free := d.vars, d.vars.Free(d.pos)
	switch d.Rule {
	case RuleAtom:
		return plan.NewIndexLookup(vt, d.F.(*query.Atom), vt.Args(d.pos), d.Entry, d.OnPos)
	case RuleConditions:
		return plan.NewSelect(vt, d.F, free)
	case RuleConj:
		l, r := Compile(d.Children[0]), Compile(d.Children[1])
		return plan.NewNLJoin(vt, l, r, d.ctrl, free)
	case RuleDisj:
		branches := make([]plan.Node, len(d.Children))
		for i, c := range d.Children {
			branches[i] = Compile(c)
		}
		return plan.NewStreamUnion(vt, branches, d.ctrl, free)
	case RuleSafeNeg:
		pos, neg := Compile(d.Children[0]), Compile(d.Children[1])
		return plan.NewAntiProbe(vt, pos, neg, d.ctrl, free)
	case RuleExists:
		ex := d.F.(*query.Exists)
		return plan.NewProject(vt, Compile(d.Children[0]), ex.Vars, d.ctrl, free)
	case RuleForall:
		fa := d.F.(*query.Forall)
		gen, test := Compile(d.Children[0]), Compile(d.Children[1])
		return plan.NewForallCheck(vt, gen, test, fa.Vars, d.ctrl, free)
	case RuleEmbedded:
		return compileChase(d)
	default:
		panic(fmt.Sprintf("core: compile unknown rule %q", d.Rule))
	}
}

// compileChase translates an embedded-controllability chase plan into its
// executable operator. The steps are copied: routing and the optimizer
// rewrite the operator's, never the derivation's.
func compileChase(d *Derivation) plan.Node {
	cp := d.Chase
	n := plan.NewChaseExec(d.vars, d.ctrl, cp.free)
	n.Atoms = cp.Atoms
	n.MembershipAtoms = cp.MembershipAtoms
	n.EqConsts = cp.EqConsts
	n.EqVars = cp.EqVars
	n.EqBound = cp.constBound
	n.Steps = slices.Clone(cp.Steps)
	return n
}

// compilePlan builds the full physical plan for d against backend b under
// the given optimizer mode: compile, optimize (unless off), resolve
// routes. env is what every environment the plan runs under binds beyond
// d's controlling set: nil for a prepared plan, the delta tuple's
// variables for a maintenance plan, which the optimizer then orders from
// all of them (plan.Optimizer.Env), so the atoms they determine are
// probed.
func compilePlan(d *Derivation, b store.Backend, mode OptimizerMode, env query.VarSet) *Plan {
	root := Compile(d)
	if mode != OptimizerOff && b != nil {
		root = (&plan.Optimizer{Acc: b.Access(), Vars: d.vars, Env: d.vars.Mask(env)}).Optimize(root)
	}
	if b != nil {
		plan.ResolveRoutes(root, b)
	}
	// Operator IDs are assigned after optimization and routing, so the
	// numbering matches the tree EXPLAIN (and EXPLAIN ANALYZE) renders.
	return &Plan{Derivation: d, Bound: root.Bound(), Root: root, Vars: d.vars, Mode: mode, NumOps: plan.AssignOpIDs(root)}
}
