package plan

import (
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// IndexLookup fetches the group σ_X=ā(R) licensed by Entry for every
// candidate environment: one bounded indexed retrieval, unified against
// the atom and deduplicated over the atom's variables. When the
// environment happens to bind every variable of the atom, the lookup
// degrades to a single membership probe at run time (one read instead of
// a group fetch) — the plan-time MembershipProbe operator is compiled
// when that is known statically.
//
// Route is the plan-time routing decision on a partitioned backend:
// RouteSingle executes on exactly one shard (key positions precomputed),
// RouteScatter fans out. Op renders as ScatterFetch in that case — same
// mechanics, different physical footprint.
type IndexLookup struct {
	opID
	Atom  *query.Atom
	Entry access.Entry
	OnPos []int // positions (within the atom) of Entry.On
	Route store.FetchRoute

	varSets        // Need: the variables at OnPos; Out: the atom's
	args    []int8 // the atom's argument ids
}

// NewIndexLookup builds the lookup operator over vt; args are the atom's
// argument ids in vt.
func NewIndexLookup(vt *Vars, a *query.Atom, args []int8, e access.Entry, onPos []int) *IndexLookup {
	return &IndexLookup{Atom: a, Entry: e, OnPos: onPos, varSets: newVarSets(vt, ArgMask(args, onPos), ArgsMask(args)), args: args}
}

// Bound implements Node: at most N candidates, at most N reads.
func (n *IndexLookup) Bound() Cost { return Fetch(EntryBound(n.Entry), true) }

// Describe implements Node.
func (n *IndexLookup) Describe() string {
	name := "IndexLookup"
	if n.Route.Kind == store.RouteScatter {
		name = "ScatterFetch"
	}
	s := fmt.Sprintf("%s %s via %s", name, n.Atom, n.Entry.String())
	if n.Route.Kind == store.RouteSingle {
		s += " [single-shard]"
	}
	return s
}

// Stream implements Node.
func (n *IndexLookup) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *IndexLookup) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	// Fully specified atom under env: a single membership probe suffices —
	// at most one binding, so no dedup wrapper.
	if allBound(env, n.outNames) {
		return probeAtom(rt, n.id, n.Atom, env, n.outNames)
	}
	return dedupSeq(func(yield func(query.Bindings, error) bool) {
		vals, err := TupleForPositions(n.Atom, n.OnPos, env)
		if err != nil {
			yield(nil, err)
			return
		}
		tuples, err := rt.Fetch(n.id, n.Entry, vals, n.Route)
		if err != nil {
			yield(nil, err)
			return
		}
		for _, tu := range tuples {
			b, ok := UnifyAtom(n.Atom, tu, env)
			if ok && !yield(b, nil) {
				return
			}
		}
	}, n.outNames)
}

// probeAtom runs the fully-bound membership probe shared by IndexLookup's
// runtime fast path and the MembershipProbe operator; op is the id of the
// operator the probe is charged to.
func probeAtom(rt Runtime, op int, a *query.Atom, env query.Bindings, free []string) Seq {
	return func(yield func(query.Bindings, error) bool) {
		t := make(relation.Tuple, len(a.Args))
		for i, arg := range a.Args {
			if arg.IsVar() {
				t[i] = env[arg.Name()]
			} else {
				t[i] = arg.Value()
			}
		}
		ok, err := rt.Member(op, a.Rel, t)
		if err != nil {
			yield(nil, err)
			return
		}
		if ok {
			yield(restrict(env, free), nil)
		}
	}
}

// MembershipProbe checks a fully bound atom with a single tuple-presence
// probe: the physical form of an atom every variable of which is already
// bound when the operator runs. One membership charged, one read when
// present, at most one candidate out.
type MembershipProbe struct {
	opID
	Atom    *query.Atom
	varSets        // Need and Out: every variable of the atom
	args    []int8 // the atom's argument ids
}

// NewMembershipProbe builds the probe operator over vt; args are the
// atom's argument ids in vt.
func NewMembershipProbe(vt *Vars, a *query.Atom, args []int8) *MembershipProbe {
	free := ArgsMask(args)
	return &MembershipProbe{Atom: a, varSets: newVarSets(vt, free, free), args: args}
}

// Bound implements Node.
func (n *MembershipProbe) Bound() Cost { return Probe(1) }

// Describe implements Node.
func (n *MembershipProbe) Describe() string {
	return fmt.Sprintf("MembershipProbe %s", n.Atom)
}

// Stream implements Node.
func (n *MembershipProbe) Stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	return traced(rt, n.id, probeAtom(rt, n.id, n.Atom, env, n.outNames))
}

// Select filters the environment through an equality-only condition (a
// Boolean combination of equalities and truth constants): no data access,
// at most one candidate out.
type Select struct {
	opID
	Cond    query.Formula
	varSets // Need and Out: the condition's free variables
}

// NewSelect builds the condition filter; free is f's free variables in
// vt. Conditions are controlled by all their variables.
func NewSelect(vt *Vars, f query.Formula, free uint64) *Select {
	return &Select{Cond: f, varSets: newVarSets(vt, free, free)}
}

// Bound implements Node.
func (n *Select) Bound() Cost { return Probe(0) }

// Describe implements Node.
func (n *Select) Describe() string { return fmt.Sprintf("Select %s", n.Cond) }

// Stream implements Node.
func (n *Select) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *Select) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	if !allBound(env, n.outNames) {
		return failSeq(fmt.Errorf("plan: Select with unbound variables %s", query.NewVarSet(n.outNames...).Minus(env.Vars())))
	}
	ok, err := evalEqOnly(n.Cond, env)
	if err != nil {
		return failSeq(err)
	}
	if !ok {
		return emptySeq
	}
	b := restrict(env, n.outNames)
	return func(yield func(query.Bindings, error) bool) {
		yield(b, nil)
	}
}

// NLJoin pipelines a nested-loop join: for every binding of L, R's cursor
// is opened under the extended environment — R's fetches happen only when
// (and if) the consumer pulls this far. Output bindings are defined on
// out (normally L.Out ∪ R.Out, or the enclosing formula's free variables)
// and deduplicated unless NoDedup is set (the naive evaluator's joins
// deduplicate only at the head).
type NLJoin struct {
	opID
	L, R    Node
	NoDedup bool

	varSets
}

// NewNLJoin builds the join; ctrl is the controlling set of the
// conjunction, out the variable set of the joined bindings, both over vt.
func NewNLJoin(vt *Vars, l, r Node, ctrl, out uint64) *NLJoin {
	return &NLJoin{L: l, R: r, varSets: newVarSets(vt, ctrl, out)}
}

// Bound implements Node: R runs once per L candidate.
func (n *NLJoin) Bound() Cost { return Join(n.L.Bound(), n.R.Bound()) }

// Describe implements Node.
func (n *NLJoin) Describe() string { return "NLJoin" }

// Stream implements Node.
func (n *NLJoin) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *NLJoin) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	inner := func(yield func(query.Bindings, error) bool) {
		for b0, err := range n.L.Stream(rt, env) {
			if err != nil {
				yield(nil, err)
				return
			}
			merged := mergedWith(env, b0)
			for b1, err := range n.R.Stream(rt, merged) {
				if err != nil {
					yield(nil, err)
					return
				}
				// Conflict-check the two sides, then build the output binding
				// directly over n.out (precedence R, L, env): one map per
				// answer instead of a scratch union plus a merged environment
				// plus its restriction.
				conflict := false
				for k, v := range b1 {
					if prev, ok := b0[k]; ok && !prev.Equal(v) {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				if !yield(restrictMerged(n.outNames, b1, b0, env), nil) {
					return
				}
			}
		}
	}
	if n.NoDedup {
		return inner
	}
	return dedupSeq(inner, n.outNames)
}

// StreamUnion chains its operands' cursors with streaming cross-branch
// deduplication: an answer produced by an earlier branch is suppressed
// when a later one re-derives it, without materializing either side — and
// an early-terminating consumer never opens the cursors of later
// branches.
type StreamUnion struct {
	opID
	Branches []Node

	varSets
}

// NewStreamUnion builds the union; all branches yield bindings over out.
func NewStreamUnion(vt *Vars, branches []Node, ctrl, out uint64) *StreamUnion {
	return &StreamUnion{Branches: branches, varSets: newVarSets(vt, ctrl, out)}
}

// Bound implements Node: candidates and reads add across branches.
func (n *StreamUnion) Bound() Cost {
	var c Cost
	for _, b := range n.Branches {
		c = Union(c, b.Bound())
	}
	return c
}

// Describe implements Node.
func (n *StreamUnion) Describe() string { return "StreamUnion (dedup)" }

// Stream implements Node.
func (n *StreamUnion) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *StreamUnion) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	return dedupSeq(func(yield func(query.Bindings, error) bool) {
		for _, c := range n.Branches {
			for b, err := range c.Stream(rt, env) {
				if err != nil {
					yield(nil, err)
					return
				}
				if !yield(b, nil) {
					return
				}
			}
		}
	}, n.outNames)
}

// AntiProbe implements safe negation Q ∧ ¬Q′ as an emptiness probe: for
// every binding of Pos, Neg's cursor is pulled for at most one witness —
// the binding passes iff none exists. A satisfied negation stops charging
// as soon as any counterexample is read.
type AntiProbe struct {
	opID
	Pos, Neg Node

	varSets
}

// NewAntiProbe builds the probe; out is the positive side's variable set.
func NewAntiProbe(vt *Vars, pos, neg Node, ctrl, out uint64) *AntiProbe {
	return &AntiProbe{Pos: pos, Neg: neg, varSets: newVarSets(vt, ctrl, out)}
}

// Bound implements Node: as the positive side, plus one probe of the
// negated plan per candidate (whose worst case is its full bound).
func (n *AntiProbe) Bound() Cost { return Anti(n.Pos.Bound(), n.Neg.Bound()) }

// Describe implements Node.
func (n *AntiProbe) Describe() string { return "AntiProbe (EmptinessProbe of ¬)" }

// Stream implements Node.
func (n *AntiProbe) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *AntiProbe) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	return dedupSeq(func(yield func(query.Bindings, error) bool) {
		for b, err := range n.Pos.Stream(rt, env) {
			if err != nil {
				yield(nil, err)
				return
			}
			nonEmpty, err := firstOf(n.Neg.Stream(rt, mergedWith(env, b)))
			if err != nil {
				yield(nil, err)
				return
			}
			if nonEmpty {
				continue
			}
			if !yield(restrictMerged(n.outNames, b, env), nil) {
				return
			}
		}
	}, n.outNames)
}

// Project restricts bindings to a target variable set, deduplicating: the
// physical form of existential quantification (the dropped variables are
// the quantified ones) and of the optimizer's final restriction after a
// reordered join chain.
type Project struct {
	opID
	Child Node
	// Drop lists variables removed from the environment before the child
	// runs (the quantified variables; empty for a pure restriction).
	Drop []string

	varSets
}

// NewProject builds the projection.
func NewProject(vt *Vars, child Node, drop []string, ctrl, out uint64) *Project {
	return &Project{Child: child, Drop: drop, varSets: newVarSets(vt, ctrl, out)}
}

// Bound implements Node.
func (n *Project) Bound() Cost { return n.Child.Bound() }

// Describe implements Node.
func (n *Project) Describe() string {
	return fmt.Sprintf("Project [%s]", strings.Join(n.outNames, ","))
}

// Stream implements Node.
func (n *Project) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *Project) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	inner := env
	if len(n.Drop) > 0 {
		inner = env.Clone()
		for _, z := range n.Drop {
			delete(inner, z)
		}
	}
	// Identity projection (the optimizer's final restriction after a join
	// chain whose output already is n.out): pass child bindings through
	// untouched. Bindings are read-only once yielded, so sharing is safe —
	// StreamUnion relies on the same property.
	ident := n.out == n.Child.Out()
	return dedupSeq(func(yield func(query.Bindings, error) bool) {
		for b, err := range n.Child.Stream(rt, inner) {
			if err != nil {
				yield(nil, err)
				return
			}
			if !ident {
				b = restrict(b, n.outNames)
			}
			if !yield(b, nil) {
				return
			}
		}
	}, n.outNames)
}

// ForallCheck implements the universal rule ∀ȳ (Q → Q′): it streams the
// generator Q's bindings and probes Q′ for a single witness under each,
// failing fast on the first ȳ with none. At most one binding (the
// restriction of the environment) is yielded.
type ForallCheck struct {
	opID
	Gen, Test Node
	// Drop lists the universally quantified variables.
	Drop []string

	varSets
}

// NewForallCheck builds the check.
func NewForallCheck(vt *Vars, gen, test Node, drop []string, ctrl, out uint64) *ForallCheck {
	return &ForallCheck{Gen: gen, Test: test, Drop: drop, varSets: newVarSets(vt, ctrl, out)}
}

// Bound implements Node: the test runs once per generated candidate.
func (n *ForallCheck) Bound() Cost { return Forall(n.Gen.Bound(), n.Test.Bound()) }

// Describe implements Node.
func (n *ForallCheck) Describe() string { return "ForallCheck (EmptinessProbe per ȳ)" }

// Stream implements Node.
func (n *ForallCheck) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *ForallCheck) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	inner := env.Clone()
	for _, y := range n.Drop {
		delete(inner, y)
	}
	return func(yield func(query.Bindings, error) bool) {
		for b, err := range n.Gen.Stream(rt, inner) {
			if err != nil {
				yield(nil, err)
				return
			}
			nonEmpty, err := firstOf(n.Test.Stream(rt, mergedWith(inner, b)))
			if err != nil {
				yield(nil, err)
				return
			}
			if !nonEmpty {
				return // some ȳ satisfies Q but not Q′
			}
		}
		yield(restrict(env, n.outNames), nil)
	}
}

// NaiveScan is the naive evaluator's leaf: a full scan of the atom's
// relation, each tuple unified against the atom under the current
// environment. It has no bounded cost — it is never part of a bounded
// plan — and reports a saturated read bound.
type NaiveScan struct {
	opID
	Atom    *query.Atom
	varSets // Need: nothing; Out: the atom's variables
}

// NewNaiveScan builds the scan leaf over vt; args are the atom's argument
// ids in vt.
func NewNaiveScan(vt *Vars, a *query.Atom, args []int8) *NaiveScan {
	return &NaiveScan{Atom: a, varSets: newVarSets(vt, 0, ArgsMask(args))}
}

// Bound implements Node: unbounded (saturated) — naive scans grow with
// |D|.
func (n *NaiveScan) Bound() Cost { return Cost{Candidates: costCap, Reads: costCap} }

// Describe implements Node.
func (n *NaiveScan) Describe() string { return fmt.Sprintf("NaiveScan %s", n.Atom) }

// Stream implements Node: no deduplication — the naive join deduplicates
// only at the head, exactly like the reference backtracking evaluator.
func (n *NaiveScan) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *NaiveScan) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	return func(yield func(query.Bindings, error) bool) {
		if ks, ok := rt.(KeyedScanner); ok {
			if pos, vals := n.keyArgs(env); len(pos) > 0 {
				ts, err := ks.ScanKeyed(n.id, n.Atom.Rel, pos, vals)
				if err != nil {
					yield(nil, err)
					return
				}
				for _, tu := range ts {
					b, ok := UnifyAtom(n.Atom, tu, env)
					if ok && !yield(b, nil) {
						return
					}
				}
				return
			}
		}
		for tu, err := range rt.Scan(n.id, n.Atom.Rel) {
			if err != nil {
				yield(nil, err)
				return
			}
			b, ok := UnifyAtom(n.Atom, tu, env)
			if ok && !yield(b, nil) {
				return
			}
		}
	}
}

// keyArgs returns the argument positions whose value is known before the
// scan — constants and variables bound in env — with those values.
func (n *NaiveScan) keyArgs(env query.Bindings) ([]int, []relation.Value) {
	var pos []int
	var vals []relation.Value
	for i, a := range n.Atom.Args {
		var v relation.Value
		ok := !a.IsVar()
		if ok {
			v = a.Value()
		} else {
			v, ok = env[a.Name()]
		}
		if ok {
			pos = append(pos, i)
			vals = append(vals, v)
		}
	}
	return pos, vals
}
