package plan

import (
	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/store"
)

// Optimizer rewrites a compiled operator tree into a cheaper equivalent.
// It never touches what a plan computes — answers are preserved by
// construction — only how: the order conjunct operators run in, which
// access entry serves each lookup, and whether a fully determined atom is
// probed instead of fetched.
//
// Ordering is exact: conjunct chains (nested NLJoins, with safe-negation
// probes flattened in as filter members) are reordered into the runnable
// order with the smallest estimated cost, found by a depth-first branch
// and bound over all orders (searchOrder) under a placement budget.
// Filters and probes (bound ≈ 1, no new candidates) can run as soon as
// their variables are bound, fetches cost their N per candidate. Costs
// come from the access schema alone, so the order the search picks and
// the static bound the plan reports agree, and reads ≤ M stays a
// guarantee.
//
// Each position propagates bound-variable knowledge sideways: a lookup
// re-selects, among the plain access entries of its relation whose input
// attributes are bound at that point, the one with the smallest N (e.g.
// a key entry instead of a broader secondary entry once the key variable
// is bound by an earlier conjunct), and an atom all of whose variables
// are bound compiles to a MembershipProbe. The rewrite is kept
// only when its estimated cost is strictly below the analysis-emitted
// order's estimate with the analysis-chosen entries — never-worse by
// construction of the estimate.
type Optimizer struct {
	// Acc is the access schema: the catalog of entries available for
	// lookup re-selection.
	Acc *access.Schema
	// Vars is the numbering the plan was compiled against; rewritten
	// operators keep their variable sets over it.
	Vars *Vars
	// Env is what every environment the plan runs under binds beyond the
	// root's Need: a maintenance plan runs with the delta tuple's
	// variables bound as well as the controlling set it was derived for.
	// The root chain's order search starts from Need ∪ Env, so atoms the
	// environment determines become membership probes and lookups take
	// the entries its variables make usable. Zero for a prepared plan,
	// whose environment binds exactly its controlling set.
	Env uint64
}

// Optimize rewrites the tree rooted at n, returning the (possibly new)
// root. Sub-operators not amenable to reordering are recursed into and
// left structurally intact.
func (o *Optimizer) Optimize(n Node) Node { return o.optimize(n, o.Env) }

// optimize rewrites the tree rooted at n, whose environment binds env
// beyond n's Need.
func (o *Optimizer) optimize(n Node, env uint64) Node {
	switch v := n.(type) {
	case *NLJoin, *AntiProbe, *IndexLookup:
		if opt, ok := o.chain(n, env, searchBudget); ok {
			return opt
		}
		// Not a reorderable chain (opaque members): recurse in place.
		switch v := n.(type) {
		case *NLJoin:
			v.L, v.R = o.optimize(v.L, 0), o.optimize(v.R, 0)
		case *AntiProbe:
			v.Pos, v.Neg = o.optimize(v.Pos, 0), o.optimize(v.Neg, 0)
		}
		return n
	case *Project:
		v.Child = o.optimize(v.Child, 0)
		return n
	case *ForallCheck:
		v.Gen, v.Test = o.optimize(v.Gen, 0), o.optimize(v.Test, 0)
		return n
	case *StreamUnion:
		for i, b := range v.Branches {
			v.Branches[i] = o.optimize(b, 0)
		}
		return n
	case *ChaseExec:
		o.reorderChase(v)
		return n
	default:
		return n
	}
}

// reorderChase reschedules a chase's steps greedily by N: at every
// point, a ready equality propagation runs first (free, binds a
// variable), otherwise the ready fetch with the smallest N. A step is
// ready when the chase state already binds what it consumes — all
// variables at a fetch's input positions, at least one side of a
// propagation — which is exactly the condition the analysis-emitted order
// satisfies, so any such schedule chases the same candidates (fetch
// unification filters on already-bound variables regardless of which step
// bound them).
//
// The reorder is kept only under the same never-worse rule as join
// chains: its bound (chaseCost) must strictly beat the emitted order's.
func (o *Optimizer) reorderChase(n *ChaseExec) {
	if len(n.Steps) < 2 {
		return
	}
	seed := n.Need() | n.EqBound
	bound := seed
	used := make([]bool, len(n.Steps))
	order := make([]ChaseStep, 0, len(n.Steps))
	for len(order) < len(n.Steps) {
		best := -1
		var bestN int64
		for i, s := range n.Steps {
			if used[i] || !s.ready(bound) {
				continue
			}
			if s.Atom == nil {
				best = i
				break // free: run it now
			}
			if en := EntryBound(s.Entry); best < 0 || en < bestN {
				best, bestN = i, en
			}
		}
		if best < 0 {
			return // not schedulable greedily: keep the emitted order
		}
		used[best] = true
		s := n.Steps[best]
		if s.Atom != nil {
			s.Binds = s.Proj &^ bound // what it binds first at its new position
		}
		order = append(order, s)
		bound |= s.Proj
	}
	k := len(n.MembershipAtoms)
	if chaseCost(seed, order, k).Reads < chaseCost(seed, n.Steps, k).Reads {
		n.Steps = order
	}
}

// ready reports whether the chase state bound suffices to run s.
func (s *ChaseStep) ready(bound uint64) bool {
	if s.Atom == nil {
		return s.Proj&bound != 0
	}
	return s.On&^bound == 0
}

// member is one flattened conjunct of a join chain.
type member struct {
	node Node
	anti bool // emptiness-probe filter (flattened safe negation)

	// Lookup members (atom != nil) are re-plannable: entry and onPos may
	// be re-selected per position.
	atom  *query.Atom
	args  []int8        // the atom's argument ids
	entry *access.Entry // nil for a membership probe
	onPos []int

	need, out uint64
}

// flatten decomposes a nested NLJoin/AntiProbe tree into its conjunct
// members, in analysis-emitted execution order. ok is false when the
// chain contains a positive member the optimizer cannot reason about
// (anything but lookups, probes and condition filters) — such chains are
// left in analysis order.
func flatten(n Node, out *[]member) (ok bool) {
	switch v := n.(type) {
	case *NLJoin:
		if v.NoDedup {
			return false
		}
		return flatten(v.L, out) && flatten(v.R, out)
	case *AntiProbe:
		if !flatten(v.Pos, out) {
			return false
		}
		*out = append(*out, member{node: v.Neg, anti: true, need: v.Neg.Out()})
		return true
	case *IndexLookup:
		*out = append(*out, member{node: v, atom: v.Atom, args: v.args, entry: &v.Entry, onPos: v.OnPos, need: v.Need(), out: v.Out()})
		return true
	case *MembershipProbe:
		*out = append(*out, member{node: v, atom: v.Atom, args: v.args, need: v.Need(), out: v.Out()})
		return true
	case *Select:
		*out = append(*out, member{node: v, need: v.Need(), out: v.Out()})
		return true
	default:
		return false
	}
}

// searchBudget caps the placements (member × position evaluations) the
// order search makes per chain. It stops backtracking, never the first
// descent, so a chain over budget still gets the greedy order when that
// beats analysis order. A chain of six members needs at most 1 956
// placements, so those are always searched exhaustively; Q2's four
// members need at most 64.
const searchBudget = 4096

// chain attempts the reorder of a join chain rooted at n, whose
// environment binds env beyond n's Need. It returns the rebuilt chain and
// true when the chain was flattenable. The rewrite is the cheapest
// runnable order under the estimate, found by searchOrder, and is kept
// only when its estimate strictly beats the analysis-emitted plan's — on
// a tie or a regression the original tree is returned untouched, so the
// optimized plan is never estimated-worse than what analysis emitted.
// Under a wider environment the analysis order is rebuilt instead, with
// the atoms the environment determines probed: the same order and
// entries, never dearer.
func (o *Optimizer) chain(n Node, env uint64, budget int) (Node, bool) {
	// Optimize within opaque operands (the negated side of anti filters)
	// first, mutating the tree in place: the rewrite survives even when
	// the outer chain keeps its analysis order below.
	o.optimizeNegs(n)
	var members []member
	if !flatten(n, &members) {
		return nil, false
	}
	ctrl := n.Need()
	wider := env&^ctrl != 0
	if len(members) < 2 && !wider {
		return n, true
	}
	cms, ok := o.encode(members)
	if !ok {
		return n, true // too many members for the search's bit masks: analysis order stands
	}
	order, ok := searchOrder(cms, ctrl|env, budget)
	if !ok && (!wider || order == nil) {
		return n, true // analysis order stands, tree untouched
	}
	return o.rebuild(cms, order, ctrl|env, n.Out()), true
}

// optimizeNegs descends a join chain's spine and optimizes every
// AntiProbe's negated operand in place.
func (o *Optimizer) optimizeNegs(n Node) {
	switch v := n.(type) {
	case *NLJoin:
		o.optimizeNegs(v.L)
		o.optimizeNegs(v.R)
	case *AntiProbe:
		o.optimizeNegs(v.Pos)
		v.Neg = o.Optimize(v.Neg)
	}
}

// chainMember is a member encoded once per chain for the order search:
// for a lookup, its atom's variables and every plain entry that could
// serve it, already priced. No placement allocates or consults the
// catalog again.
type chainMember struct {
	member
	free uint64     // the atom's variables (lookups only)
	opts []entryOpt // the analysis entry first, so ties keep it
}

// entryOpt is one access entry a lookup member could fetch through.
type entryOpt struct {
	e     *access.Entry
	onPos []int
	on    uint64 // variables at onPos: the entry is usable once these are bound
	n     int64  // the entry's bound (EntryBound)
}

// step is one access decision: member m at its position in an order,
// fetched through opts[opt] (opt < 0: no fetch — a condition filter, an
// anti filter, or a membership probe of a fully bound atom).
type step struct {
	m, opt int
	cost   Cost // estimated per candidate reaching the operator
}

// encode prices every candidate entry of the chain's members once. It
// returns false for a chain with more than 64 members.
func (o *Optimizer) encode(members []member) ([]chainMember, bool) {
	if len(members) > 64 {
		return nil, false
	}
	cms := make([]chainMember, len(members))
	n := 0
	for _, m := range members {
		if m.entry != nil {
			n += 1 + len(o.Acc.Locate(m.atom.Rel))
		}
	}
	slab := make([]entryOpt, 0, n) // every member's options, in one allocation
	for i, m := range members {
		cm := &cms[i]
		cm.member = m
		if m.atom == nil {
			continue
		}
		cm.free = ArgsMask(m.args)
		if m.entry == nil {
			continue // a MembershipProbe member: no entry to fetch through
		}
		start := len(slab)
		slab = append(slab, entryOpt{e: m.entry, onPos: m.onPos, on: ArgMask(m.args, m.onPos), n: EntryBound(*m.entry)})
		locs := o.Acc.Locate(m.atom.Rel)
		for li := range locs {
			// A whole-key entry is usable only where every variable is
			// bound, and there the atom is probed instead.
			if l := &locs[li]; !l.IsEmbedded() && len(l.On) != len(m.atom.Args) {
				slab = append(slab, entryOpt{e: &l.Entry, onPos: l.OnPos, on: ArgMask(m.args, l.OnPos), n: EntryBound(l.Entry)})
			}
		}
		cm.opts = slab[start:len(slab):len(slab)]
	}
	return cms, true
}

// place makes the access decision for member i at a position where bound
// is bound (head: first in the chain; keep: only the analysis-chosen
// entry may serve a lookup). It reports false where i cannot run.
func place(cms []chainMember, i int, bound uint64, head, keep bool) (step, bool) {
	m := &cms[i]
	s := step{m: i, opt: -1, cost: Probe(1)}
	switch {
	case m.anti:
		// Emptiness probe: requires every variable of the negated operand
		// bound (only then is the per-candidate probe equivalent at any
		// position), and a positive stream to filter, so never the head.
		// Estimated one read: the probe stops at the first witness.
		return s, !head && m.need&^bound == 0
	case m.atom == nil:
		// Condition filter: free.
		s.cost = Probe(0)
		return s, m.need&^bound == 0
	case m.free&^bound == 0:
		return s, true // fully determined: a single membership probe
	}
	opts := m.opts
	if keep {
		opts = opts[:min(1, len(opts))]
	}
	// The usable entry with the smallest N; the analysis
	// entry comes first, so ties keep it.
	var n int64
	for j, e := range opts {
		if e.on&^bound == 0 && (s.opt < 0 || e.n < n) {
			s.opt, n = j, e.n
		}
	}
	if s.opt < 0 {
		return s, false
	}
	s.cost = Fetch(n, m.out&^bound != 0)
	return s, true
}

// orderSearch is a depth-first branch and bound over the runnable orders
// of one chain.
type orderSearch struct {
	cms       []chainMember
	budget    int    // placements left; once spent, backtracking stops
	cur, best []step // the order being built; the incumbent
	bestCost  int64  // the incumbent's estimate: what a new order must beat
	found     bool   // best holds an order strictly below the analysis order
}

// searchOrder returns the cheapest runnable order of the chain under the
// estimate — the Join of the members' step costs in order — provided it
// strictly beats the analysis-emitted order with its analysis-chosen
// entries; otherwise ok is false and the order returned is that analysis
// order (nil when it cannot run from ctrl).
//
// The incumbent starts at the analysis order, and at the analysis order
// with entries re-selected when that is cheaper. Children are expanded in
// greedy preference order — fewest reads, then fewest candidates, then
// analysis position — so the first complete order reached is the greedy
// min-bound-first schedule, and a branch is pruned as soon as its partial
// estimate reaches the incumbent (every later term is non-negative).
func searchOrder(cms []chainMember, ctrl uint64, budget int) ([]step, bool) {
	n := len(cms)
	s := &orderSearch{cms: cms, budget: budget, cur: make([]step, n), best: make([]step, n), bestCost: costCap}
	analysis := false
	if c, ok := s.inAnalysisOrder(ctrl, true); ok {
		s.bestCost, analysis = c, true
		copy(s.best, s.cur)
	}
	if c, ok := s.inAnalysisOrder(ctrl, false); ok && c < s.bestCost {
		s.bestCost, s.found = c, true
		copy(s.best, s.cur)
	}
	s.dfs(0, ctrl, 0, Cost{Candidates: 1}, make([]step, n*(n+1)/2))
	if !s.found && !analysis {
		return nil, false
	}
	return s.best, s.found
}

// inAnalysisOrder places the members in analysis-emitted order into cur
// and returns that order's estimate, or false when some member cannot run
// there.
func (s *orderSearch) inAnalysisOrder(bound uint64, keep bool) (int64, bool) {
	c := Cost{Candidates: 1}
	for i := range s.cms {
		st, ok := place(s.cms, i, bound, i == 0, keep)
		if !ok {
			return 0, false
		}
		s.cur[i] = st
		c = Join(c, st.cost)
		bound |= s.cms[i].out
	}
	return c.Reads, true
}

// dfs extends the order cur[:depth], whose members are used, which binds
// bound and is estimated at c. scratch holds the children lists of this
// level and every level below.
func (s *orderSearch) dfs(depth int, bound, used uint64, c Cost, scratch []step) {
	n := len(s.cms)
	if depth == n {
		s.bestCost, s.found = c.Reads, true // pruning let only a strictly cheaper order through
		copy(s.best, s.cur)
		return
	}
	kids := scratch[:0] // at most n-depth entries: this level's share
	for i := range s.cms {
		if used&(1<<i) != 0 {
			continue
		}
		s.budget--
		st, ok := place(s.cms, i, bound, depth == 0, false)
		if !ok {
			continue
		}
		// Insertion sort by (reads, cands); scanning in analysis order
		// keeps analysis position as the final tie-break.
		j := len(kids)
		kids = append(kids, st)
		for ; j > 0 && (st.cost.Reads < kids[j-1].cost.Reads || st.cost.Reads == kids[j-1].cost.Reads && st.cost.Candidates < kids[j-1].cost.Candidates); j-- {
			kids[j] = kids[j-1]
		}
		kids[j] = st
	}
	for j, st := range kids {
		if j > 0 && s.budget <= 0 {
			return
		}
		t := Join(c, st.cost)
		if t.Reads >= s.bestCost {
			return // kids ascend in reads, so every later sibling prunes too
		}
		s.cur[depth] = st
		s.dfs(depth+1, bound|s.cms[st.m].out, used|1<<st.m, t, scratch[n-depth:])
	}
}

// priceMove is one way to touch an atom in PriceBelow's search: a fetch
// through an access entry of bound n, usable once need is bound, binding
// binds — or a membership probe, with need = binds = the atom's variables
// and n = 1.
type priceMove struct {
	atom        int
	need, binds uint64
	n           int64
	probe       bool
}

// priceSearch is PriceBelow's depth-first branch and bound.
type priceSearch struct {
	moves  []priceMove
	all    uint64 // every atom touched
	limit  int64  // a sequence must cost strictly less
	budget int    // moves left to try; once spent, the search gives up
	// probeFirst: no move has N = 0, so candidates never shrink along a
	// sequence and an atom whose variables are all bound is best probed
	// at once.
	probeFirst bool
}

// PriceBelow reports whether a conjunction of atoms, evaluated with the
// variables of ctrl bound, might cost fewer than limit reads under acc: a
// lower bound on the Bound.Reads of every plan the controllability
// analysis and the optimizer can build for it, checked against limit
// before any of them is built.
//
// The bound is the cheapest sequence of moves touching every atom at
// least once, priced by the plans' own step rule and Join: a fetch
// through any entry of acc (plain, embedded or the implicit membership
// entry) whose X positions are bound or constant is a Fetch step binding
// the variables at X∪Y, and a probe of an atom whose variables are all
// bound is Probe(1). Lookups, membership probes, nested-loop joins and
// chases price as Joins of the same steps in some order, with candidate
// multipliers at least as large (a lookup is Fetch(n, true) even where it
// binds nothing new), so no plan costs less than the cheapest sequence.
//
// The search stops at the first sequence under limit. It answers true
// when it cannot decide — more than 64 atoms or variables, or its budget
// spent — so a caller skipping a candidate on false never skips one that
// could have won.
func PriceBelow(acc *access.Schema, atoms []*query.Atom, ctrl query.VarSet, limit int64) bool {
	if len(atoms) > 64 {
		return true
	}
	vt, err := NumberAtoms(atoms)
	if err != nil {
		return true
	}
	bound := vt.Mask(ctrl)
	moves := make([]priceMove, 0, 4*len(atoms))
	for i, a := range atoms {
		args := vt.Args(i)
		free := ArgsMask(args)
		moves = append(moves, priceMove{atom: i, need: free, binds: free, n: 1, probe: true})
		for _, l := range acc.Locate(a.Rel) {
			if len(l.OnPos) == len(a.Args) && EntryBound(l.Entry) >= 1 {
				continue // a whole-key fetch prices as the probe, or higher
			}
			moves = append(moves, priceMove{atom: i, need: ArgMask(args, l.OnPos), binds: ArgMask(args, l.ProjPos), n: EntryBound(l.Entry)})
		}
	}
	ps := &priceSearch{moves: moves, all: 1<<len(atoms) - 1, limit: limit, budget: searchBudget, probeFirst: true}
	for _, m := range moves {
		ps.probeFirst = ps.probeFirst && m.n > 0
	}
	return ps.dfs(bound, 0, Cost{Candidates: 1})
}

// dfs extends a sequence that bound the variables bound, touched the
// atoms touched and costs c, with c.Reads < limit.
func (ps *priceSearch) dfs(bound, touched uint64, c Cost) bool {
	if touched == ps.all {
		return true
	}
	// An untouched atom whose variables are all bound is touched at some
	// point by a move that binds nothing, at N ≥ 1 reads per candidate
	// then; probing it now costs no more and changes no other move's
	// price, so it is the only branch.
	moves := ps.moves
	if ps.probeFirst {
		for i, m := range moves {
			if m.probe && touched&(1<<m.atom) == 0 && m.need&^bound == 0 {
				moves = moves[i : i+1]
				break
			}
		}
	}
	for _, m := range moves {
		if ps.budget--; ps.budget < 0 {
			return true
		}
		fresh := m.binds &^ bound
		if m.need&^bound != 0 || touched&(1<<m.atom) != 0 && fresh == 0 {
			continue // not runnable, or a second touch that binds nothing
		}
		st := Probe(1)
		if !m.probe {
			st = Fetch(m.n, fresh != 0)
		}
		next := Join(c, st)
		if next.Reads >= ps.limit {
			continue
		}
		if ps.dfs(bound|m.binds, touched|1<<m.atom, next) {
			return true
		}
	}
	return false
}

// rebuild materializes an order as a left-deep operator chain, restoring
// the original output variable set with a final projection when the
// chain's is wider.
func (o *Optimizer) rebuild(cms []chainMember, order []step, ctrl, out uint64) Node {
	var chainNode Node
	for _, st := range order {
		m := &cms[st.m]
		var opNode Node
		switch {
		case m.anti:
			chainNode = NewAntiProbe(o.Vars, chainNode, m.node, ctrl, chainNode.Out())
			continue
		case m.atom == nil:
			opNode = m.node // condition filter, reused as compiled
		case st.opt < 0:
			opNode = NewMembershipProbe(o.Vars, m.atom, m.args)
		default:
			e := m.opts[st.opt]
			opNode = NewIndexLookup(o.Vars, m.atom, m.args, *e.e, e.onPos)
		}
		if chainNode == nil {
			chainNode = opNode
		} else {
			chainNode = NewNLJoin(o.Vars, chainNode, opNode, ctrl, chainNode.Out()|opNode.Out())
		}
	}
	if chainNode.Out() != out {
		return NewProject(o.Vars, chainNode, nil, ctrl, out)
	}
	return chainNode
}

// ResolveRoutes resolves, at plan time, the single-shard vs scatter
// decision of every fetch operator in the tree against the backend: on a
// partitioned backend (store.RoutePlanner) each IndexLookup and chase
// fetch step is annotated RouteSingle (with precomputed key positions) or
// RouteScatter; on a single-node backend everything is RouteLocal. The
// per-call fetch path then never re-derives the decision.
func ResolveRoutes(n Node, b store.Backend) {
	rp, planned := b.(store.RoutePlanner)
	route := func(e access.Entry) store.FetchRoute {
		if planned {
			return rp.PlanFetch(e)
		}
		return store.FetchRoute{}
	}
	var walk func(Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *IndexLookup:
			v.Route = route(v.Entry)
		case *ChaseExec:
			for i := range v.Steps {
				if v.Steps[i].Atom != nil {
					v.Steps[i].Route = route(v.Steps[i].Entry)
				}
			}
		}
		EachChild(n, walk)
	}
	walk(n)
}
