package plan

// Exactness of join-chain ordering, against an independent reference:
// the placement rules re-stated over query.VarSet maps (the chain's
// masks turned back into names) and the full
// catalog (Acc.Entries), a brute-force minimum over every permutation,
// and the greedy min-bound-first schedule the search replaced.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// refPlace is the reference access decision for m at a position where
// bound is bound: the optimizer's rules, stated over variable-set maps.
func refPlace(o *Optimizer, m member, bound query.VarSet, head, keep bool) (reads, cands int64, ok bool) {
	need, out := o.Vars.Set(m.need), o.Vars.Set(m.out)
	switch {
	case m.anti:
		return 1, 1, !head && need.SubsetOf(bound)
	case m.atom == nil:
		return 0, 1, need.SubsetOf(bound)
	case m.atom.FreeVars().SubsetOf(bound):
		return 1, 1, true
	case m.entry == nil:
		return 0, 0, false
	}
	usable := func(onPos []int) bool {
		for _, p := range onPos {
			if t := m.atom.Args[p]; t.IsVar() && !bound.Contains(t.Name()) {
				return false
			}
		}
		return true
	}
	best := int64(-1)
	if usable(m.onPos) {
		best = int64(m.entry.N)
	}
	if !keep {
		rs, _ := o.Acc.Relational().Rel(m.atom.Rel)
		for _, e := range o.Acc.Entries() {
			if e.Rel != m.atom.Rel || e.IsEmbedded() {
				continue
			}
			onPos, err := rs.Positions(e.On)
			if err != nil || !usable(onPos) {
				continue
			}
			if n := int64(e.N); best < 0 || n < best {
				best = n
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	cands = 1
	if !out.SubsetOf(bound) {
		cands = best
	}
	return best, cands, true
}

// refPrice is the estimate of running ms in the given order, or false
// when some member cannot run where the order puts it.
func refPrice(o *Optimizer, ms []member, order []int, ctrl query.VarSet, keep bool) (int64, bool) {
	bound := ctrl.Clone()
	cands, total := int64(1), int64(0)
	for k, i := range order {
		r, c, ok := refPlace(o, ms[i], bound, k == 0, keep)
		if !ok {
			return 0, false
		}
		total = SatAdd(total, SatMul(cands, r))
		cands = SatMul(cands, c)
		bound = bound.Union(o.Vars.Set(ms[i].out))
	}
	return total, true
}

// refBruteMin is the smallest estimate over every runnable permutation
// (costCap when none runs).
func refBruteMin(o *Optimizer, ms []member, ctrl query.VarSet) int64 {
	best := int64(costCap)
	order := make([]int, 0, len(ms))
	used := make([]bool, len(ms))
	var perm func()
	perm = func() {
		if len(order) == len(ms) {
			if c, ok := refPrice(o, ms, order, ctrl, false); ok && c < best {
				best = c
			}
			return
		}
		for i := range ms {
			if !used[i] {
				used[i] = true
				order = append(order, i)
				perm()
				order = order[:len(order)-1]
				used[i] = false
			}
		}
	}
	perm()
	return best
}

// refGreedy is the greedy min-bound-first schedule: repeatedly the
// runnable member with the fewest reads, then fewest candidates, then
// earliest analysis position.
func refGreedy(o *Optimizer, ms []member, ctrl query.VarSet) (int64, bool) {
	bound := ctrl.Clone()
	used := make([]bool, len(ms))
	cands, total := int64(1), int64(0)
	for k := 0; k < len(ms); k++ {
		best, br, bc := -1, int64(0), int64(0)
		for i, m := range ms {
			if used[i] {
				continue
			}
			r, c, ok := refPlace(o, m, bound, k == 0, false)
			if ok && (best < 0 || r < br || r == br && c < bc) {
				best, br, bc = i, r, c
			}
		}
		if best < 0 {
			return 0, false
		}
		used[best] = true
		total = SatAdd(total, SatMul(cands, br))
		cands = SatMul(cands, bc)
		bound = bound.Union(o.Vars.Set(ms[best].out))
	}
	return total, true
}

// randomChain builds a random optimizer input over four relations: a
// left-deep chain of lookups (through random analysis entries), condition
// filters and anti filters, controlled by v0 (and sometimes v1), with a
// random access schema.
func randomChain(rng *rand.Rand, members, vars int) (*Optimizer, Node) {
	attrs := []string{"a", "b", "c"}
	var rels []relation.RelSchema
	for r := 0; r < 4; r++ {
		rels = append(rels, relation.MustRelSchema(fmt.Sprintf("r%d", r), attrs[:2+rng.Intn(2)]...))
	}
	acc := access.New(relation.MustSchema(rels...))
	ns := []int{0, 1, 2, 5, 10, 50, 100}
	for _, rs := range rels {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			var on []string
			for _, a := range rs.Attrs {
				if rng.Intn(3) == 0 {
					on = append(on, a)
				}
			}
			e := access.Plain(rs.Name, on, ns[rng.Intn(len(ns))], 1)
			if rng.Intn(6) == 0 {
				e = access.Embedded(rs.Name, on, rs.Attrs, e.N, 1) // never selected by a lookup
			}
			acc.MustAdd(e)
		}
	}
	v := func() query.Term { return query.Var(fmt.Sprintf("v%d", rng.Intn(vars))) }
	ctrl := query.NewVarSet("v0")
	if rng.Intn(2) == 0 {
		ctrl = ctrl.Add("v1")
	}
	// Draw the members by name first, then number them and build the
	// chain over the numbering.
	type spec struct {
		kind  int // 0 lookup, 1 condition, 2 anti filter
		f     query.Formula
		e     access.Entry
		onPos []int
	}
	var specs []spec
	bound := query.NewVarSet() // the variables the chain so far binds
	for k := 0; k < members; k++ {
		switch x := rng.Intn(10); {
		case x == 0 && k > 0:
			eq := query.NewEq(v(), v())
			specs = append(specs, spec{kind: 1, f: eq})
			bound = bound.Union(eq.FreeVars())
		case x == 1 && k > 0 && !bound.IsEmpty():
			// Negate an atom over variables the chain so far binds, so the
			// filter is runnable somewhere.
			rs := rels[rng.Intn(len(rels))]
			names := bound.Sorted()
			args := make([]query.Term, rs.Arity())
			for i := range args {
				args[i] = query.Var(names[rng.Intn(len(names))])
			}
			specs = append(specs, spec{kind: 2, f: query.NewAtom(rs.Name, args...)})
		default:
			rs := rels[rng.Intn(len(rels))]
			args := make([]query.Term, rs.Arity())
			for i := range args {
				if args[i] = v(); rng.Intn(6) == 0 {
					args[i] = query.ConstInt(7)
				}
			}
			a := query.NewAtom(rs.Name, args...)
			var plain []access.Entry
			for _, e := range acc.ForRel(rs.Name) {
				if !e.IsEmbedded() {
					plain = append(plain, e)
				}
			}
			e := plain[rng.Intn(len(plain))]
			onPos, err := rs.Positions(e.On)
			if err != nil {
				panic(err)
			}
			specs = append(specs, spec{f: a, e: e, onPos: onPos})
			bound = bound.Union(a.FreeVars())
		}
	}
	var nb numbering
	nb.start()
	pos := make([]int, len(specs))
	for i, sp := range specs {
		pos[i] = len(nb.nodes)
		nb.add(sp.f)
	}
	vt, err := nb.done()
	if err != nil {
		panic(err)
	}
	o := &Optimizer{Acc: acc, Vars: vt}
	need := vt.Mask(ctrl)
	var root Node
	for i, sp := range specs {
		var op Node
		switch sp.kind {
		case 1:
			op = NewSelect(vt, sp.f, vt.Free(pos[i]))
		case 2:
			root = NewAntiProbe(vt, root, NewMembershipProbe(vt, sp.f.(*query.Atom), vt.Args(pos[i])), need, root.Out())
			continue
		default:
			op = NewIndexLookup(vt, sp.f.(*query.Atom), vt.Args(pos[i]), sp.e, sp.onPos)
		}
		if root == nil {
			root = op
		} else {
			root = NewNLJoin(vt, root, op, need, root.Out()|op.Out())
		}
	}
	return o, root
}

// chosenEstimate prices what chain returned for root: the rebuilt order
// with the entries it selected, or — tree untouched — the analysis
// order with the analysis-chosen entries.
func chosenEstimate(t *testing.T, o *Optimizer, root, got Node, ms []member) int64 {
	t.Helper()
	ctrl := o.Vars.Set(root.Need())
	if got == root {
		c, ok := refPrice(o, ms, identity(len(ms)), ctrl, true)
		if !ok {
			return costCap
		}
		return c
	}
	if p, ok := got.(*Project); ok {
		got = p.Child
	}
	var rebuilt []member
	if !flatten(got, &rebuilt) || len(rebuilt) != len(ms) {
		t.Fatalf("rebuilt chain does not flatten to %d members:\n%s", len(ms), Explain(got))
	}
	c, ok := refPrice(o, rebuilt, identity(len(rebuilt)), ctrl, true)
	if !ok {
		t.Fatalf("rebuilt chain is not runnable in its own order:\n%s", Explain(got))
	}
	return c
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestChainOrderExact: on random chains of up to six members the chosen
// order's estimate is the brute-force minimum over all permutations (or
// the analysis order's, when nothing strictly beats it), never above the
// greedy schedule and never above the analysis order. Under a budget of
// one placement the result is still no worse than either.
func TestChainOrderExact(t *testing.T) {
	beatGreedy, reordered := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		members := 2 + int(seed%5)
		for _, budget := range []int{searchBudget, 1} {
			o, root := randomChain(rand.New(rand.NewSource(seed)), members, 6)
			var ms []member
			if !flatten(root, &ms) {
				t.Fatalf("seed %d: generated chain does not flatten", seed)
			}
			ctrl := o.Vars.Set(root.Need())
			baseline, ok := refPrice(o, ms, identity(len(ms)), ctrl, true)
			if !ok {
				baseline = costCap
			}
			greedy, greedyOK := refGreedy(o, ms, ctrl)
			got, ok := o.chain(root, 0, budget)
			if !ok {
				t.Fatalf("seed %d: chain refused a flattenable chain", seed)
			}
			chosen := chosenEstimate(t, o, root, got, ms)
			if chosen > baseline {
				t.Fatalf("seed %d budget %d: chosen %d above analysis order %d", seed, budget, chosen, baseline)
			}
			if greedyOK && chosen > greedy {
				t.Fatalf("seed %d budget %d: chosen %d above greedy %d\n%s", seed, budget, chosen, greedy, Explain(got))
			}
			if budget != searchBudget {
				continue
			}
			want := min(refBruteMin(o, ms, ctrl), baseline)
			if chosen != want {
				t.Fatalf("seed %d: chosen estimate %d, brute-force minimum %d (analysis %d)\nchosen:\n%s\nanalysis:\n%s",
					seed, chosen, want, baseline, Explain(got), Explain(root))
			}
			if got != root {
				reordered++
			}
			if greedyOK && chosen < greedy {
				beatGreedy++
			}
		}
	}
	if reordered == 0 || beatGreedy == 0 {
		t.Fatalf("generator too weak: %d reordered, %d strictly below greedy", reordered, beatGreedy)
	}
	t.Logf("600 chains: %d reordered, %d strictly below greedy", reordered, beatGreedy)
}

// TestChainOrderOverBudget: a ten-member chain exceeds the placement
// budget; the search still returns an order no worse than the greedy
// schedule or the analysis order.
func TestChainOrderOverBudget(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		o, root := randomChain(rand.New(rand.NewSource(seed)), 10, 9)
		var ms []member
		flatten(root, &ms)
		ctrl := o.Vars.Set(root.Need())
		baseline, ok := refPrice(o, ms, identity(len(ms)), ctrl, true)
		if !ok {
			baseline = costCap
		}
		got, _ := o.chain(root, 0, searchBudget)
		chosen := chosenEstimate(t, o, root, got, ms)
		if chosen > baseline {
			t.Fatalf("seed %d: chosen %d above analysis order %d", seed, chosen, baseline)
		}
		if greedy, ok := refGreedy(o, ms, ctrl); ok && chosen > greedy {
			t.Fatalf("seed %d: chosen %d above greedy %d", seed, chosen, greedy)
		}
	}
}
