package core

// Property test for the cost-based optimizer (ISSUE 4): over randomized
// conjunctive queries (with optional safe negation) on the social schema,
// the optimizer-on and optimizer-off engines must produce identical
// answer sets, the optimized execution must never charge more TupleReads
// than the analysis order, both must respect their static bounds, and
// the witness set D_Q must stay a correct witness: when the optimizer
// leaves the access order unchanged the witness is bit-identical, and
// when it reorders, naive re-evaluation of the query over D_Q alone
// reproduces the full answer set (Q(ā, D) = Q(ā, D_Q)).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// randomSocialCQ builds a random conjunctive query (optionally with one
// safe negation) over the social schema, controlled by p. The shapes are
// friend/visit expansions hung off p with person/restr lookups, the
// workload's serving patterns scrambled.
func randomSocialCQ(rng *rand.Rand) string {
	cities := []string{"'NYC'", "'LA'", "'SF'"}
	var conj []string
	var exVars []string
	persons := []string{"p"}

	nf := 1 + rng.Intn(2) // 1–2 friend hops
	cur := "p"
	for i := 0; i < nf; i++ {
		f := fmt.Sprintf("f%d", i)
		conj = append(conj, fmt.Sprintf("friend(%s, %s)", cur, f))
		exVars = append(exVars, f)
		persons = append(persons, f)
		cur = f
	}
	head := []string{"p"}
	// Attach person lookups (filter by a random city constant, or bind the
	// name into the head).
	for i, v := range persons[1:] {
		switch rng.Intn(3) {
		case 0:
			conj = append(conj, fmt.Sprintf("person(%s, n%d, %s)", v, i, cities[rng.Intn(len(cities))]))
			exVars = append(exVars, fmt.Sprintf("n%d", i))
		case 1:
			conj = append(conj, fmt.Sprintf("person(%s, n%d, c%d)", v, i, i))
			exVars = append(exVars, fmt.Sprintf("n%d", i), fmt.Sprintf("c%d", i))
		}
	}
	// A visit + restaurant expansion off one of the bound persons.
	if rng.Intn(2) == 0 {
		v := persons[rng.Intn(len(persons))]
		conj = append(conj, fmt.Sprintf("visit(%s, r0, yy0, mm0, dd0)", v))
		exVars = append(exVars, "r0", "yy0", "mm0", "dd0")
		if rng.Intn(2) == 0 {
			conj = append(conj, "restr(r0, rn0, rc0, rr0)")
			exVars = append(exVars, "rc0", "rr0")
			head = append(head, "rn0")
			exVars = append(exVars, "") // placeholder removed below
			exVars = exVars[:len(exVars)-1]
		}
	}
	// One safe negation on a bound person variable.
	if rng.Intn(2) == 0 {
		v := persons[1+rng.Intn(len(persons)-1)]
		conj = append(conj, fmt.Sprintf("not (exists nn (person(%s, nn, %s)))", v, cities[rng.Intn(len(cities))]))
	}
	if len(head) == 1 {
		// Expose the last friend variable instead of quantifying it.
		last := persons[len(persons)-1]
		head = append(head, last)
		for i, v := range exVars {
			if v == last {
				exVars = append(exVars[:i], exVars[i+1:]...)
				break
			}
		}
	}
	body := strings.Join(conj, " and ")
	if len(exVars) > 0 {
		body = fmt.Sprintf("exists %s (%s)", strings.Join(exVars, ", "), body)
	}
	return fmt.Sprintf("QR(%s) := %s", strings.Join(head, ", "), body)
}

// usesUntracedAccess reports whether the plan contains chase steps
// through embedded entries, whose fetches are served by covering indices
// and deliberately not recorded in the witness trace — D_Q re-evaluation
// is not meaningful for those plans.
func usesUntracedAccess(n plan.Node) bool {
	if ch, ok := n.(*plan.ChaseExec); ok {
		for _, s := range ch.Steps {
			if s.Atom != nil && s.Entry.IsEmbedded() {
				return true
			}
		}
	}
	untraced := false
	plan.EachChild(n, func(c plan.Node) { untraced = untraced || usesUntracedAccess(c) })
	return untraced
}

// socialEngine opens the workload's social store (default access schema:
// friend N=50, visit-by-id N=68, restr-by-city N=34) under an optimizer-on
// engine.
func socialEngine(t *testing.T, persons int) *Engine {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(st)
}

// mustRuleOrQ parses a query in rule form (Q2Src) or formula form.
func mustRuleOrQ(t testing.TB, src string) *query.Query {
	t.Helper()
	cq, err := parser.ParseCQ(src)
	if err != nil {
		return mustQ(t, src)
	}
	q, err := cq.Query()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestQ2Q3HoistNYCFilter pins the exact order search on the paper's
// headline queries: the N=1 person filter runs before the ×68 visit
// expansion. (Greedy min-bound-first opened with restr-by-city, N=34 <
// friend's 50, blew up, and fell back to the analysis order
// friend, visit, person, restr at bound 10 250.)
func TestQ2Q3HoistNYCFilter(t *testing.T) {
	eng := socialEngine(t, 200)
	want := []string{"friend(p, id)", "person(id, pn, 'NYC')", "visit(id, rid, yy, mm, dd)", "restr(rid, rn, 'NYC', 'A')"}
	for _, tc := range []struct {
		src  string
		ctrl query.VarSet
	}{
		{workload.Q2Src, query.NewVarSet("p")},
		{workload.Q3Src, query.NewVarSet("p", "yy")},
	} {
		q := mustRuleOrQ(t, tc.src)
		prep, err := eng.Prepare(q, tc.ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.AtomOrder(prep.Plan().Root); !slices.Equal(got, want) {
			t.Errorf("%s: order %v, want %v", q.Name, got, want)
		}
		if got := prep.Plan().Root.Bound().Reads; got != 6900 {
			t.Errorf("%s: bound %d reads, want 6900\n%s", q.Name, got, prep.Explain())
		}
	}
}

// TestQ2DeltaPlanBounds pins the static bounds of the maintenance plans
// Watch compiles for Q2 (one per atom occurrence, plus the deletion
// re-verification plan). They go through the same optimizer, so a chain
// falling back to analysis order fails here rather than only reading
// more. The greedy column is what greedy min-bound-first chose. The
// occurrence plans are ordered from everything the delta binds (p and
// the atom's variables): ordered from the derivation's minimal set {p}
// instead, Δvisit fetched friend(p, id) through friend(id1) and restr
// through restr(city) at 1 800 reads, and Δperson cost 6 850.
func TestQ2DeltaPlanBounds(t *testing.T) {
	eng := socialEngine(t, 200)
	prep, err := eng.Prepare(mustRuleOrQ(t, workload.Q2Src), query.NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := newLiveMaintainer(prep, query.Bindings{"p": relation.Int(3)}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rel          string
		want, greedy int64
	}{
		{"friend", 137, 2347},
		{"visit", 3, 3},
		{"person", 137, 137},
		{"restr", 3500, 3500},
	} {
		ops := m.ps.occs[tc.rel]
		if len(ops) != 1 {
			t.Fatalf("%s: %d maintenance plans, want 1", tc.rel, len(ops))
		}
		if got := ops[0].plan.Bound.Reads; got != tc.want {
			t.Errorf("Δ%s plan bound %d reads, want %d (greedy: %d)\n%s", tc.rel, got, tc.want, tc.greedy, plan.Explain(ops[0].plan.Root))
		}
	}
	if m.ps.verify == nil {
		t.Fatal("Q2 watched for p must support deletions")
	}
	if got := m.ps.verify.Bound.Reads; got != 6900 {
		t.Errorf("verification plan bound %d reads, want 6900 (greedy: 10250)", got)
	}
}

func TestOptimizerPropertyRandomCQs(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 160
	cfg.Seed = 5
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	engOpt, engOff := NewEngine(st), NewEngine(st)
	engOff.SetOptimizer(OptimizerOff)
	ctx := context.Background()

	controllable, reordered := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomSocialCQ(rng)
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable query %q: %v", seed, src, err)
		}
		prepOpt, err := engOpt.Prepare(q, query.NewVarSet("p"))
		if errors.Is(err, ErrNotControllable) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prepOff, err := engOff.Prepare(q, query.NewVarSet("p"))
		if err != nil {
			t.Fatalf("seed %d: analysis-order prepare failed where optimized succeeded: %v", seed, err)
		}
		controllable++
		sameOrder := strings.Join(plan.AtomOrder(prepOpt.Plan().Root), ";") ==
			strings.Join(plan.AtomOrder(prepOff.Plan().Root), ";")
		if !sameOrder {
			reordered++
		}
		// Reads are compared as totals over the sampled bindings: a static
		// reorder cannot be pointwise-never-worse (an N=1 lookup hoisted
		// before a fan-out loses by one read on a binding whose fan-out
		// happens to be empty), but over a workload the cost-ordered plan
		// must not read more than the analysis order.
		var totalOpt, totalOff int64
		for i := 0; i < 8; i++ {
			fixed := query.Bindings{"p": relation.Int(int64((i*31 + int(seed)*7) % cfg.Persons))}
			ansOpt, err := prepOpt.Exec(ctx, fixed)
			if err != nil {
				t.Fatalf("seed %d %q %v: %v", seed, src, fixed, err)
			}
			ansOff, err := prepOff.Exec(ctx, fixed)
			if err != nil {
				t.Fatalf("seed %d %q %v (analysis order): %v", seed, src, fixed, err)
			}
			if !ansOpt.Tuples.Equal(ansOff.Tuples) {
				t.Fatalf("seed %d %q %v: optimized answers differ from analysis order\noptimized plan:\n%s\nanalysis plan:\n%s",
					seed, src, fixed, prepOpt.Explain(), prepOff.Explain())
			}
			totalOpt += ansOpt.Cost.TupleReads
			totalOff += ansOff.Cost.TupleReads
			if ansOpt.Cost.TupleReads > prepOpt.Plan().Bound.Reads {
				t.Fatalf("seed %d %v: %d reads exceed optimized bound %d", seed, fixed, ansOpt.Cost.TupleReads, prepOpt.Plan().Bound.Reads)
			}
			if sameOrder {
				if ansOpt.Cost.TupleReads != ansOff.Cost.TupleReads || ansOpt.DQ.Distinct() != ansOff.DQ.Distinct() {
					t.Fatalf("seed %d %v: same access order but reads/witness diverge (%d/%d reads, %d/%d witness)",
						seed, fixed, ansOpt.Cost.TupleReads, ansOff.Cost.TupleReads, ansOpt.DQ.Distinct(), ansOff.DQ.Distinct())
				}
			} else if _, isCQ := query.AsCQ(q.Fix(fixed)); isCQ && !usesUntracedAccess(prepOpt.Plan().Root) {
				// Reordered: D_Q must still witness the full answer set.
				// (Checked on CQ shapes, where the naive oracle is a
				// backtracking join; the FO fallback is exponential.)
				dq := ansOpt.DQ.Database(st.Schema())
				over, err := eval.Answers(eval.DBSource{DB: dq}, q, fixed)
				if err != nil {
					t.Fatalf("seed %d %v: evaluating over D_Q: %v", seed, fixed, err)
				}
				if !over.Equal(ansOpt.Tuples) {
					t.Fatalf("seed %d %q %v: D_Q of the reordered plan is not a witness (%d answers over D_Q, %d over D)",
						seed, src, fixed, over.Len(), ansOpt.Tuples.Len())
				}
			}
		}
		if totalOpt > totalOff {
			t.Fatalf("seed %d %q: optimized plan charged %d total reads over the sampled bindings, analysis order %d — never worse violated\noptimized:\n%s\nanalysis:\n%s",
				seed, src, totalOpt, totalOff, prepOpt.Explain(), prepOff.Explain())
		}
	}
	if controllable < 10 {
		t.Fatalf("only %d/30 generated queries were p-controllable; generator too weak", controllable)
	}
	if reordered == 0 {
		t.Fatal("the optimizer never chose a different order on 30 random queries; property test exercises nothing")
	}
	t.Logf("property: %d controllable, %d with a reordered plan", controllable, reordered)
}
