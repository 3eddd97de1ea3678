package core_test

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestBoundsBindOnSaturatedInstance tests the cost algebra where its
// bounds bind. Every other bound check compares one price with another
// (CostOf with Bound, PriceBelow with Bound) or runs on generated data
// whose groups sit far below their N, so a rule that undercounts would
// pass them all. Here, for Q1–Q4 controlled by {p}, a saturator walks the
// compiled plan from the anchor p = 0 over an empty database and fills
// every group a fetch reaches to its entry's N, with fresh values wherever
// the access schema allows them (person(id) N = 1, the visit FD, the
// 366-day embedded entry and restr(city) all hold). On that instance D*
// the plan's answers must be the naive evaluator's and its reads at most
// the static bound M. EXPERIMENTS.md records reads ÷ M.
func TestBoundsBindOnSaturatedInstance(t *testing.T) {
	cfg := workload.DefaultConfig()
	anchor := query.Bindings{"p": relation.Int(0)}
	x := query.NewVarSet("p")
	for _, tc := range []struct{ name, src string }{
		{"Q1", workload.Q1Src},
		{"Q2", workload.Q2Src},
		{"Q3", workload.Q3Src},
		{"Q4", backendtest.Q4Src},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := goldenQuery(t, tc.src)
			cq, ok := query.AsCQ(q)
			if !ok {
				t.Fatalf("%s is not conjunctive", tc.name)
			}
			// Plans depend on the access schema alone, so the plan over
			// an empty database is the plan that will run over D*.
			empty, err := store.Open(relation.NewDatabase(workload.Schema()), workload.Access(cfg))
			if err != nil {
				t.Fatal(err)
			}
			planned, err := core.NewEngine(empty).Prepare(q, x)
			if err != nil {
				t.Fatal(err)
			}
			s := newSaturator(t, workload.Access(cfg))
			s.walk(planned.Plan().Root, anchor)
			dstar := s.database(workload.Schema())

			st, err := store.Open(dstar, workload.Access(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Conforms(); err != nil {
				t.Fatalf("D* violates the access schema: %v", err)
			}
			prep, err := core.NewEngine(st).Prepare(q, x)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.Explain(prep.Plan().Root), plan.Explain(planned.Plan().Root); got != want {
				t.Fatalf("plan over D*\n%s differs from the saturated plan\n%s", got, want)
			}
			ans, err := prep.Exec(context.Background(), anchor)
			if err != nil {
				t.Fatal(err)
			}
			// The CQ oracle answers over the head, the engine over the
			// head variables p does not fix: drop p's column.
			head, err := eval.AnswersCQ(eval.DBSource{DB: dstar}, cq, anchor)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.NewTupleSet(head.Len())
			for _, h := range head.Tuples() {
				var u relation.Tuple
				for i, term := range cq.Head {
					if !term.IsVar() || term.Name() != "p" {
						u = append(u, h[i])
					}
				}
				want.Add(u)
			}
			if !ans.Tuples.Equal(want) {
				t.Fatalf("Q(D*) %v, naive %v", ans.Tuples.Tuples(), want.Tuples())
			}
			reads, m := ans.Cost.TupleReads, ans.Plan.Bound.Reads
			t.Logf("%s: |D*| = %d, %d answers, reads %d, M %d, reads ÷ M %.3f", tc.name, dstar.Size(), want.Len(), reads, m, float64(reads)/float64(m))
			if reads > m {
				t.Errorf("%s: reads %d above the bound M %d on D*", tc.name, reads, m)
			}
		})
	}
}

// saturator builds a saturating instance D* for one plan: it walks the
// plan's operators as the executor runs them and fills each group a fetch
// reaches to its entry's N. A new tuple takes the fetch's X values, the
// atom's constants and the values bound so far, and a fresh value at
// every other position. Where a fresh tuple would break an entry's bound,
// the fresh values the fetch was keyed on are identified with the values
// of an existing tuple the atom matches (the chase's equating step), so
// the fetch reads that tuple's full group instead: restr(city) holds at
// most 34 NYC restaurants, so Q2's 3 400 visits share them.
type saturator struct {
	t      *testing.T
	acc    *access.Schema
	rels   map[string][]relation.Tuple // D*, in insertion order
	groups map[groupKey]map[string]int // per entry group: projected tuple key → tuples projecting to it
	minted map[relation.Value]bool     // the fresh values
	next   int64
}

// groupKey names the X-group of entry Locate(rel)[entry] with X values x.
type groupKey struct {
	rel   string
	entry int
	x     string
}

func newSaturator(t *testing.T, acc *access.Schema) *saturator {
	return &saturator{
		t: t, acc: acc,
		rels:   make(map[string][]relation.Tuple),
		groups: make(map[groupKey]map[string]int),
		minted: make(map[relation.Value]bool),
		next:   1 << 20,
	}
}

// walk returns the bindings n yields under env over D*, each extending
// env, filling the groups its fetches reach on the way.
func (s *saturator) walk(n plan.Node, env query.Bindings) []query.Bindings {
	switch v := n.(type) {
	case *plan.Project:
		return s.walk(v.Child, env)
	case *plan.NLJoin:
		var out []query.Bindings
		for _, b := range s.walk(v.L, env) {
			out = append(out, s.walk(v.R, b)...)
		}
		return out
	case *plan.IndexLookup:
		return s.fetch(v.Atom, v.Entry, v.OnPos, env)
	default:
		s.t.Fatalf("saturator: no rule for operator %s", n.Describe())
		return nil
	}
}

// fetch fills the group of a's fetch through e under env to e's N and
// returns the bindings it yields.
func (s *saturator) fetch(a *query.Atom, e access.Entry, onPos []int, env query.Bindings) []query.Bindings {
	for merged := false; ; merged = true {
		key, err := plan.TupleForPositions(a, onPos, env)
		if err != nil {
			s.t.Fatal(err)
		}
		group := s.group(a.Rel, onPos, key)
		for len(group) < e.N {
			t := s.freshTuple(a, env)
			if !s.fits(a.Rel, t) {
				break
			}
			s.add(a.Rel, t)
			group = append(group, t)
		}
		if len(group) == e.N {
			var out []query.Bindings
			for _, t := range group {
				if b, ok := plan.UnifyAtom(a, t, env); ok {
					for k, v := range env {
						b[k] = v
					}
					out = append(out, b)
				}
			}
			return out
		}
		if merged || !s.identify(a, onPos, env) {
			s.t.Fatalf("saturator: cannot fill the group of %s via %s under %v to %d (has %d)", a, e.String(), env, e.N, len(group))
		}
	}
}

// freshTuple builds a tuple for a under env: constants and bound values
// where a has them, one fresh value per unbound variable elsewhere.
func (s *saturator) freshTuple(a *query.Atom, env query.Bindings) relation.Tuple {
	t := make(relation.Tuple, len(a.Args))
	local := make(map[string]relation.Value)
	for i, arg := range a.Args {
		if !arg.IsVar() {
			t[i] = arg.Value()
			continue
		}
		v, ok := env[arg.Name()]
		if !ok {
			if v, ok = local[arg.Name()]; !ok {
				s.next++
				v = relation.Int(s.next)
				local[arg.Name()], s.minted[v] = v, true
			}
		}
		t[i] = v
	}
	return t
}

// identify equates the fresh values env binds at a's onPos with the
// values of the first tuple of D* that a matches under the rest of env,
// renaming them throughout D* and in env. It reports false when no value
// is fresh or no tuple matches.
func (s *saturator) identify(a *query.Atom, onPos []int, env query.Bindings) bool {
	rest := env.Clone()
	var fresh []string
	for _, p := range onPos {
		if arg := a.Args[p]; arg.IsVar() && s.minted[env[arg.Name()]] {
			fresh = append(fresh, arg.Name())
			delete(rest, arg.Name())
		}
	}
	if len(fresh) == 0 {
		return false
	}
	for _, u := range s.rels[a.Rel] {
		b, ok := plan.UnifyAtom(a, u, rest)
		if !ok {
			continue
		}
		for _, v := range fresh {
			s.renameValue(env[v], b[v])
			env[v] = b[v]
		}
		return true
	}
	return false
}

// renameValue replaces the fresh value from by to throughout D*. Bindings
// the walk still holds keep from; in Q1–Q4 the renamed value is the key
// of the fetch under way, minted for one tuple whose one binding is the
// env being renamed, so none does.
func (s *saturator) renameValue(from, to relation.Value) {
	for rel, ts := range s.rels {
		for _, t := range ts {
			if !tupleHas(t, from) {
				continue
			}
			s.remove(rel, t)
			u := t.Clone()
			for i := range u {
				if u[i] == from {
					u[i] = to
				}
			}
			if !s.fits(rel, u) {
				s.t.Fatalf("saturator: renaming %v to %v breaks the access schema at %s%v", from, to, rel, u)
			}
			s.add(rel, u)
		}
	}
}

func tupleHas(t relation.Tuple, v relation.Value) bool {
	for _, w := range t {
		if w == v {
			return true
		}
	}
	return false
}

// group returns the tuples of rel whose values at positions are vals.
func (s *saturator) group(rel string, positions []int, vals []relation.Value) []relation.Tuple {
	var out []relation.Tuple
	for _, t := range s.rels[rel] {
		match := true
		for i, p := range positions {
			match = match && t[p] == vals[i]
		}
		if match {
			out = append(out, t)
		}
	}
	return out
}

// fits reports whether adding t to rel keeps every entry of rel within its
// N: the per-tuple form of access.Schema.Conforms, which checks all of D
// at once.
func (s *saturator) fits(rel string, t relation.Tuple) bool {
	for i, l := range s.acc.Locate(rel) {
		g := s.groups[groupKey{rel, i, t.Project(l.OnPos).Key()}]
		if g[t.Project(l.ProjPos).Key()] == 0 && len(g) >= l.N {
			return false
		}
	}
	return true
}

func (s *saturator) add(rel string, t relation.Tuple) {
	s.rels[rel] = append(s.rels[rel], t)
	s.count(rel, t, 1)
}

func (s *saturator) remove(rel string, t relation.Tuple) {
	ts := s.rels[rel]
	for i, u := range ts {
		if u.Equal(t) {
			s.rels[rel] = append(ts[:i:i], ts[i+1:]...)
			s.count(rel, t, -1)
			return
		}
	}
}

func (s *saturator) count(rel string, t relation.Tuple, d int) {
	for i, l := range s.acc.Locate(rel) {
		k := groupKey{rel, i, t.Project(l.OnPos).Key()}
		g := s.groups[k]
		if g == nil {
			g = make(map[string]int)
			s.groups[k] = g
		}
		pk := t.Project(l.ProjPos).Key()
		if g[pk] += d; g[pk] == 0 {
			delete(g, pk)
		}
	}
}

// database returns D*.
func (s *saturator) database(schema *relation.Schema) *relation.Database {
	db := relation.NewDatabase(schema)
	for rel, ts := range s.rels {
		for _, t := range ts {
			db.MustInsert(rel, t)
		}
	}
	return db
}
