package eval

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// nestedLoop hides a DBSource behind a type that is not one, so the
// evaluation takes the plain nested-loop runtime: the reference order the
// keyed runtime must reproduce.
type nestedLoop struct{ DBSource }

func socialData(t testing.TB, persons int, seed int64) (*relation.Database, workload.Config) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Restaurants = 20
	cfg.VisitsPerPerson = 3
	cfg.Seed = seed
	db, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, cfg
}

// drainSeq collects a stream in yield order.
func drainSeq(t *testing.T, seq iter.Seq2[relation.Tuple, error]) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for tu, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tu)
	}
	return out
}

// column domains of the generated social schema: a variable only ever
// joins columns of the same domain, so random CQs have real matches.
var socialCols = map[string][]string{
	"person": {"P", "N", "C"},
	"friend": {"P", "P"},
	"restr":  {"R", "N", "C", "A"},
	"visit":  {"P", "R", "Y", "M", "D"},
}

// randomCQ draws a CQ of one to four atoms over the social schema:
// self-joins (a relation may repeat), constants taken from stored tuples,
// repeated variables (two variables per domain, so friend(P0, P0) and
// the like occur), sometimes an equality atom, and a non-empty fixed
// binding half the time.
func randomCQ(rng *rand.Rand, db *relation.Database) (*query.CQ, query.Bindings) {
	rels := []string{"person", "friend", "restr", "visit"}
	var atoms []*query.Atom
	domOf := map[string]string{}
	valsOf := map[string][]relation.Value{} // per variable: values it can take
	for n := 1 + rng.Intn(4); len(atoms) < n; {
		rel := rels[rng.Intn(len(rels))]
		ts := db.Rel(rel).Tuples()
		sample := ts[rng.Intn(len(ts))]
		args := make([]query.Term, len(socialCols[rel]))
		for i, dom := range socialCols[rel] {
			if rng.Intn(6) == 0 {
				args[i] = query.Const(sample[i])
				continue
			}
			v := fmt.Sprintf("%s%d", dom, rng.Intn(2))
			domOf[v] = dom
			valsOf[v] = append(valsOf[v], sample[i])
			args[i] = query.Var(v)
		}
		atoms = append(atoms, query.NewAtom(rel, args...))
	}
	vars := make([]string, 0, len(domOf))
	for v := range domOf {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	var eqs []*query.Eq
	if len(vars) > 0 && rng.Intn(4) == 0 {
		a := vars[rng.Intn(len(vars))]
		var peers []string
		for _, b := range vars {
			if b != a && domOf[b] == domOf[a] {
				peers = append(peers, b)
			}
		}
		if len(peers) > 0 && rng.Intn(2) == 0 {
			eqs = append(eqs, query.NewEq(query.Var(a), query.Var(peers[rng.Intn(len(peers))])))
		} else {
			eqs = append(eqs, query.NewEq(query.Var(a), query.Const(valsOf[a][rng.Intn(len(valsOf[a]))])))
		}
	}
	var head []query.Term
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			head = append(head, query.Var(v))
		}
	}
	fixed := query.Bindings{}
	if len(vars) > 0 && rng.Intn(2) == 0 {
		v := vars[rng.Intn(len(vars))]
		fixed[v] = valsOf[v][rng.Intn(len(valsOf[v]))]
	}
	return &query.CQ{Name: "R", Head: head, Atoms: atoms, Eqs: eqs}, fixed
}

// TestKeyedJoinOrderIdentity: the keyed DBSource runtime yields exactly
// the nested-loop runtime's answers, in the same order, on random CQs.
func TestKeyedJoinOrderIdentity(t *testing.T) {
	db, _ := socialData(t, 30, 7)
	rng := rand.New(rand.NewSource(24))
	nonEmpty, multiAtom := 0, 0
	for i := 0; i < 240; i++ {
		cq, fixed := randomCQ(rng, db)
		want := drainSeq(t, StreamCQ(nestedLoop{DBSource{db}}, cq, fixed))
		got := drainSeq(t, StreamCQ(DBSource{db}, cq, fixed))
		if len(got) != len(want) {
			t.Fatalf("%s fixed %v: keyed %d answers, nested loop %d", cq, fixed, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Fatalf("%s fixed %v: answer %d is %v keyed, %v nested loop", cq, fixed, j, got[j], want[j])
			}
		}
		if len(want) > 0 {
			nonEmpty++
			if len(cq.Atoms) > 1 {
				multiAtom++
			}
		}
	}
	// The property must not hold vacuously.
	if nonEmpty < 60 || multiAtom < 30 {
		t.Fatalf("only %d non-empty answer sets (%d multi-atom) out of 240: generator too sparse", nonEmpty, multiAtom)
	}
}

// TestKeyedScanSecondProbeBuilds: the first probe of a (relation,
// positions) pair scans and filters without building; the second builds
// the index; every probe returns the matching tuples in scan order.
func TestKeyedScanSecondProbeBuilds(t *testing.T) {
	db, _ := socialData(t, 30, 7)
	rt := runtimeFor(DBSource{db}).(*dbRuntime)
	k := keyedScan{rel: "visit", mask: 1 << 0}
	for probe, p := range []int64{3, 4, 3, 29} {
		vals := []relation.Value{relation.Int(p)}
		got, err := rt.ScanKeyed(0, "visit", []int{0}, vals)
		if err != nil {
			t.Fatal(err)
		}
		var want []relation.Tuple
		for _, tu := range db.Rel("visit").Tuples() {
			if tu[0] == vals[0] {
				want = append(want, tu)
			}
		}
		if len(want) == 0 || !slices.EqualFunc(got, want, relation.Tuple.Equal) {
			t.Fatalf("probe %d (id %d): %v, want %v", probe, p, got, want)
		}
		ix, seen := rt.index[k]
		if !seen || (probe == 0) != (ix == nil) {
			t.Fatalf("after probe %d: index seen=%v built=%v; want built from the second probe on", probe, seen, ix != nil)
		}
	}
	if _, err := rt.ScanKeyed(0, "nope", []int{0}, []relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("keyed scan of an unknown relation succeeded")
	}
}

// TestOnlyUncountedRuntimeIsKeyed: counted runtimes charge every naive
// scan in full, so none of them may take the keyed path.
func TestOnlyUncountedRuntimeIsKeyed(t *testing.T) {
	db, cfg := socialData(t, 10, 1)
	st, err := store.Open(db, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for name, rt := range map[string]plan.Runtime{
		"StoreSource":           runtimeFor(StoreSource{DB: st}),
		"StoreSource+Snap":      runtimeFor(NewStoreSource(st, &store.ExecStats{})),
		"nested-loop DBSource":  runtimeFor(nestedLoop{DBSource{db}}),
		"plan.BackendRuntime":   plan.BackendRuntime{B: st},
		"plan.BackendRuntime*":  &plan.BackendRuntime{B: st},
		"eval.sourceRuntime(*)": &sourceRuntime{src: StoreSource{DB: st}},
	} {
		if _, ok := rt.(plan.KeyedScanner); ok {
			t.Errorf("%s implements plan.KeyedScanner", name)
		}
	}
	if _, ok := runtimeFor(DBSource{db}).(plan.KeyedScanner); !ok {
		t.Error("the DBSource runtime does not implement plan.KeyedScanner")
	}
}

// countedQueries are the serving pack evaluated naively over a counted
// source. Q5's negation sends Answers to the active-domain enumeration,
// hopeless at any size, so its positive join stands in for it.
var countedQueries = []struct{ name, src string }{
	{"Q1", workload.Q1Src},
	{"Q2", workload.Q2Src},
	{"Q3", workload.Q3Src},
	{"Q4", "Q4(p, rn) := exists rid, yy, mm, dd, city, rating (visit(p, rid, yy, mm, dd) and restr(rid, rn, city, rating))"},
	{"Q5+", "Q5(p, rn) :- friend(p, f), visit(f, rid, yy, mm, dd), restr(rid, rn, city, rating)"},
}

// countedPinned holds, per query and snapshot mode, the counters naive
// evaluation charges summed over the bindings of TestCountedNaiveChargesPinned,
// and the answer count: the nested-loop evaluator's numbers, which the
// keyed uncounted path must never change.
var countedPinned = map[string]struct {
	c       store.Counters
	answers int
}{
	"Q1/snap":    {store.Counters{TupleReads: 3188, Scans: 44, TimeUnits: 3188}, 13},
	"Q1/nosnap":  {store.Counters{TupleReads: 3188, Scans: 44, TimeUnits: 3188}, 13},
	"Q2/snap":    {store.Counters{TupleReads: 46276, Scans: 349, TimeUnits: 46276}, 8},
	"Q2/nosnap":  {store.Counters{TupleReads: 46276, Scans: 349, TimeUnits: 46276}, 8},
	"Q3/snap":    {store.Counters{TupleReads: 26152, Scans: 100, TimeUnits: 26152}, 3},
	"Q3/nosnap":  {store.Counters{TupleReads: 26152, Scans: 100, TimeUnits: 26152}, 3},
	"Q4/snap":    {store.Counters{TupleReads: 720, Scans: 16, TimeUnits: 720}, 11},
	"Q4/nosnap":  {store.Counters{TupleReads: 720, Scans: 16, TimeUnits: 720}, 11},
	"Q5+/snap":   {store.Counters{TupleReads: 8788, Scans: 164, TimeUnits: 8788}, 58},
	"Q5+/nosnap": {store.Counters{TupleReads: 8788, Scans: 164, TimeUnits: 8788}, 58},
}

// TestCountedNaiveChargesPinned: eval.Answers over a StoreSource, with
// and without the scan snapshot, charges exactly the pinned counters.
func TestCountedNaiveChargesPinned(t *testing.T) {
	db, cfg := socialData(t, 40, 3)
	st, err := store.Open(db, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	for _, qc := range countedQueries {
		var q *query.Query
		if cq, err := parser.ParseCQ(qc.src); err == nil {
			if q, err = cq.Query(); err != nil {
				t.Fatal(err)
			}
		} else {
			q = mustQuery(t, qc.src)
		}
		for _, snap := range []bool{true, false} {
			key := qc.name + "/nosnap"
			if snap {
				key = qc.name + "/snap"
			}
			var sum store.Counters
			answers := 0
			for _, p := range []int64{0, 3, 17, 39} {
				fixed := query.Bindings{"p": relation.Int(p)}
				if qc.name == "Q3" {
					fixed["yy"] = relation.Int(int64(cfg.Years[p%int64(len(cfg.Years))]))
				}
				es := &store.ExecStats{}
				src := StoreSource{DB: st, Stats: es}
				if snap {
					src = NewStoreSource(st, es)
				}
				ans, err := Answers(src, q, fixed)
				if err != nil {
					t.Fatal(err)
				}
				sum.Add(es.Counters)
				answers += ans.Len()
			}
			fmt.Fprintf(&report, "\t%q: {store.Counters{TupleReads: %d, IndexLookups: %d, Scans: %d, Memberships: %d, TimeUnits: %d}, %d},\n",
				key, sum.TupleReads, sum.IndexLookups, sum.Scans, sum.Memberships, sum.TimeUnits, answers)
			if want := countedPinned[key]; want.c != sum || want.answers != answers {
				t.Errorf("%s: charged %+v for %d answers, pinned %+v for %d", key, sum, answers, want.c, want.answers)
			}
		}
	}
	if t.Failed() {
		t.Logf("measured:\n%s", report.String())
	}
}
