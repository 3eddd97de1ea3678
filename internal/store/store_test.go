package store

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/relation"
)

func socialSchema() *relation.Schema {
	return relation.MustSchema(
		relation.MustRelSchema("person", "id", "name", "city"),
		relation.MustRelSchema("friend", "id1", "id2"),
		relation.MustRelSchema("visit", "id", "rid", "yy", "mm", "dd"),
	)
}

func testDB(t *testing.T) *DB {
	t.Helper()
	return testDBWith(t)
}

// testDBWith is testDB with extra access entries registered.
func testDBWith(t *testing.T, extra ...access.Entry) *DB {
	t.Helper()
	s := socialSchema()
	data := relation.NewDatabase(s)
	data.MustInsert("person", relation.NewTuple(relation.Int(1), relation.Str("ann"), relation.Str("NYC")))
	data.MustInsert("person", relation.NewTuple(relation.Int(2), relation.Str("bob"), relation.Str("NYC")))
	data.MustInsert("person", relation.NewTuple(relation.Int(3), relation.Str("cal"), relation.Str("LA")))
	data.MustInsert("friend", relation.Ints(1, 2))
	data.MustInsert("friend", relation.Ints(1, 3))
	data.MustInsert("friend", relation.Ints(2, 3))
	acc := access.New(s)
	acc.MustAdd(access.Plain("friend", []string{"id1"}, 5000, 1))
	acc.MustAdd(access.Plain("person", []string{"id"}, 1, 1))
	for _, e := range extra {
		acc.MustAdd(e)
	}
	db, err := Open(data, acc)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFetchPlain(t *testing.T) {
	db := testDB(t)
	e := access.Plain("friend", []string{"id1"}, 5000, 1)
	es := &ExecStats{}
	got, err := db.FetchInto(es, e, []relation.Value{relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Fetch = %v", got)
	}
	if c := es.Counters; c.TupleReads != 2 || c.IndexLookups != 1 || c.TimeUnits != 1 {
		t.Errorf("counters = %s", c)
	}
	if _, err := db.FetchInto(nil, e, nil); err == nil {
		t.Error("wrong value count accepted")
	}
}

func TestFetchEnforcesN(t *testing.T) {
	s := socialSchema()
	data := relation.NewDatabase(s)
	data.MustInsert("friend", relation.Ints(1, 2))
	data.MustInsert("friend", relation.Ints(1, 3))
	acc := access.New(s)
	e := access.Plain("friend", []string{"id1"}, 1, 1)
	acc.MustAdd(e)
	db := MustOpen(data, acc)
	if err := db.Conforms(); err == nil {
		t.Fatal("Conforms should fail: two friends, limit 1")
	}
	if _, err := db.FetchInto(nil, e, []relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("Fetch should enforce N")
	}
}

func TestTraceCollectsDQ(t *testing.T) {
	db := testDB(t)
	es := &ExecStats{Trace: NewTrace()}
	ef := access.Plain("friend", []string{"id1"}, 5000, 1)
	ep := access.Plain("person", []string{"id"}, 1, 1)
	friends, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range friends {
		if _, err := db.FetchInto(es, ep, []relation.Value{f[1]}); err != nil {
			t.Fatal(err)
		}
	}
	// Fetch friend(1) twice: distinct count must not double.
	if _, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tr := es.Trace
	if tr.Distinct() != 4 { // 2 friend + 2 person
		t.Fatalf("Distinct = %d, per-rel %v", tr.Distinct(), tr.PerRelation())
	}
	dq := tr.Database(db.Schema())
	if dq.Size() != 4 || !dq.Subset(db.Data()) {
		t.Errorf("DQ = %v", dq)
	}
	// Per-call counters saw exactly this call's work (6 reads: 2+2 friend
	// fetches + 2 person fetches).
	if es.Counters.TupleReads != 6 || es.Counters.IndexLookups != 4 {
		t.Errorf("per-call counters = %s", es.Counters)
	}
}

func TestExecStatsBudget(t *testing.T) {
	db := testDB(t)
	ef := access.Plain("friend", []string{"id1"}, 5000, 1)
	es := &ExecStats{MaxReads: 3}
	if _, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	// Second fetch crosses the 3-read budget (2 + 2 > 3).
	_, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// A nil ExecStats is never budget-limited.
	if _, err := db.FetchInto(nil, ef, []relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestExecStatsCtx(t *testing.T) {
	db := testDB(t)
	ef := access.Plain("friend", []string{"id1"}, 5000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	es := &ExecStats{Ctx: ctx}
	if _, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("fetch after cancel: want ErrCanceled, got %v", err)
	}
	if _, err := db.ScanInto(es, "friend"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("scan after cancel: want ErrCanceled, got %v", err)
	}
	if _, err := db.MembershipInto(es, "friend", relation.Ints(1, 2)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("membership after cancel: want ErrCanceled, got %v", err)
	}
}

// Concurrent readers over a shared DB must not corrupt each other's
// per-call stats (run under -race).
func TestConcurrentReads(t *testing.T) {
	db := testDB(t)
	ef := access.Plain("friend", []string{"id1"}, 5000, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				es := &ExecStats{Trace: NewTrace()}
				got, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)})
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != 2 || es.Counters.TupleReads != 2 || es.Trace.Distinct() != 2 {
					t.Errorf("per-call stats corrupted: %d tuples, %s, |D_Q|=%d", len(got), es.Counters, es.Trace.Distinct())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMembershipAndScan(t *testing.T) {
	db := testDB(t)
	es := &ExecStats{}
	ok, err := db.MembershipInto(es, "friend", relation.Ints(1, 2))
	if err != nil || !ok {
		t.Fatalf("Membership: %v %v", ok, err)
	}
	ok, err = db.MembershipInto(es, "friend", relation.Ints(9, 9))
	if err != nil || ok {
		t.Fatalf("Membership absent: %v %v", ok, err)
	}
	if c := es.Counters; c.Memberships != 2 || c.TupleReads != 1 {
		t.Errorf("membership counters = %s", c)
	}
	es = &ExecStats{}
	ts, err := db.ScanInto(es, "friend")
	if err != nil || len(ts) != 3 {
		t.Fatalf("Scan: %v %v", ts, err)
	}
	if c := es.Counters; c.Scans != 1 || c.TupleReads != 3 {
		t.Errorf("scan counters = %s", c)
	}
}

// Readers run concurrently with a writer applying updates: fetched
// slices are snapshots, so in-place index/relation mutation must never
// corrupt a reader's result (run under -race).
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := testDB(t)
	ef := access.Plain("friend", []string{"id1"}, 5000, 1)
	stop := make(chan struct{})
	var wg, writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer: churn friend(1, 2) so the id1=1 group shifts in place
		defer writerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.ApplyUpdate(relation.NewUpdate().Delete("friend", relation.Ints(1, 2))); err != nil {
				t.Error(err)
				return
			}
			if err := db.ApplyUpdate(relation.NewUpdate().Insert("friend", relation.Ints(1, 2))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				es := &ExecStats{Trace: NewTrace()}
				got, err := db.FetchInto(es, ef, []relation.Value{relation.Int(1)})
				if err != nil {
					t.Error(err)
					return
				}
				// Depending on interleaving the group has 1 or 2 tuples, but
				// every tuple must be intact and belong to the group.
				if len(got) < 1 || len(got) > 2 {
					t.Errorf("snapshot size %d", len(got))
					return
				}
				for _, tu := range got {
					if len(tu) != 2 || tu[0] != relation.Int(1) {
						t.Errorf("corrupted snapshot tuple %v", tu)
						return
					}
				}
				if _, err := db.ScanInto(nil, "friend"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait() // readers run to completion against the live writer
	close(stop)
	writerWG.Wait()
}

// TestStoreMaintainsIndexSyncInvariant pins the invariant index.Index.Add
// relies on (and documents): the store never Adds a tuple already present
// in a bucket. Base relations have set semantics and update validation
// rejects inserting a present tuple, so index buckets — which do not
// deduplicate — can never acquire a duplicate through the store, and
// delete/re-insert churn keeps every index exactly as large as its
// relation. That includes the plain index a full-width embedded entry is
// served from, whose lookups must never repeat a projection either.
func TestStoreMaintainsIndexSyncInvariant(t *testing.T) {
	wide := access.Embedded("friend", []string{"id2"}, []string{"id2", "id1"}, 5000, 1)
	db := testDBWith(t, wide)
	dup := relation.Ints(1, 2) // seeded by testDB
	if err := db.ApplyUpdate(relation.NewUpdate().Insert("friend", dup)); err == nil {
		t.Fatal("inserting an already-present tuple was accepted")
	}
	e := access.Plain("friend", []string{"id1"}, 5000, 1)
	countIn := func(e access.Entry, v int64, want relation.Tuple) int {
		got, err := db.FetchInto(nil, e, []relation.Value{relation.Int(v)})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tu := range got {
			if tu.Equal(want) {
				n++
			}
		}
		return n
	}
	countDup := func() int {
		if n := countIn(wide, 2, relation.Ints(2, 1)); n != 1 {
			t.Errorf("full-width group: %d copies of the projection of %v", n, dup)
		}
		return countIn(e, 1, dup)
	}
	if n := countDup(); n != 1 {
		t.Fatalf("after rejected double insert: %d copies of %v in the index group", n, dup)
	}
	// Swap-remove churn: delete and re-insert the same tuple repeatedly.
	// Each cycle must leave exactly one copy in the bucket, and every
	// index must stay the same size as its base relation.
	for i := 0; i < 10; i++ {
		if err := db.ApplyUpdate(relation.NewUpdate().Delete("friend", dup)); err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyUpdate(relation.NewUpdate().Insert("friend", dup)); err != nil {
			t.Fatal(err)
		}
	}
	if n := countDup(); n != 1 {
		t.Fatalf("after churn: %d copies of %v in the index group", n, dup)
	}
	for rel, p := range db.paths {
		want := db.Data().Rel(rel).Len()
		for _, ix := range p.plain {
			if ix.Len() != want {
				t.Errorf("%s: %d tuples, relation has %d", ix, ix.Len(), want)
			}
		}
		for _, w := range p.wide {
			if w.ix.Len() != want {
				t.Errorf("full-width %v over %s: %d tuples, relation has %d", w.proj, w.ix, w.ix.Len(), want)
			}
		}
	}
	if p := db.paths["friend"]; len(p.wide) != 1 || p.wide[0].ix != p.plainFor([]string{"id2"}) {
		t.Errorf("full-width entry is not served by the plain index on its X")
	}
}

// TestConcurrentReadersAndDeleteHeavyWriter is the -race variant aimed at
// the swap-remove paths: the writer churns batches of deletions and
// re-insertions inside one index group (each delete moves the bucket's
// and the relation's last slot), while readers fetch the shifting group
// and probe membership of a tuple in an untouched group.
func TestConcurrentReadersAndDeleteHeavyWriter(t *testing.T) {
	s := socialSchema()
	data := relation.NewDatabase(s)
	const groupSize = 40
	for i := int64(0); i < groupSize; i++ {
		data.MustInsert("friend", relation.Ints(1, i))
	}
	data.MustInsert("friend", relation.Ints(2, 0))
	acc := access.New(s)
	ef := access.Plain("friend", []string{"id1"}, 5000, 1)
	acc.MustAdd(ef)
	db := MustOpen(data, acc)

	stop := make(chan struct{})
	var wg, writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Delete a batch of 10 distinct tuples from the group, then put
			// them back: heavy slot reuse in both the TupleSet and the bucket.
			base := int64(rng.Intn(groupSize - 10))
			del := relation.NewUpdate()
			for k := int64(0); k < 10; k++ {
				del.Delete("friend", relation.Ints(1, base+k))
			}
			if err := db.ApplyUpdate(del); err != nil {
				t.Error(err)
				return
			}
			if err := db.ApplyUpdate(del.Inverse()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	probe := relation.Ints(2, 0)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := db.FetchInto(nil, ef, []relation.Value{relation.Int(1)})
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) < groupSize-10 || len(got) > groupSize {
					t.Errorf("snapshot size %d", len(got))
					return
				}
				for _, tu := range got {
					if len(tu) != 2 || tu[0] != relation.Int(1) || tu[1].AsInt() < 0 || tu[1].AsInt() >= groupSize {
						t.Errorf("corrupted snapshot tuple %v", tu)
						return
					}
				}
				ok, err := db.MembershipInto(nil, "friend", probe)
				if err != nil || !ok {
					t.Errorf("membership of untouched tuple = %v, err %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}

func TestApplyUpdateKeepsIndexesInSync(t *testing.T) {
	db := testDB(t)
	u := relation.NewUpdate().
		Insert("friend", relation.Ints(1, 4)).
		Delete("friend", relation.Ints(1, 2))
	if err := db.ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	e := access.Plain("friend", []string{"id1"}, 5000, 1)
	got, err := db.FetchInto(nil, e, []relation.Value{relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewTupleSet(2)
	want.Add(relation.Ints(1, 3))
	want.Add(relation.Ints(1, 4))
	if len(got) != 2 || !want.Contains(got[0]) || !want.Contains(got[1]) {
		t.Fatalf("after update: %v", got)
	}
	bad := relation.NewUpdate().Delete("friend", relation.Ints(9, 9))
	if err := db.ApplyUpdate(bad); err == nil {
		t.Error("invalid update applied")
	}
}

func TestEmbeddedFetch(t *testing.T) {
	s := socialSchema()
	data := relation.NewDatabase(s)
	data.MustInsert("visit", relation.Ints(1, 10, 2013, 1, 5))
	data.MustInsert("visit", relation.Ints(2, 20, 2013, 1, 5)) // same (yy,mm,dd)
	data.MustInsert("visit", relation.Ints(1, 10, 2013, 2, 6))
	data.MustInsert("visit", relation.Ints(1, 11, 2014, 3, 7))
	acc := access.New(s)
	days := access.Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 366, 1)
	acc.MustAdd(days)
	db := MustOpen(data, acc)

	got, err := db.FetchInto(nil, days, []relation.Value{relation.Int(2013)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // (2013,1,5) deduped across two base tuples, (2013,2,6)
		t.Fatalf("embedded fetch = %v", got)
	}
	for _, p := range got {
		if len(p) != 3 {
			t.Fatalf("projected tuple arity = %d", len(p))
		}
	}

	// Deleting one of the two base tuples behind (2013,1,5) keeps it.
	u := relation.NewUpdate().Delete("visit", relation.Ints(2, 20, 2013, 1, 5))
	if err := db.ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	got, _ = db.FetchInto(nil, days, []relation.Value{relation.Int(2013)})
	if len(got) != 2 {
		t.Fatalf("after shared delete: %v", got)
	}
	// Deleting the second one removes it.
	u2 := relation.NewUpdate().Delete("visit", relation.Ints(1, 10, 2013, 1, 5))
	if err := db.ApplyUpdate(u2); err != nil {
		t.Fatal(err)
	}
	got, _ = db.FetchInto(nil, days, []relation.Value{relation.Int(2013)})
	if len(got) != 1 {
		t.Fatalf("after full delete: %v", got)
	}
}

// Randomized: projected index lookups agree with recomputing the projection
// from scratch after arbitrary update sequences.
func TestProjIndexQuick(t *testing.T) {
	s := socialSchema()
	acc := access.New(s)
	days := access.Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 1000, 1)
	acc.MustAdd(days)
	data := relation.NewDatabase(s)
	db := MustOpen(data, acc)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 400; step++ {
		tu := relation.Ints(int64(rng.Intn(3)), int64(rng.Intn(3)), int64(2010+rng.Intn(3)), int64(rng.Intn(4)), int64(rng.Intn(4)))
		u := relation.NewUpdate()
		if db.Data().Rel("visit").Contains(tu) {
			u.Delete("visit", tu)
		} else {
			u.Insert("visit", tu)
		}
		if err := db.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
		yy := relation.Int(int64(2010 + rng.Intn(3)))
		got, err := db.FetchInto(nil, days, []relation.Value{yy})
		if err != nil {
			t.Fatal(err)
		}
		want := relation.NewTupleSet(0)
		for _, v := range db.Data().Rel("visit").Tuples() {
			if v[2] == yy {
				want.Add(relation.NewTuple(v[2], v[3], v[4]))
			}
		}
		if len(got) != want.Len() {
			t.Fatalf("step %d: proj lookup %d, recompute %d", step, len(got), want.Len())
		}
		for _, p := range got {
			if !want.Contains(p) {
				t.Fatalf("step %d: stray projected tuple %v", step, p)
			}
		}
	}
}

// The entries that get no structure of their own — the full-key
// membership entry, served by the relation's tuple set, and full-width
// embedded entries, served by a plain index projected on lookup — must
// answer exactly as dedicated structures maintained alongside would: the
// same tuples in the same order, the same charges and the same MaxGroup,
// under random insert/delete churn. The references are an index.Index on
// attr(R) and a refcounted projIndex per entry, built when the store opens
// and fed every ΔD.
func TestFullKeyAndFullWidthMatchReference(t *testing.T) {
	s := socialSchema()
	rs, _ := s.Rel("visit")
	member := access.Plain("visit", rs.Attrs, 1, 1)
	// The FD's shape with a loose N, so groups grow past one and their
	// order is observable; the second permutes the attributes.
	fdShape := access.Embedded("visit", []string{"id", "yy", "mm", "dd"}, []string{"id", "yy", "mm", "dd", "rid"}, 1000, 1)
	permuted := access.Embedded("visit", []string{"yy"}, []string{"rid", "yy", "id", "dd", "mm"}, 1000, 2)
	wides := []access.Entry{fdShape, permuted}

	rng := rand.New(rand.NewSource(5))
	randVisit := func() relation.Tuple {
		return relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(3)), int64(2010+rng.Intn(2)), int64(rng.Intn(2)), int64(rng.Intn(2)))
	}
	data := relation.NewDatabase(s)
	for i := 0; i < 40; i++ {
		data.Insert("visit", randVisit()) //nolint:errcheck // duplicates collapse
	}
	acc := access.New(s)
	for _, e := range wides {
		acc.MustAdd(e)
	}
	db := MustOpen(data, acc)
	if len(db.paths["visit"].plain) != 2 || len(db.paths["visit"].proj) != 0 {
		t.Fatalf("visit paths: %d plain indexes, %d projections; want the two X indexes only",
			len(db.paths["visit"].plain), len(db.paths["visit"].proj))
	}

	refFull, err := index.Build(db.Data().Rel("visit"), rs.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	refWide := make([]*projIndex, len(wides))
	for i, e := range wides {
		if refWide[i], err = newProjIndex(rs, e.On, e.Proj); err != nil {
			t.Fatal(err)
		}
		for _, tu := range db.Data().Rel("visit").Tuples() {
			refWide[i].add(tu)
		}
	}

	check := func(step int, e access.Entry, vals []relation.Value, want []relation.Tuple, wantMax int) {
		t.Helper()
		es := &ExecStats{}
		got, err := db.FetchInto(es, e, vals)
		if err != nil {
			t.Fatalf("step %d: %s %v: %v", step, e.String(), vals, err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %s %v: %d tuples, reference %d", step, e.String(), vals, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("step %d: %s %v: tuple %d is %v, reference %v\ngot  %v\nwant %v", step, e.String(), vals, i, got[i], want[i], got, want)
			}
		}
		wantC := Counters{TupleReads: int64(len(want)), IndexLookups: 1, TimeUnits: int64(e.T)}
		if es.Counters != wantC {
			t.Fatalf("step %d: %s: counters %s, want %s", step, e.String(), es.Counters, wantC)
		}
		raw, err := db.FetchUncounted(e, vals)
		if err != nil || len(raw) != len(got) {
			t.Fatalf("step %d: %s: FetchUncounted %v (err %v), FetchInto %v", step, e.String(), raw, err, got)
		}
		if m, ok := db.MaxGroup(e); !ok || m != wantMax {
			t.Fatalf("step %d: %s: MaxGroup = %d, %v; reference %d", step, e.String(), m, ok, wantMax)
		}
	}

	for step := 0; step < 300; step++ {
		u := relation.NewUpdate()
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			tu := randVisit()
			if db.Data().Rel("visit").Contains(tu) {
				u.Delete("visit", tu)
			} else {
				u.Insert("visit", tu)
			}
		}
		if u.Validate(db.Data()) != nil {
			continue // the batch touched one tuple twice
		}
		if err := db.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
		for _, tu := range u.Del["visit"] {
			refFull.Remove(tu)
			for _, pi := range refWide {
				pi.remove(tu)
			}
		}
		for _, tu := range u.Ins["visit"] {
			refFull.Add(tu)
			for _, pi := range refWide {
				pi.add(tu)
			}
		}

		probe := randVisit()
		want, _ := refFull.Lookup(probe)
		check(step, member, probe, want, refFull.MaxBucket())
		for i, e := range wides {
			pos, _ := rs.Positions(e.On)
			vals := probe.Project(pos)
			check(step, e, vals, refWide[i].lookup(vals), refWide[i].maxGroup())
		}
	}
}
