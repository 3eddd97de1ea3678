//go:build !race

// Allocation and footprint pins for the storage layer (race-instrumented
// builds skip them: the race detector changes both allocation counts and
// heap sizes; the race job covers the same paths for correctness).
package store

import (
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/workload"
)

// A membership probe — the physical form of MembershipProbe operators and
// the fully-bound IndexLookup fast path — must not allocate: the tuple
// key probe runs on stack scratch and the counters charge atomically.
func TestMembershipIntoZeroAlloc(t *testing.T) {
	db := testDB(t)
	present := relation.Ints(1, 2)
	absent := relation.Ints(9, 9)
	if a := testing.AllocsPerRun(200, func() {
		ok, err := db.MembershipInto(nil, "friend", present)
		if err != nil || !ok {
			t.Errorf("membership hit = %v, err %v", ok, err)
		}
	}); a != 0 {
		t.Errorf("membership hit: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		ok, err := db.MembershipInto(nil, "friend", absent)
		if err != nil || ok {
			t.Errorf("membership miss = %v, err %v", ok, err)
		}
	}); a != 0 {
		t.Errorf("membership miss: %.1f allocs/op, want 0", a)
	}
}

// Resolving an entry to its access path builds no name: a fetch allocates
// only its result — the copied group slice for plain, full-key and
// embedded entries, plus one value array holding every projected tuple for
// a full-width projection.
func TestFetchIntoAllocs(t *testing.T) {
	fd := access.FD("visit", []string{"id", "yy", "mm", "dd"}, []string{"rid"}, 1)
	days := access.Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 366, 1)
	db := testDBWith(t, fd, days, access.Plain("visit", []string{"id"}, 10, 1))
	for _, v := range []relation.Tuple{relation.Ints(1, 10, 2013, 1, 5), relation.Ints(2, 20, 2013, 1, 5), relation.Ints(1, 11, 2013, 2, 6)} {
		if err := db.ApplyUpdate(relation.NewUpdate().Insert("visit", v)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		e     access.Entry
		vals  []relation.Value
		n     int
		limit float64
	}{
		{"plain", access.Plain("friend", []string{"id1"}, 5000, 1), relation.Ints(1), 2, 1},
		{"plain, single tuple", access.Plain("person", []string{"id"}, 1, 1), relation.Ints(2), 1, 1},
		{"full key", access.Plain("person", []string{"id", "name", "city"}, 1, 1),
			relation.NewTuple(relation.Int(2), relation.Str("bob"), relation.Str("NYC")), 1, 1},
		{"full key, absent", access.Plain("friend", []string{"id1", "id2"}, 1, 1), relation.Ints(3, 3), 0, 0},
		{"embedded", days, relation.Ints(2013), 2, 1},
		{"full-width projection", fd, relation.Ints(1, 2013, 2, 6), 1, 2},
	}
	for _, c := range cases {
		a := testing.AllocsPerRun(200, func() {
			got, err := db.FetchInto(nil, c.e, c.vals)
			if err != nil || len(got) != c.n {
				t.Errorf("%s: fetch = %v, err %v; want %d tuples", c.name, got, err, c.n)
			}
		})
		if a > c.limit {
			t.Errorf("%s: %.1f allocs/op, want ≤ %.0f", c.name, a, c.limit)
		}
	}
}

// The store's resident footprint per tuple: the data plus every access
// path, as HeapAlloc after a forced collection, on the generated social
// workload at 2 000 persons (|D| ≈ 30k). It pins the lean layout — a
// pointer-free tuple-set table, no index for the membership entries, the
// FD served by a plain index, 24-byte values and index groups behind a
// slot table — which measures ≈ 177 B/tuple on linux/amd64 (go1.24), and
// the cap allows that plus 5 %. With 32-byte values and a
// map[string]*bucket per index it read ≈ 231; with a membership index
// back on every relation ≈ 357; the earlier map-keyed layout ≈ 582.
func TestFootprintPerTuple(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cfg := workload.DefaultConfig()
	cfg.Persons = 2000
	before := heap()
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(db)
	perTuple := float64(int64(after)-int64(before)) / float64(db.Size())
	t.Logf("|D| = %d: %.1f B/tuple", db.Size(), perTuple)
	if perTuple > 185 {
		t.Errorf("store footprint %.1f B/tuple at |D| = %d, want ≤ 185", perTuple, db.Size())
	}
}
