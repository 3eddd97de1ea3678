package shard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func openPair(t *testing.T, n int) (*store.DB, *Store) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	cfg.Seed = 9
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := workload.Access(cfg)
	single, err := store.Open(data.Clone(), acc)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Open(data, acc, n)
	if err != nil {
		t.Fatal(err)
	}
	return single, sharded
}

// The routing keys chosen from the workload access schema: the key
// attribute of each relation's most fetch-covering constraint.
func TestChooseRoute(t *testing.T) {
	_, s := openPair(t, 4)
	want := map[string][]string{
		"person": {"id"},
		"friend": {"id1"},
		"restr":  {"rid"},
		"visit":  {"id"},
	}
	for rel, attrs := range want {
		if got := s.Route(rel); !reflect.DeepEqual(got, attrs) {
			t.Errorf("route(%s) = %v, want %v", rel, got, attrs)
		}
	}
}

func TestPartitionCoversData(t *testing.T) {
	single, s := openPair(t, 4)
	if s.Size() != single.Size() {
		t.Fatalf("sharded size %d, single %d", s.Size(), single.Size())
	}
	sizes := s.ShardSizes()
	total, nonEmpty := 0, 0
	for _, n := range sizes {
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != single.Size() {
		t.Fatalf("shard sizes %v sum to %d, want %d", sizes, total, single.Size())
	}
	if nonEmpty < 2 {
		t.Fatalf("partition degenerate: sizes %v", sizes)
	}
	if !s.CloneData().Equal(single.CloneData()) {
		t.Fatal("merged shard data differs from the original database")
	}
	if err := s.Conforms(); err != nil {
		t.Fatalf("merged conformance: %v", err)
	}
}

// A fetch whose bound attributes cover the routing key must be served by
// one shard with single-node counters: one index lookup, |group| reads.
func TestRoutedFetchSingleShard(t *testing.T) {
	single, s := openPair(t, 4)
	e := pickEntry(t, s, "friend", []string{"id1"})
	for p := 0; p < 20; p++ {
		vals := []relation.Value{relation.Int(int64(p))}
		var esS, esB store.ExecStats
		want, err := single.FetchInto(&esS, e, vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.FetchInto(&esB, e, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTupleSet(want, got) {
			t.Fatalf("p=%d: fetch mismatch: %v vs %v", p, want, got)
		}
		if esB.Counters != esS.Counters {
			t.Fatalf("p=%d: routed fetch counters %s, single-node %s", p, esB.Counters.String(), esS.Counters.String())
		}
		if esB.Counters.IndexLookups != 1 {
			t.Fatalf("p=%d: routed fetch did %d lookups, want 1", p, esB.Counters.IndexLookups)
		}
	}
}

// A fetch on attributes that do not cover the routing key scatters: same
// tuples, same TupleReads, one lookup per shard.
func TestScatterFetchPlain(t *testing.T) {
	single, s := openPair(t, 4)
	e := pickEntry(t, s, "restr", []string{"city"})
	for _, city := range []string{"NYC", "LA", "SF"} {
		vals := []relation.Value{relation.Str(city)}
		var esS, esB store.ExecStats
		esS.Trace, esB.Trace = store.NewTrace(), store.NewTrace()
		want, err := single.FetchInto(&esS, e, vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.FetchInto(&esB, e, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTupleSet(want, got) {
			t.Fatalf("%s: scatter fetch mismatch", city)
		}
		if esB.Counters.TupleReads != esS.Counters.TupleReads {
			t.Fatalf("%s: scatter reads %d, single %d", city, esB.Counters.TupleReads, esS.Counters.TupleReads)
		}
		if esB.Counters.IndexLookups != int64(s.NumShards()) {
			t.Fatalf("%s: scatter did %d lookups, want %d", city, esB.Counters.IndexLookups, s.NumShards())
		}
		if esB.Trace.Distinct() != esS.Trace.Distinct() {
			t.Fatalf("%s: witness %d vs %d", city, esB.Trace.Distinct(), esS.Trace.Distinct())
		}
	}
}

// Embedded scatter: the projected group is deduplicated across shards and
// charged once — TupleReads identical to single-node, and the entry's
// cardinality bound is enforced on the union, not the (larger) sum of the
// per-shard projections.
func TestScatterFetchEmbeddedDedup(t *testing.T) {
	single, s := openPair(t, 4)
	e := pickEntry(t, s, "visit", []string{"yy"})
	if !e.IsEmbedded() {
		t.Fatalf("expected the visit yy entry to be embedded, got %v", e)
	}
	for _, yy := range []int64{2012, 2013, 2014} {
		vals := []relation.Value{relation.Int(yy)}
		var esS, esB store.ExecStats
		want, err := single.FetchInto(&esS, e, vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.FetchInto(&esB, e, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTupleSet(want, got) {
			t.Fatalf("yy=%d: embedded scatter mismatch (%d vs %d tuples)", yy, len(want), len(got))
		}
		if esB.Counters.TupleReads != esS.Counters.TupleReads {
			t.Fatalf("yy=%d: embedded reads %d, single %d", yy, esB.Counters.TupleReads, esS.Counters.TupleReads)
		}
		if len(got) > e.N {
			t.Fatalf("yy=%d: %d projected tuples exceed bound %d", yy, len(got), e.N)
		}
	}
}

func TestScanAndMembership(t *testing.T) {
	single, s := openPair(t, 4)
	for _, rel := range []string{"person", "friend", "visit", "restr"} {
		var esS, esB store.ExecStats
		want, err := single.ScanInto(&esS, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ScanInto(&esB, rel)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTupleSet(want, got) {
			t.Fatalf("%s: scan mismatch", rel)
		}
		if esB.Counters.TupleReads != esS.Counters.TupleReads || esB.Counters.TimeUnits != esS.Counters.TimeUnits {
			t.Fatalf("%s: scan charged %s, single %s", rel, esB.Counters.String(), esS.Counters.String())
		}
		if esB.Counters.Scans != int64(s.NumShards()) {
			t.Fatalf("%s: %d partial scans, want %d", rel, esB.Counters.Scans, s.NumShards())
		}
		for _, t2 := range want[:min(8, len(want))] {
			var e1, e2 store.ExecStats
			ok1, err1 := single.MembershipInto(&e1, rel, t2)
			ok2, err2 := s.MembershipInto(&e2, rel, t2)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !ok1 || !ok2 {
				t.Fatalf("%s: membership of present tuple %v: single=%v sharded=%v", rel, t2, ok1, ok2)
			}
			if e1.Counters != e2.Counters {
				t.Fatalf("%s: membership counters %s vs %s", rel, e1.Counters.String(), e2.Counters.String())
			}
		}
	}
}

// The read budget trips on scatter-gathered reads exactly like on a
// single node, and a canceled context interrupts the fan-out.
func TestScatterBudgetAndCancellation(t *testing.T) {
	_, s := openPair(t, 4)
	es := &store.ExecStats{MaxReads: 10, Ctx: context.Background()}
	_, err := s.ScanInto(es, "friend")
	if !errors.Is(err, store.ErrBudgetExceeded) {
		t.Fatalf("scatter scan under budget 10: err = %v, want ErrBudgetExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	es = &store.ExecStats{Ctx: ctx}
	if _, err := s.ScanInto(es, "friend"); !errors.Is(err, store.ErrCanceled) {
		t.Fatalf("scatter scan under canceled ctx: err = %v, want ErrCanceled", err)
	}
	if _, err := s.FetchInto(es, pickEntry(t, s, "restr", []string{"city"}), []relation.Value{relation.Str("NYC")}); !errors.Is(err, store.ErrCanceled) {
		t.Fatalf("scatter fetch under canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// Updates split by routing key, apply across shards, and keep reads
// consistent; the merged counters keep accumulating across both.
func TestApplyUpdateRoutes(t *testing.T) {
	single, s := openPair(t, 4)
	u := relation.NewUpdate()
	u.Insert("person", relation.Tuple{relation.Int(90001), relation.Str("zz"), relation.Str("NYC")})
	for i := int64(0); i < 8; i++ {
		u.Insert("friend", relation.Tuple{relation.Int(90001), relation.Int(i)})
	}
	for _, b := range []store.Backend{single, s} {
		if _, err := b.ApplyVersioned(u); err != nil {
			t.Fatal(err)
		}
	}
	if s.Size() != single.Size() {
		t.Fatalf("size after update: %d vs %d", s.Size(), single.Size())
	}
	e := pickEntry(t, s, "friend", []string{"id1"})
	var esS, esB store.ExecStats
	want, err := single.FetchInto(&esS, e, []relation.Value{relation.Int(90001)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.FetchInto(&esB, e, []relation.Value{relation.Int(90001)})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 8 || !sameTupleSet(want, got) {
		t.Fatalf("fetch after update: %v vs %v", want, got)
	}
	inv := u.Inverse()
	if _, err := s.ApplyVersioned(inv); err != nil {
		t.Fatal(err)
	}
	if err := single.ApplyUpdate(inv); err != nil {
		t.Fatal(err)
	}
	if !s.CloneData().Equal(single.CloneData()) {
		t.Fatal("data diverged after inverse update")
	}
}

// An invalid update (deleting an absent tuple) is rejected before any
// shard applies its piece.
func TestApplyUpdateValidation(t *testing.T) {
	_, s := openPair(t, 4)
	before := s.CloneData()
	u := relation.NewUpdate()
	u.Insert("person", relation.Tuple{relation.Int(90002), relation.Str("aa"), relation.Str("LA")})
	u.Delete("person", relation.Tuple{relation.Int(-77), relation.Str("no"), relation.Str("NYC")})
	if _, err := s.ApplyVersioned(u); err == nil {
		t.Fatal("invalid update applied without error")
	}
	if !s.CloneData().Equal(before) {
		t.Fatal("invalid update mutated some shard")
	}
}

// An invalid ΔD whose tuples all land on one shard skips the sharded
// pre-validation and is rejected by the shard's own validation under its
// write lock: with the error the single-node store and ValidateUpdate
// give, and with nothing applied and no version advanced.
func TestApplyVersionedSingleShardInvalid(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		single, s := openPair(t, n)
		u := relation.NewUpdate()
		u.Insert("person", relation.Tuple{relation.Int(90003), relation.Str("aa"), relation.Str("LA")})
		u.Delete("person", relation.Tuple{relation.Int(90003), relation.Str("no"), relation.Str("NYC")})
		subs, err := s.splitByRoute(u)
		if err != nil {
			t.Fatal(err)
		}
		pieces := 0
		for _, su := range subs {
			if su != nil {
				pieces++
			}
		}
		if pieces != 1 {
			t.Fatalf("shards=%d: ΔD split into %d pieces, want one", n, pieces)
		}
		before, version, lsns := s.CloneData(), s.Version(), s.ShardVersions()
		_, err = s.ApplyVersioned(u)
		if err == nil {
			t.Fatalf("shards=%d: invalid update applied without error", n)
		}
		_, want := single.ApplyVersioned(u)
		if verr := s.ValidateUpdate(u); want == nil || verr == nil || err.Error() != want.Error() || verr.Error() != want.Error() {
			t.Fatalf("shards=%d: ApplyVersioned error %q, ValidateUpdate %v, single node %v", n, err, verr, want)
		}
		if !s.CloneData().Equal(before) || s.Version() != version || !reflect.DeepEqual(s.ShardVersions(), lsns) {
			t.Fatalf("shards=%d: rejected update changed the store", n)
		}
	}
}

func pickEntry(t *testing.T, b store.Backend, rel string, on []string) access.Entry {
	t.Helper()
	for _, e := range b.EntriesFor(rel) {
		if reflect.DeepEqual(e.On, on) {
			return e
		}
	}
	t.Fatalf("no access entry for %s on %v", rel, on)
	return access.Entry{}
}

func sameTupleSet(a, b []relation.Tuple) bool {
	sa := relation.NewTupleSet(len(a))
	sa.AddAll(a)
	sb := relation.NewTupleSet(len(b))
	sb.AddAll(b)
	return sa.Equal(sb)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// A scatter-gathered group larger than its entry's N is a data fault on
// both merge paths: the plain one (restr by city, routed by rid) and the
// embedded one (visit(yy[yy, mm, dd]), which deduplicates across shards).
// Entries with N = 1 make the conforming data break them.
func TestScatterFetchReportsViolation(t *testing.T) {
	_, s := openPair(t, 2)
	cases := []struct {
		e    access.Entry
		vals []relation.Value
	}{
		{access.Plain("restr", []string{"city"}, 1, 1), []relation.Value{relation.Str("NYC")}},
		{access.Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 1, 1), []relation.Value{relation.Int(2013)}},
	}
	for _, c := range cases {
		if rt := s.PlanFetch(c.e); rt.Kind != store.RouteScatter {
			t.Fatalf("%s: route %v, want a scatter", c.e, rt.Kind)
		}
		if _, err := s.FetchInto(nil, c.e, c.vals); !errors.Is(err, access.ErrViolation) {
			t.Errorf("%s on %v: err = %v, want access.ErrViolation", c.e, c.vals, err)
		}
	}
}
