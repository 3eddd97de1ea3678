package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/store"
)

// Store implements store.Backend, with a merged commit log across shards,
// and plans its fetch routes.
var (
	_ store.Backend      = (*Store)(nil)
	_ store.RoutePlanner = (*Store)(nil)
)

// Schema returns the relational schema.
func (s *Store) Schema() *relation.Schema { return s.schema }

// Access returns the access schema shared by every shard.
func (s *Store) Access() *access.Schema { return s.acc }

// Size returns |D| summed across shards.
func (s *Store) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Size()
	}
	return n
}

// NumShards returns the number of shards.
func (s *Store) NumShards() int { return len(s.shards) }

// Route returns the routing-key attributes of rel (nil if unknown).
func (s *Store) Route(rel string) []string {
	rt, _ := s.routeFor(rel)
	return append([]string(nil), rt.attrs...)
}

// ShardSizes returns the tuple count per shard: the partition balance.
func (s *Store) ShardSizes() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Size()
	}
	return out
}

// EntriesFor returns the access entries available for rel, most selective
// first. Every shard shares the access schema, so shard 0 answers.
func (s *Store) EntriesFor(rel string) []access.Entry { return s.shards[0].EntriesFor(rel) }

// EnsureIndex builds (or reuses) a plain index on attrs of every shard.
func (s *Store) EnsureIndex(rel string, attrs []string) error {
	for _, sh := range s.shards {
		if err := sh.EnsureIndex(rel, attrs); err != nil {
			return err
		}
	}
	return nil
}

// CloneData returns a consistent snapshot of the merged data set. Each
// shard is snapshotted under its own read lock; tuples never move between
// shards, so the union is a coherent database.
func (s *Store) CloneData() *relation.Database {
	merged := relation.NewDatabase(s.schema)
	for _, sh := range s.shards {
		part := sh.CloneData()
		for _, name := range s.schema.Names() {
			if _, ok := s.routeFor(name); !ok {
				continue // another instance's declaration in the shared schema
			}
			for _, t := range part.Rel(name).Tuples() {
				merged.MustInsert(name, t)
			}
		}
	}
	return merged
}

// Conforms checks cardinality conformance of the merged data to the
// access schema. Per-shard conformance is necessary but not sufficient —
// a group split across shards (entry attributes not covering the routing
// key) is only bounded in the union — so the check merges first.
func (s *Store) Conforms() error {
	return s.acc.Conforms(s.CloneData())
}

// shardForKey routes an encoded key to its shard.
func (s *Store) shardForKey(key string) *store.DB {
	return s.shards[shardIndex(key, len(s.shards))]
}

// FetchInto performs the indexed retrieval licensed by entry e. When the
// entry's bound attributes cover the relation's routing key the fetch is
// served by exactly one shard with the caller's own stats (the
// single-shard fast path, identical to single-node in every counter);
// otherwise it scatter-gathers in parallel across all shards and merges
// the partial groups, their counters and the cardinality check.
//
// The single-shard vs scatter decision is re-derived on every call here;
// compiled physical plans resolve it once via PlanFetch and then execute
// through FetchPlanned.
func (s *Store) FetchInto(es *store.ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	return s.FetchPlanned(es, e, vals, s.PlanFetch(e))
}

// PlanFetch implements store.RoutePlanner: it resolves, once per compiled
// plan operator, whether fetches through e are served by a single shard
// (the entry's bound attributes cover the relation's routing key) or must
// scatter-gather — and, for the single-shard case, precomputes the
// positions of the routing-key values within e.On so the per-call path
// does no attribute matching at all.
func (s *Store) PlanFetch(e access.Entry) store.FetchRoute {
	rt, ok := s.routeFor(e.Rel)
	if !ok {
		return store.FetchRoute{Kind: store.RouteScatter}
	}
	keyPos := make([]int, len(rt.attrs))
	for i, a := range rt.attrs {
		found := false
		for j, b := range e.On {
			if a == b {
				keyPos[i] = j
				found = true
				break
			}
		}
		if !found {
			return store.FetchRoute{Kind: store.RouteScatter}
		}
	}
	return store.FetchRoute{Kind: store.RouteSingle, KeyPos: keyPos}
}

// FetchPlanned implements store.RoutePlanner: FetchInto under a routing
// decision already made at plan time. Counters, traces, budgets and
// cardinality checks are identical to FetchInto's.
func (s *Store) FetchPlanned(es *store.ExecStats, e access.Entry, vals []relation.Value, r store.FetchRoute) ([]relation.Tuple, error) {
	if _, ok := s.routeFor(e.Rel); !ok {
		return nil, fmt.Errorf("shard: %w %q", store.ErrUnknownRelation, e.Rel)
	}
	if len(vals) != len(e.On) {
		return nil, fmt.Errorf("shard: fetch %s with %d values, want %d", e.Rel, len(vals), len(e.On))
	}
	if r.Kind == store.RouteSingle {
		key := make(relation.Tuple, len(r.KeyPos))
		for i, p := range r.KeyPos {
			key[i] = vals[p]
		}
		return s.shardForKey(key.Key()).FetchInto(es, e, vals)
	}
	if len(s.shards) == 1 {
		return s.shards[0].FetchInto(es, e, vals)
	}
	if e.IsEmbedded() {
		return s.scatterFetchEmbedded(es, e, vals)
	}
	return s.scatterFetchPlain(es, e, vals)
}

// MaxGroup reports the data statistics of an access entry: the sum of
// the per-shard maxima is an upper bound on the size of any logical group
// of e (a group not covered by the routing key may be split across
// shards, but each fragment is bounded by its shard's maximum).
func (s *Store) MaxGroup(e access.Entry) (int, bool) {
	total := 0
	for _, sh := range s.shards {
		n, ok := sh.MaxGroup(e)
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// scatterFetchPlain gathers one plain group from every shard. Base tuples
// are partitioned, so the concatenation (in shard order) is exactly the
// single-node result with no duplicates. Partials are fetched uncounted
// and the union is charged once at merge level, after the cardinality
// check — the same order as the single-node backend, where an N-violation
// fails before anything is charged (so it can never be masked as a
// budget error).
func (s *Store) scatterFetchPlain(es *store.ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	parts := make([][]relation.Tuple, len(s.shards))
	err := s.fanOut(es, func(i int, sh *store.DB, child *store.ExecStats) error {
		ts, err := sh.FetchUncounted(e, vals)
		parts[i] = ts
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > e.N {
		return nil, fmt.Errorf("shard: %w: %s, group %v has %d > %d tuples across shards",
			access.ErrViolation, e.String(), relation.Tuple(vals), total, e.N)
	}
	if err := es.ChargeTo(store.Counters{
		TupleReads:   int64(total),
		IndexLookups: int64(len(s.shards)),
		TimeUnits:    int64(len(s.shards)) * int64(e.T),
	}); err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, 0, total)
	for _, p := range parts {
		for _, t := range p {
			es.RecordTouched(e.Rel, t)
			out = append(out, t)
		}
	}
	return out, nil
}

// scatterFetchEmbedded gathers one embedded (projected) group. The same
// projected tuple may be served by several shards — the base tuples
// behind it can land anywhere — so the partial results are fetched
// uncounted, deduplicated in shard order, and the deduplicated group is
// charged once at merge level: TupleReads equal the single-node charge,
// while IndexLookups and TimeUnits reflect the n physical lookups.
func (s *Store) scatterFetchEmbedded(es *store.ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	n := len(s.shards)
	parts := make([][]relation.Tuple, n)
	// The branches fetch uncounted (the child stats never see a charge);
	// fanOut still provides the parallelism, sibling cancellation and
	// deadline check, and the single charge happens after the dedup below.
	err := s.fanOut(es, func(i int, sh *store.DB, child *store.ExecStats) error {
		ts, err := sh.FetchUncounted(e, vals)
		parts[i] = ts
		return err
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []relation.Tuple
	for _, p := range parts {
		for _, t := range p {
			k := t.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	if len(out) > e.N {
		return nil, fmt.Errorf("shard: %w: %s, group %v has %d > %d tuples across shards",
			access.ErrViolation, e.String(), relation.Tuple(vals), len(out), e.N)
	}
	if err := es.ChargeTo(store.Counters{
		TupleReads:   int64(len(out)),
		IndexLookups: int64(n),
		TimeUnits:    int64(n) * int64(e.T),
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// MembershipInto probes t ∈ rel on the one shard that could hold it — a
// full tuple always determines its routing key — charging exactly the
// single-node cost: one membership, one read when present.
func (s *Store) MembershipInto(es *store.ExecStats, rel string, t relation.Tuple) (bool, error) {
	rt, ok := s.routeFor(rel)
	if !ok {
		return false, fmt.Errorf("shard: %w %q", store.ErrUnknownRelation, rel)
	}
	rs, _ := s.schema.Rel(rel)
	if len(t) != rs.Arity() {
		// Malformed probe: any shard answers "absent" with the same charge.
		return s.shards[0].MembershipInto(es, rel, t)
	}
	return s.shardForKey(t.Project(rt.pos).Key()).MembershipInto(es, rel, t)
}

// ScanInto scans rel on every shard in parallel and concatenates the
// partitions in shard order. TupleReads and TimeUnits total exactly |R|
// as on a single node; the Scans counter records one partial scan per
// shard.
func (s *Store) ScanInto(es *store.ExecStats, rel string) ([]relation.Tuple, error) {
	if _, ok := s.routeFor(rel); !ok {
		return nil, fmt.Errorf("shard: %w %q", store.ErrUnknownRelation, rel)
	}
	if len(s.shards) == 1 {
		return s.shards[0].ScanInto(es, rel)
	}
	parts := make([][]relation.Tuple, len(s.shards))
	err := s.fanOut(es, func(i int, sh *store.DB, child *store.ExecStats) error {
		ts, err := sh.ScanInto(child, rel)
		parts[i] = ts
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]relation.Tuple, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// ChargeScanned charges the counters of a replayed full scan of n tuples:
// what ScanInto would charge for the same data, one partial scan per
// shard.
func (s *Store) ChargeScanned(es *store.ExecStats, n int) error {
	return es.ChargeTo(store.Counters{
		Scans:      int64(len(s.shards)),
		TupleReads: int64(n),
		TimeUnits:  int64(n),
	})
}

// ApplyVersioned implements store.Backend: ΔD splits by routing key,
// every per-shard piece is pre-validated, then the pieces apply
// concurrently — writes to different shards proceed in parallel under
// per-shard write locks instead of one global lock — through each
// shard's own versioned log (per-shard LSNs advance where the tuples
// land). One merged commit number is assigned to the whole ΔD after every
// piece has applied: the merged notification point Engine.Commit records.
// Validation failures are reported before anything is applied; an
// apply-phase failure (possible only with concurrent writers racing the
// validation) may leave other shards' pieces applied.
//
// Atomicity is per shard, not per update: a concurrent reader may
// observe a multi-shard ΔD with some shards' pieces applied and others
// not (the single-node backend, holding one exclusive lock, never
// exposes such a state), and the merged number does not serialize
// against in-flight partial applies. Single-shard updates — the common
// single-entity write — remain fully atomic.
func (s *Store) ApplyVersioned(u *relation.Update) (int64, error) {
	if err := s.applySharded(u); err != nil {
		return 0, err
	}
	return s.commits.Add(1), nil
}

// Version implements store.Backend: the merged commit count.
func (s *Store) Version() int64 { return s.commits.Load() }

// ShardVersions implements store.Backend: each shard's own storage LSN
// (advanced only when a commit touched that shard).
func (s *Store) ShardVersions() []int64 {
	out := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Version()
	}
	return out
}

// ValidateUpdate implements store.Backend: ΔD is split by routing key
// and every per-shard piece is checked under that shard's shared lock,
// without applying anything. Advisory with concurrent writers (the apply
// path re-validates under per-shard write locks), exact under a
// serialized commit pipeline — Engine.Commit uses it to reject an invalid
// ΔD before charging any watcher maintenance work.
func (s *Store) ValidateUpdate(u *relation.Update) error {
	subs, err := s.splitByRoute(u)
	if err != nil {
		return err
	}
	for i, su := range subs {
		if su == nil {
			continue
		}
		if err := s.shards[i].ValidateUpdate(su); err != nil {
			return err
		}
	}
	return nil
}

// splitByRoute partitions ΔD into per-shard pieces by each relation's
// routing key (nil entries for untouched shards).
func (s *Store) splitByRoute(u *relation.Update) ([]*relation.Update, error) {
	subs := make([]*relation.Update, len(s.shards))
	sub := func(i int) *relation.Update {
		if subs[i] == nil {
			subs[i] = relation.NewUpdate()
		}
		return subs[i]
	}
	split := func(m map[string][]relation.Tuple, del bool) error {
		for rel, ts := range m {
			rt, ok := s.routeFor(rel)
			if !ok {
				return fmt.Errorf("shard: %w %q", store.ErrUnknownRelation, rel)
			}
			rs, _ := s.schema.Rel(rel)
			for _, t := range ts {
				if len(t) != rs.Arity() {
					return fmt.Errorf("shard: update tuple %s has arity %d, want %d for %s", t, len(t), rs.Arity(), rel)
				}
				i := shardIndex(t.Project(rt.pos).Key(), len(s.shards))
				if del {
					sub(i).Delete(rel, t)
				} else {
					sub(i).Insert(rel, t)
				}
			}
		}
		return nil
	}
	if err := split(u.Del, true); err != nil {
		return nil, err
	}
	if err := split(u.Ins, false); err != nil {
		return nil, err
	}
	return subs, nil
}

// applySharded is ApplyVersioned's split/validate/apply pipeline.
func (s *Store) applySharded(u *relation.Update) error {
	subs, err := s.splitByRoute(u)
	if err != nil {
		return err
	}
	touched := make([]int, 0, len(s.shards))
	for i, su := range subs {
		if su != nil {
			touched = append(touched, i)
		}
	}
	// The common serving write — one entity's tuples — lands on one shard:
	// apply inline, contending only that shard's lock. The shard validates
	// its piece under that lock and applies nothing if it is invalid, so
	// no separate validation pass precedes it.
	if len(touched) == 1 {
		i := touched[0]
		return s.shards[i].ApplyUpdate(subs[i])
	}
	// Several shards: validate every piece before applying any.
	for _, i := range touched {
		if err := s.shards[i].ValidateUpdate(subs[i]); err != nil {
			return err
		}
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for _, i := range touched {
		wg.Add(1)
		go func(i int, su *relation.Update) {
			defer wg.Done()
			errs[i] = s.shards[i].ApplyUpdate(su)
		}(i, subs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs one branch per shard concurrently, forking the caller's
// stats for each branch and joining them back in shard order (counters,
// trace, budget). The first branch error cancels the siblings through a
// derived context — errgroup semantics without the dependency. The error
// reported is the first non-cancellation error in shard order, so the
// root cause wins over secondary ErrCanceled noise.
func (s *Store) fanOut(es *store.ExecStats, run func(i int, sh *store.DB, child *store.ExecStats) error) error {
	children := make([]*store.ExecStats, len(s.shards))
	errs := make([]error, len(s.shards))
	var cancel context.CancelFunc
	var branchCtx context.Context
	if es != nil && es.Ctx != nil {
		branchCtx, cancel = context.WithCancel(es.Ctx)
		defer cancel()
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		child := es.Fork()
		if child != nil && branchCtx != nil {
			child.Ctx = branchCtx
		}
		children[i] = child
		wg.Add(1)
		go func(i int, child *store.ExecStats) {
			defer wg.Done()
			if err := run(i, s.shards[i], child); err != nil {
				errs[i] = err
				if cancel != nil {
					cancel()
				}
			}
		}(i, child)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, store.ErrCanceled) {
			firstErr = err
			break
		}
	}
	for _, child := range children {
		if err := es.Join(child); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
