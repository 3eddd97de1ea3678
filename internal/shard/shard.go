// Package shard implements a hash-partitioned storage backend: n
// independent single-node store.DB shards behind the store.Backend
// interface the engine runs against.
//
// Tuples are routed by a deterministic hash of each relation's routing
// key — chosen from the relation's access-constraint key attributes (see
// chooseRoute) — so the accesses a bounded plan performs stay bounded
// regardless of how many shards |D| is spread across:
//
//   - an indexed fetch whose bound attributes cover the routing key
//     touches exactly one shard (the single-shard fast path), as does a
//     membership probe (a full tuple always determines its shard);
//   - fetches on other attribute sets and full scans scatter-gather
//     across all shards in parallel, each branch charging a forked
//     store.ExecStats that is merged back (counters, witness trace, read
//     budget, cancellation) so per-call accounting behaves identically to
//     the single-node backend — in particular, TupleReads charged for a
//     logical access are the same.
//
// Writes partition too: ApplyVersioned splits ΔD by routing key and
// applies the per-shard pieces concurrently under per-shard write locks,
// so updates to different shards no longer serialize behind one global
// RWMutex.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/store"
)

// Store is a hash-partitioned store.Backend. Build one with Open; a Store
// is safe for concurrent use.
type Store struct {
	schema *relation.Schema
	acc    *access.Schema
	shards []*store.DB

	// routes is guarded by routesMu: view DDL (AddRelation) registers and
	// removes routes while fetches, membership probes and update
	// splitting read them.
	routesMu sync.RWMutex
	routes   map[string]route // guarded by routesMu

	// commits is the merged commit-log sequence number: one increment per
	// successful whole-backend apply, assigned after every per-shard piece
	// has landed (ApplyVersioned).
	commits atomic.Int64
}

// route is one relation's partitioning rule: tuples are placed by the
// FNV-1a hash of their projection onto attrs.
type route struct {
	attrs []string
	pos   []int
}

// Option configures Open.
type Option func(*options)

type options struct {
	routes map[string][]string
}

// WithRoute overrides the routing key for one relation. The attributes
// must exist on the relation; fetches whose bound attributes cover them
// route to a single shard.
func WithRoute(rel string, attrs ...string) Option {
	return func(o *options) {
		if o.routes == nil {
			o.routes = make(map[string][]string)
		}
		o.routes[rel] = attrs
	}
}

// Open partitions data into n hash-routed shards and wraps each in an
// independent single-node store.DB (own RWMutex, own indices) under the
// shared access schema. The partitioning is deterministic in (data, acc,
// n): the same tuple always lands on the same shard. The route table is
// filled pre-publication, before any other goroutine can see s.
//
//sivet:holds routesMu
func Open(data *relation.Database, acc *access.Schema, n int, opts ...Option) (*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	var o options
	for _, f := range opts {
		f(&o)
	}
	schema := data.Schema()
	if acc.Relational() != schema {
		// One access schema over the one relational schema every shard
		// shares, as store.Open would make for a single store.
		acc = acc.CloneOver(schema)
	}
	for rel := range o.routes {
		if _, ok := schema.Rel(rel); !ok {
			return nil, fmt.Errorf("shard: WithRoute names %w %q", store.ErrUnknownRelation, rel)
		}
	}
	s := &Store{schema: schema, acc: acc, routes: make(map[string]route, schema.Len())}
	for _, rs := range schema.Rels() {
		attrs := o.routes[rs.Name]
		if attrs == nil {
			attrs = chooseRoute(rs, acc.Explicit())
		}
		pos, err := rs.Positions(attrs)
		if err != nil {
			return nil, fmt.Errorf("shard: routing key for %s: %w", rs.Name, err)
		}
		s.routes[rs.Name] = route{attrs: attrs, pos: pos}
	}
	parts := make([]*relation.Database, n)
	for i := range parts {
		parts[i] = relation.NewDatabase(schema)
	}
	for _, rs := range schema.Rels() {
		rt := s.routes[rs.Name]
		for _, t := range data.Rel(rs.Name).Tuples() {
			parts[shardIndex(t.Project(rt.pos).Key(), n)].MustInsert(rs.Name, t)
		}
	}
	for _, p := range parts {
		db, err := store.Open(p, acc)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, db)
	}
	return s, nil
}

// MustOpen opens and panics on error.
func MustOpen(data *relation.Database, acc *access.Schema, n int, opts ...Option) *Store {
	s, err := Open(data, acc, n, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// chooseRoute picks a relation's routing key from its explicit access
// entries: the X attribute set contained in the most other entries' X sets
// (so the most fetch shapes get the single-shard fast path), breaking ties
// toward the smallest cardinality bound N (more distinct key values — a
// more uniform partition), then the fewest attributes, then lexicographic
// key name. A relation with no usable entry is routed by its full tuple:
// membership probes still route, every fetch scatters.
func chooseRoute(rs relation.RelSchema, entries []access.Entry) []string {
	type cand struct {
		attrs []string
		key   string
		n     int // smallest N among entries with exactly this X
		score int // number of entries whose X contains attrs
	}
	byKey := make(map[string]*cand)
	var rels []access.Entry
	for _, e := range entries {
		if e.Rel == rs.Name && len(e.On) > 0 {
			rels = append(rels, e)
		}
	}
	for _, e := range rels {
		k := index.KeyName(e.On)
		c := byKey[k]
		if c == nil {
			c = &cand{attrs: e.On, key: k, n: e.N}
			byKey[k] = c
		} else if e.N < c.n {
			c.n = e.N
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cands := make([]*cand, 0, len(keys))
	for _, k := range keys {
		c := byKey[k]
		for _, e := range rels {
			if subset(c.attrs, e.On) {
				c.score++
			}
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return rs.Attrs
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.n != b.n {
			return a.n < b.n
		}
		if len(a.attrs) != len(b.attrs) {
			return len(a.attrs) < len(b.attrs)
		}
		return a.key < b.key
	})
	return cands[0].attrs
}

func subset(sub, super []string) bool {
	if len(sub) > len(super) {
		return false
	}
	for _, a := range sub {
		found := false
		for _, b := range super {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// routeFor returns rel's routing rule under the read lock.
func (s *Store) routeFor(rel string) (route, bool) {
	s.routesMu.RLock()
	rt, ok := s.routes[rel]
	s.routesMu.RUnlock()
	return rt, ok
}

// shardIndex maps a routing-key encoding to a shard via FNV-1a.
func shardIndex(key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}
