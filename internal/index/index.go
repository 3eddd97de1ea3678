// Package index provides hash indices over relations: the physical access
// method that access schemas (package access) assume. An index on a set X
// of attributes of R supports retrieval of σ_X=ā(R) in time proportional to
// the answer, which is the "can be retrieved in time T" half of the access
// schema contract; the cardinality half (≤ N tuples) is checked by package
// access and enforced at fetch time by package store.
package index

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// KeyName canonically names an index key: the comma-joined attribute list
// in the order given. Two indices on the same relation with the same
// KeyName are interchangeable.
func KeyName(attrs []string) string { return strings.Join(attrs, ",") }

// keyScratchSize is the stack scratch for key probes, mirroring the tuple
// key machinery in package relation: typical keys encode without heap
// spill, longer ones pay one allocation.
const keyScratchSize = 128

// Index is a hash index on a fixed attribute list of one relation. It maps
// each combination of key values to the list of matching tuples.
//
// Ordering contract: a bucket's order is deterministic for a fixed
// Add/Remove sequence but is NOT insertion order once a Remove has
// occurred — Remove is swap-remove, the bucket's last tuple takes the
// removed one's slot (see DESIGN.md "Storage engine: ordering and delete
// complexity").
//
// Buckets are held by pointer so the maintenance path mutates them in
// place: an Add to an existing group or a Remove never re-keys the bucket
// map, and key probes build the key on a stack scratch — the per-tuple
// index maintenance cost of a commit allocates only when a new group
// appears.
type Index struct {
	rel       relation.RelSchema
	attrs     []string
	positions []int
	buckets   map[string]*bucket
}

// bucket holds one key group. Mutated in place through the map's pointer.
type bucket struct {
	ts []relation.Tuple
}

// New builds an empty index on the given attributes of rs. The attribute
// list may be empty, in which case the index has a single bucket holding
// the whole relation (this models the access schema entries (R, ∅, N, T)
// used in Section 5 of the paper).
func New(rs relation.RelSchema, attrs []string) (*Index, error) {
	pos, err := rs.Positions(attrs)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	seen := make(map[int]bool, len(pos))
	for _, p := range pos {
		if seen[p] {
			return nil, fmt.Errorf("index on %s: duplicate attribute %q", rs.Name, rs.Attrs[p])
		}
		seen[p] = true
	}
	return &Index{
		rel:       rs,
		attrs:     append([]string(nil), attrs...),
		positions: pos,
		buckets:   make(map[string]*bucket),
	}, nil
}

// Build constructs an index over the current contents of r.
func Build(r *relation.Relation, attrs []string) (*Index, error) {
	ix, err := New(r.Schema(), attrs)
	if err != nil {
		return nil, err
	}
	for _, t := range r.Tuples() {
		ix.Add(t)
	}
	return ix, nil
}

// Attrs returns the indexed attribute list.
func (ix *Index) Attrs() []string { return ix.attrs }

// Relation returns the name of the indexed relation.
func (ix *Index) Relation() string { return ix.rel.Name }

// KeyName returns the canonical name of this index's key.
func (ix *Index) KeyName() string { return KeyName(ix.attrs) }

// Add inserts a tuple into the index. The caller is responsible for keeping
// the index in sync with the base relation, which includes never Adding a
// tuple already present: buckets do not deduplicate, so a double Add leaves
// a duplicate that a single Remove will not fully undo. Package store
// maintains this invariant structurally — base relations have set
// semantics and Update.Validate rejects inserting a present tuple — and
// pins it with a test (see store: TestStoreMaintainsIndexSyncInvariant).
func (ix *Index) Add(t relation.Tuple) {
	var a [keyScratchSize]byte
	kb := t.AppendKeyAt(a[:0], ix.positions)
	if b := ix.buckets[string(kb)]; b != nil {
		b.ts = append(b.ts, t)
		return
	}
	ix.buckets[string(kb)] = &bucket{ts: []relation.Tuple{t}}
}

// Remove deletes a tuple from the index, reporting whether it was present.
// The bucket scan to locate the tuple is O(|group|) — bounded by the access
// entry's N for entry-backed indices — and the removal itself is O(1)
// swap-remove: no tuple after the removal point is re-keyed or moved more
// than once.
func (ix *Index) Remove(t relation.Tuple) bool {
	var a [keyScratchSize]byte
	kb := t.AppendKeyAt(a[:0], ix.positions)
	b := ix.buckets[string(kb)]
	if b == nil {
		return false
	}
	for i, u := range b.ts {
		if u.Equal(t) {
			last := len(b.ts) - 1
			b.ts[i] = b.ts[last]
			b.ts[last] = nil
			b.ts = b.ts[:last]
			if len(b.ts) == 0 {
				delete(ix.buckets, string(kb))
			}
			return true
		}
	}
	return false
}

// Lookup returns σ_X=vals(R): all tuples whose indexed attributes equal
// vals, in bucket order (see the ordering contract on Index). The returned
// slice is owned by the index. A hit performs no allocation: the probe key
// is built on a stack scratch.
func (ix *Index) Lookup(vals []relation.Value) ([]relation.Tuple, error) {
	if len(vals) != len(ix.positions) {
		return nil, fmt.Errorf("index %s(%s): lookup with %d values, want %d",
			ix.rel.Name, ix.KeyName(), len(vals), len(ix.positions))
	}
	var a [keyScratchSize]byte
	kb := relation.Tuple(vals).AppendKey(a[:0])
	b := ix.buckets[string(kb)]
	if b == nil {
		return nil, nil
	}
	return b.ts, nil
}

// Count returns |σ_X=vals(R)| without materializing anything new.
func (ix *Index) Count(vals []relation.Value) (int, error) {
	ts, err := ix.Lookup(vals)
	return len(ts), err
}

// MaxBucket returns the size of the largest bucket: the tightest N for
// which every group satisfies the access-schema cardinality bound. An empty
// index has MaxBucket 0.
func (ix *Index) MaxBucket() int {
	max := 0
	for _, b := range ix.buckets {
		if len(b.ts) > max {
			max = len(b.ts)
		}
	}
	return max
}

// Buckets returns the number of distinct key combinations present.
func (ix *Index) Buckets() int { return len(ix.buckets) }

// Len returns the total number of indexed tuples.
func (ix *Index) Len() int {
	n := 0
	for _, b := range ix.buckets {
		n += len(b.ts)
	}
	return n
}

// String describes the index.
func (ix *Index) String() string {
	return fmt.Sprintf("index %s(%s): %d tuples in %d buckets", ix.rel.Name, ix.KeyName(), ix.Len(), ix.Buckets())
}
