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

// Index is a hash index on a fixed attribute list of one relation. It maps
// each combination of key values to the group of matching tuples.
//
// Ordering contract: a group's order is deterministic for a fixed
// Add/Remove sequence but is NOT insertion order once a Remove has
// occurred — Remove is swap-remove, the group's last tuple takes the
// removed one's slot (see DESIGN.md "Storage engine: ordering and delete
// complexity").
//
// Representation, the idiom of relation.TupleSet: groups holds the
// groups, and slots is an open-addressing hash table over it with linear
// probing, at most maxLoadNum/maxLoadDen full, a power of two long (or
// empty). An occupied slot holds the 32-bit tag of its group's key and
// the group's id + 1; an empty slot is the zero slot. No key string is
// stored and the table holds no pointer for the collector to trace. A
// single-attribute Int key is kept in its slot (marked by intKey), so a
// probe on it checks the key without touching a tuple; any other key is
// checked against its group's first tuple. Build carves every group at
// exact capacity out of one slab; a group that empties is swap-removed
// from groups and its slot deleted by backward shift, leaving no
// tombstone. Key probes hash the values in place, so Lookup never
// allocates, and a commit's index maintenance allocates only when a group
// appears or outgrows its capacity.
type Index struct {
	rel       relation.RelSchema
	attrs     []string
	positions []int
	ident     []int // 0, 1, …: the positions of a key in a Lookup's values
	slots     []slot
	groups    [][]relation.Tuple
	n         int // indexed tuples
}

// slot is one entry of an Index's table. grp is the group's id + 1, ORed
// with intKey when key holds the group's single Int key; 0 marks an empty
// slot.
type slot struct {
	tag uint32
	grp uint32
	key int64
}

// intKey flags a slot whose key field holds its group's key.
const intKey = 1 << 31

// gid returns the group id of an occupied slot.
func (s slot) gid() int { return int(s.grp&^intKey) - 1 }

// Table sizing: the smallest non-empty table, and the load factor past
// which it doubles.
const (
	minSlots   = 8
	maxLoadNum = 3
	maxLoadDen = 4
)

// tagMask narrows tags; it is all ones outside tests, which lower it to
// force tag collisions and long probe runs.
var tagMask = ^uint32(0)

// keyTag returns the tag of the key of t at pos (its seeded
// Tuple.HashAt) and, when that key is a single Int, the Int.
func keyTag(t relation.Tuple, pos []int) (tag uint32, k int64, isInt bool) {
	tag = uint32(t.HashAt(pos)) & tagMask
	if len(pos) == 1 {
		if v := t[pos[0]]; v.Kind() == relation.KindInt {
			return tag, v.AsInt(), true
		}
	}
	return tag, 0, false
}

// New builds an empty index on the given attributes of rs. The attribute
// list may be empty, in which case the index has a single group holding
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
	ident := make([]int, len(pos))
	for i := range ident {
		ident[i] = i
	}
	return &Index{
		rel:       rs,
		attrs:     append([]string(nil), attrs...),
		positions: pos,
		ident:     ident,
	}, nil
}

// Build constructs an index over the current contents of r. A first pass
// finds each tuple's group; the second fills the groups, each carved at
// exact capacity from one slab, so no group is grown by appending.
func Build(r *relation.Relation, attrs []string) (*Index, error) {
	ix, err := New(r.Schema(), attrs)
	if err != nil {
		return nil, err
	}
	ts := r.Tuples()
	gids := make([]uint32, len(ts))
	var counts []int
	for j, t := range ts {
		tag, k, isInt := keyTag(t, ix.positions)
		if i, ok := ix.find(t, ix.positions, tag, k, isInt); ok {
			g := ix.slots[i].gid()
			gids[j] = uint32(g)
			counts[g]++
			continue
		}
		gids[j] = uint32(len(ix.groups))
		ix.insert(tag, k, isInt, ts[j:j+1:j+1]) // a stand-in: only its key is read
		counts = append(counts, 1)
	}
	groups := make([][]relation.Tuple, len(ix.groups))
	slab := make([]relation.Tuple, len(ts))
	for g, c := range counts {
		groups[g], slab = slab[:0:c], slab[c:]
	}
	for j, t := range ts {
		groups[gids[j]] = append(groups[gids[j]], t)
	}
	ix.groups, ix.n = groups, len(ts)
	return ix, nil
}

// find returns the slot of the group whose key is t at pos (with tag, Int
// key and Int flag as keyTag computes them) and true, or the empty slot
// that ends the key's probe run and false. An empty table reports slot 0.
func (ix *Index) find(t relation.Tuple, pos []int, tag uint32, k int64, isInt bool) (uint32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(ix.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		switch {
		case s.grp == 0:
			return i, false
		case s.tag != tag || (s.grp&intKey != 0) != isInt:
		case isInt:
			if s.key == k {
				return i, true
			}
		case ix.keyEqual(ix.groups[s.gid()][0], t, pos):
			return i, true
		}
	}
}

// keyEqual reports whether g's key equals t at pos.
func (ix *Index) keyEqual(g, t relation.Tuple, pos []int) bool {
	for j, p := range ix.positions {
		if !g[p].Equal(t[pos[j]]) {
			return false
		}
	}
	return true
}

// insert appends group ts, whose key is absent, and gives it a slot,
// doubling the table first if the new group would overload it.
func (ix *Index) insert(tag uint32, k int64, isInt bool, ts []relation.Tuple) {
	if (len(ix.groups)+1)*maxLoadDen > len(ix.slots)*maxLoadNum {
		ix.grow()
	}
	mask := uint32(len(ix.slots) - 1)
	i := tag & mask
	for ix.slots[i].grp != 0 {
		i = (i + 1) & mask
	}
	s := slot{tag: tag, grp: uint32(len(ix.groups) + 1)}
	if isInt {
		s.grp |= intKey
		s.key = k
	}
	ix.slots[i] = s
	ix.groups = append(ix.groups, ts)
}

// grow doubles the table, re-placing each slot by its stored tag: no key
// is re-hashed.
func (ix *Index) grow() {
	n := max(2*len(ix.slots), minSlots)
	old := ix.slots
	ix.slots = make([]slot, n)
	mask := uint32(n - 1)
	for _, s := range old {
		if s.grp == 0 {
			continue
		}
		i := s.tag & mask
		for ix.slots[i].grp != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = s
	}
}

// deleteSlot empties slot i by backward shift: each later entry of the
// probe run whose home slot does not lie strictly between the hole and
// itself moves into the hole, which then advances to where it was.
func (ix *Index) deleteSlot(i uint32) {
	mask := uint32(len(ix.slots) - 1)
	for j := (i + 1) & mask; ix.slots[j].grp != 0; j = (j + 1) & mask {
		home := ix.slots[j].tag & mask
		if (j-home)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = slot{}
}

// dropGroup deletes the emptied group g held by slot i: the last group
// takes its id, and that group's slot — found by re-hashing its first
// tuple's key — is repointed.
func (ix *Index) dropGroup(i uint32, g int) {
	ix.deleteSlot(i)
	last := len(ix.groups) - 1
	if g != last {
		moved := ix.groups[last]
		tag, _, _ := keyTag(moved[0], ix.positions)
		mask := uint32(len(ix.slots) - 1)
		j := tag & mask
		for ix.slots[j].gid() != last {
			j = (j + 1) & mask
		}
		ix.slots[j].grp = ix.slots[j].grp&intKey | uint32(g+1)
		ix.groups[g] = moved
	}
	ix.groups[last] = nil
	ix.groups = ix.groups[:last]
}

// Attrs returns the indexed attribute list.
func (ix *Index) Attrs() []string { return ix.attrs }

// Relation returns the name of the indexed relation.
func (ix *Index) Relation() string { return ix.rel.Name }

// KeyName returns the canonical name of this index's key.
func (ix *Index) KeyName() string { return KeyName(ix.attrs) }

// Add inserts a tuple into the index. The caller is responsible for keeping
// the index in sync with the base relation, which includes never Adding a
// tuple already present: groups do not deduplicate, so a double Add leaves
// a duplicate that a single Remove will not fully undo. Package store
// maintains this invariant structurally — base relations have set
// semantics and Update.Validate rejects inserting a present tuple — and
// pins it with a test (see store: TestStoreMaintainsIndexSyncInvariant).
func (ix *Index) Add(t relation.Tuple) {
	tag, k, isInt := keyTag(t, ix.positions)
	ix.n++
	if i, ok := ix.find(t, ix.positions, tag, k, isInt); ok {
		g := ix.slots[i].gid()
		ts := ix.groups[g]
		ix.groups[g] = append(ts, t)
		if len(ts) == cap(ts) {
			// The group moved out of its array, which may be Build's
			// slab, shared with other groups: clear the cells it left so
			// that they keep no tuple alive after its removal.
			clear(ts)
		}
		return
	}
	ix.insert(tag, k, isInt, []relation.Tuple{t})
}

// Remove deletes a tuple from the index, reporting whether it was present.
// The group scan to locate the tuple is O(|group|) — bounded by the access
// entry's N for entry-backed indices — and the removal itself is O(1)
// swap-remove: no tuple after the removal point is re-keyed or moved more
// than once.
func (ix *Index) Remove(t relation.Tuple) bool {
	tag, k, isInt := keyTag(t, ix.positions)
	i, ok := ix.find(t, ix.positions, tag, k, isInt)
	if !ok {
		return false
	}
	g := ix.slots[i].gid()
	ts := ix.groups[g]
	for j, u := range ts {
		if u.Equal(t) {
			last := len(ts) - 1
			ts[j] = ts[last]
			ts[last] = nil
			ix.n--
			if last == 0 {
				ix.dropGroup(i, g)
			} else {
				ix.groups[g] = ts[:last]
			}
			return true
		}
	}
	return false
}

// Lookup returns σ_X=vals(R): all tuples whose indexed attributes equal
// vals, in group order (see the ordering contract on Index). The returned
// slice is owned by the index. Neither a hit nor a miss allocates: the
// probe hashes the values in place.
func (ix *Index) Lookup(vals []relation.Value) ([]relation.Tuple, error) {
	if len(vals) != len(ix.positions) {
		return nil, fmt.Errorf("index %s(%s): lookup with %d values, want %d",
			ix.rel.Name, ix.KeyName(), len(vals), len(ix.positions))
	}
	key := relation.Tuple(vals)
	tag, k, isInt := keyTag(key, ix.ident)
	i, ok := ix.find(key, ix.ident, tag, k, isInt)
	if !ok {
		return nil, nil
	}
	return ix.groups[ix.slots[i].gid()], nil
}

// Count returns |σ_X=vals(R)| without materializing anything new.
func (ix *Index) Count(vals []relation.Value) (int, error) {
	ts, err := ix.Lookup(vals)
	return len(ts), err
}

// MaxBucket returns the size of the largest group: the tightest N for
// which every group satisfies the access-schema cardinality bound. An empty
// index has MaxBucket 0.
func (ix *Index) MaxBucket() int {
	m := 0
	for _, g := range ix.groups {
		m = max(m, len(g))
	}
	return m
}

// Buckets returns the number of distinct key combinations present.
func (ix *Index) Buckets() int { return len(ix.groups) }

// Len returns the total number of indexed tuples.
func (ix *Index) Len() int { return ix.n }

// String describes the index.
func (ix *Index) String() string {
	return fmt.Sprintf("index %s(%s): %d tuples in %d buckets", ix.rel.Name, ix.KeyName(), ix.Len(), ix.Buckets())
}
