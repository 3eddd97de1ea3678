package relation

import (
	"hash/maphash"
	"slices"
	"strings"
)

// Tuple is an ordered list of values, one per attribute of the relation it
// belongs to. Tuples are value-like: functions in this package never mutate
// a tuple after it has been stored, and callers must treat returned tuples
// as read-only.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Ints builds a tuple of integer values; a convenience for tests and
// generators.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Int(v)
	}
	return t
}

// Strs builds a tuple of string values.
func Strs(vs ...string) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Str(v)
	}
	return t
}

// Equal reports whether two tuples have the same arity and pairwise equal
// values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare, shorter tuples
// first on ties.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns an injective string encoding of the tuple, suitable as a map
// key. Two tuples have equal keys iff they are Equal.
func (t Tuple) Key() string {
	return string(t.AppendKey(nil))
}

// AppendKey appends the injective encoding of Key to dst and returns the
// extended slice. Hot paths encode into a stack-backed scratch buffer —
// projection maps are probed with string(buf) — so a probe computes no
// garbage; Key remains the convenience form for code that stores the key.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendKey(dst)
	}
	return dst
}

// AppendKeyAt appends the key encoding of the subtuple at positions — what
// t.Project(positions).AppendKey(dst) would produce — without materializing
// the projected tuple. Index key paths use it so that keying a tuple under
// an index's attribute list is allocation-free.
func (t Tuple) AppendKeyAt(dst []byte, positions []int) []byte {
	for _, p := range positions {
		dst = t[p].appendKey(dst)
	}
	return dst
}

// Project returns the subtuple at the given positions. It panics if a
// position is out of range; positions are produced by schema lookups which
// validate attribute names.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// Clone returns a copy of the tuple that shares no storage with t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// TupleSet is a deduplicated set of tuples with deterministic iteration.
// The zero TupleSet is empty and ready to use.
//
// Ordering contract: iteration order is a deterministic function of the
// operation sequence applied to the set — two sets built by the same
// Add/Remove sequence iterate identically — but it is NOT insertion order
// once a Remove has occurred. Remove is O(1) swap-remove: the last tuple
// takes the deleted tuple's slot. A set that has only ever grown iterates
// in insertion order. Callers needing a specific order must sort; every
// set-valued comparison in this repository (Equal, conformance checks,
// witness sets) is order-insensitive. See DESIGN.md "Storage engine:
// ordering and delete complexity".
//
// Representation: order holds the tuples; slots is an open-addressing
// hash table over it with linear probing. Each non-empty slot packs the
// 32-bit tag of a tuple (tupleTag) above that tuple's row+1 in order; 0
// marks an empty slot. slots holds no pointer, so the table
// costs the collector nothing to trace, and no key string is stored:
// equal tags are resolved by Tuple.Equal against the row. The table length is zero or a power of two and its load stays at
// most maxLoadNum/maxLoadDen, so every probe ends at an empty slot.
type TupleSet struct {
	order []Tuple
	slots []uint64
}

// Table sizing: the smallest non-empty table, and the load factor past
// which it doubles.
const (
	minSlots   = 8
	maxLoadNum = 3
	maxLoadDen = 4
)

// keySeed seeds the hash of string values, and tagSeed, drawn from it,
// starts each tuple's hash. Tags never influence iteration order, so a
// per-process seed keeps the table unpredictable to crafted inputs at no
// cost to determinism.
var (
	keySeed = maphash.MakeSeed()
	tagSeed = maphash.Bytes(keySeed, nil)
)

// tagMask narrows tags; it is all ones outside tests, which lower it to
// force tag collisions and long probe chains.
var tagMask = ^uint32(0)

// foldHash folds v's hash word into h with the finalizer of MurmurHash3.
// Ints are mixed as they are and strings through maphash, so no key is
// encoded.
func foldHash(h uint64, v Value) uint64 {
	h ^= v.hashWord()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// HashAt returns a per-process-seeded hash of the subtuple at positions:
// what hashing t.Project(positions) would give, without materializing
// it. Equal subtuples hash equal, and the hash is not injective: a table
// keyed by it resolves equal hashes by comparing values. Index slot
// tables use it for their keys.
func (t Tuple) HashAt(positions []int) uint64 {
	h := tagSeed
	for _, p := range positions {
		h = foldHash(h, t[p])
	}
	return h
}

// tupleTag is the tag of t in a TupleSet: its hash over every position.
func tupleTag(t Tuple) uint32 {
	h := tagSeed
	for _, v := range t {
		h = foldHash(h, v)
	}
	return uint32(h) & tagMask
}

// slotTag and slotRow unpack a non-empty slot.
func slotTag(e uint64) uint32 { return uint32(e >> 32) }
func slotRow(e uint64) int    { return int(uint32(e)) - 1 }

// NewTupleSet returns an empty set with capacity hint n.
func NewTupleSet(n int) *TupleSet {
	s := &TupleSet{order: make([]Tuple, 0, n)}
	if n > 0 {
		size := minSlots
		for size*maxLoadNum < n*maxLoadDen {
			size *= 2
		}
		s.slots = make([]uint64, size)
	}
	return s
}

// probe looks t (with tag tag) up. It returns the slot holding t and
// true, or the empty slot that ends t's probe sequence and false. The
// table must be non-empty.
func (s *TupleSet) probe(t Tuple, tag uint32) (uint32, bool) {
	mask := uint32(len(s.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, false
		}
		if slotTag(e) == tag && s.order[slotRow(e)].Equal(t) {
			return i, true
		}
	}
}

// rowSlot returns the slot referencing row, which holds t.
func (s *TupleSet) rowSlot(t Tuple, row int) uint32 {
	mask := uint32(len(s.slots) - 1)
	want := uint32(row + 1)
	for i := tupleTag(t) & mask; ; i = (i + 1) & mask {
		if uint32(s.slots[i]) == want {
			return i
		}
	}
}

// grow doubles the table, re-placing each slot by its stored tag: no
// tuple is re-keyed.
func (s *TupleSet) grow() {
	n := max(2*len(s.slots), minSlots)
	old := s.slots
	s.slots = make([]uint64, n)
	mask := uint32(n - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := slotTag(e) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// Add inserts t and reports whether it was not already present. A rejected
// duplicate costs no allocation (t is only hashed and compared); a genuine
// insert allocates only when the order slice or the table grows.
func (s *TupleSet) Add(t Tuple) bool {
	tag := tupleTag(t)
	var i uint32
	if len(s.slots) > 0 {
		var ok bool
		if i, ok = s.probe(t, tag); ok {
			return false
		}
	}
	if (len(s.order)+1)*maxLoadDen > len(s.slots)*maxLoadNum {
		s.grow()
		i, _ = s.probe(t, tag)
	}
	s.slots[i] = uint64(tag)<<32 | uint64(len(s.order)+1)
	s.order = append(s.order, t)
	return true
}

// AddAll inserts every tuple of ts.
func (s *TupleSet) AddAll(ts []Tuple) {
	for _, t := range ts {
		s.Add(t)
	}
}

// Remove deletes t and reports whether it was present, in O(1): its slot
// is emptied by backward-shift deletion (the entries after it in the probe
// run move up, so no tombstone is left), then the last tuple is swapped
// into the vacated row and its slot repointed — one extra key hash, no
// allocation. This is what keeps commit cost proportional to |ΔD| instead
// of |R| — see the ordering contract on TupleSet.
func (s *TupleSet) Remove(t Tuple) bool {
	if len(s.slots) == 0 {
		return false
	}
	i, ok := s.probe(t, tupleTag(t))
	if !ok {
		return false
	}
	row := slotRow(s.slots[i])
	s.deleteSlot(i)
	last := len(s.order) - 1
	if row != last {
		moved := s.order[last]
		j := s.rowSlot(moved, last)
		s.slots[j] = s.slots[j]&^0xffffffff | uint64(row+1)
		s.order[row] = moved
	}
	s.order[last] = nil
	s.order = s.order[:last]
	return true
}

// deleteSlot empties slot i by backward shift: each later entry of the
// probe run whose home slot does not lie strictly between the hole and
// itself moves into the hole, which then advances to where it was.
func (s *TupleSet) deleteSlot(i uint32) {
	mask := uint32(len(s.slots) - 1)
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		home := slotTag(s.slots[j]) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}

// Contains reports whether t is in the set. Allocation-free: t is only
// hashed and compared.
func (s *TupleSet) Contains(t Tuple) bool {
	_, ok := s.Find(t)
	return ok
}

// Find returns the stored tuple Equal to t, if any. Allocation-free like
// Contains; callers that hand the tuple out get the set's own copy rather
// than t, whose backing array the caller may reuse.
func (s *TupleSet) Find(t Tuple) (Tuple, bool) {
	if len(s.slots) == 0 {
		return nil, false
	}
	i, ok := s.probe(t, tupleTag(t))
	if !ok {
		return nil, false
	}
	return s.order[slotRow(s.slots[i])], true
}

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.order) }

// Tuples returns the tuples in the set's current order (see the ordering
// contract on TupleSet). The returned slice is owned by the set; callers
// must not mutate it or hold it across updates.
func (s *TupleSet) Tuples() []Tuple { return s.order }

// Clone returns an independent copy of the set: the order slice and the
// table are copied as they are — no tuple is re-keyed or re-hashed.
func (s *TupleSet) Clone() *TupleSet {
	return &TupleSet{
		order: append(make([]Tuple, 0, len(s.order)), s.order...),
		slots: slices.Clone(s.slots),
	}
}

// Equal reports whether two sets contain exactly the same tuples,
// regardless of insertion order.
func (s *TupleSet) Equal(o *TupleSet) bool {
	if s.Len() != o.Len() {
		return false
	}
	for _, t := range s.order {
		if !o.Contains(t) {
			return false
		}
	}
	return true
}
