package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// narrowTags lowers tagMask for the rest of the test so that tags collide
// constantly: probes must then resolve by the stored Int key or by the
// group's first tuple, and probe runs grow long enough to wrap and to
// exercise every backward-shift case. Indexes built under one mask must
// not be used under another.
func narrowTags(t testing.TB, mask uint32) {
	old := tagMask
	tagMask = mask
	t.Cleanup(func() { tagMask = old })
}

// checkIndexInvariants verifies the slot table behind the index against
// its groups after any operation mix: the table is a power of two within
// its load limit; every group is non-empty, keyed alike throughout, keeps
// no tuple past its length, and is referenced by exactly one slot; each slot's tag, Int flag and Int key
// are what keyTag computes for its group's first tuple; every slot is
// reachable from its home slot without crossing an empty one (so a probe
// finds it); and Len is the sum of the group sizes.
func checkIndexInvariants(t *testing.T, ix *Index) {
	t.Helper()
	n := len(ix.slots)
	if n&(n-1) != 0 {
		t.Fatalf("invariant: table length %d is not zero or a power of two", n)
	}
	if len(ix.groups)*maxLoadDen > n*maxLoadNum {
		t.Fatalf("invariant: %d groups overload a table of %d slots", len(ix.groups), n)
	}
	total := 0
	for g, ts := range ix.groups {
		if len(ts) == 0 {
			t.Fatalf("invariant: group %d is empty", g)
		}
		for _, u := range ts {
			if !ix.keyEqual(ts[0], u, ix.positions) {
				t.Fatalf("invariant: group %d holds %v beside %v under another key", g, u, ts[0])
			}
		}
		for _, u := range ts[len(ts):cap(ts)] {
			if u != nil {
				t.Fatalf("invariant: group %d keeps removed tuple %v past its length", g, u)
			}
		}
		total += len(ts)
	}
	if total != ix.Len() {
		t.Fatalf("invariant: groups hold %d tuples, Len = %d", total, ix.Len())
	}
	refs := make([]int, len(ix.groups))
	used := 0
	mask := n - 1
	for i, s := range ix.slots {
		if s.grp == 0 {
			if s != (slot{}) {
				t.Fatalf("invariant: empty slot %d is not zero: %+v", i, s)
			}
			continue
		}
		used++
		g := s.gid()
		if g < 0 || g >= len(ix.groups) {
			t.Fatalf("invariant: slot %d references group %d of %d", i, g, len(ix.groups))
		}
		refs[g]++
		first := ix.groups[g][0]
		tag, k, isInt := keyTag(first, ix.positions)
		if s.tag != tag {
			t.Fatalf("invariant: slot %d has tag %#x, but group %d %v hashes to %#x", i, s.tag, g, first, tag)
		}
		if (s.grp&intKey != 0) != isInt || (isInt && s.key != k) || (!isInt && s.key != 0) {
			t.Fatalf("invariant: slot %d (int flag %v, key %d) disagrees with group %d's key %v",
				i, s.grp&intKey != 0, s.key, g, first)
		}
		for j := int(s.tag) & mask; j != i; j = (j + 1) & mask {
			if ix.slots[j].grp == 0 {
				t.Fatalf("invariant: slot %d (group %d) is cut off from its home slot by empty slot %d", i, g, j)
			}
		}
	}
	for g, c := range refs {
		if c != 1 {
			t.Fatalf("invariant: group %d %v is referenced by %d slots, want 1", g, ix.groups[g][0], c)
		}
	}
	if used != len(ix.groups) {
		t.Fatalf("invariant: %d occupied slots, %d groups", used, len(ix.groups))
	}
}

// indexShapes are the key shapes the fuzzer drives, over R(a, b, c): a
// single column holding Int and string values mixed, a single column of
// strings, two columns, and the empty key.
var indexShapes = [][]string{{"a"}, {"c"}, {"a", "c"}, nil}

// fuzzIndexTuple draws a tuple of R(a, b, c) from one byte: a is an Int
// (often a negative or zero one) or, when the top bit is set, a string; b
// tells tuples of one key apart; c is one of three strings, one of them
// empty and one starting with NUL, which the value layout escapes.
func fuzzIndexTuple(x byte) relation.Tuple {
	a := relation.Int(int64(x&0x7) - 2)
	if x&0x80 != 0 {
		a = relation.Str(string(rune('p' + x&0x3)))
	}
	c := relation.Str([]string{"", "\x00", "c"}[int(x>>3&0x3)%3])
	return relation.NewTuple(a, relation.Int(int64(x>>5&0x3)), c)
}

// runIndexOps drives an Index through a byte-coded sequence against a
// map[string][]relation.Tuple reference that mirrors the documented
// swap-remove order. The first byte picks the key shape (bits 1–2) and,
// with its low bit, narrows tags to the mask in bits 3–5 — at most three
// bits, and none at all for mask 0, where every key collides. Each
// operation then takes
// two bytes, an opcode and a tuple: Add (duplicates included, which the
// index keeps as the reference does), Remove, Lookup, Count, MaxBucket,
// Len and Buckets. Lookup must return the reference group in its order.
func runIndexOps(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	if ops[0]&1 != 0 {
		narrowTags(t, uint32(ops[0]>>3&0x7))
	}
	attrs := indexShapes[ops[0]>>1&0x3]
	ops = ops[1:min(len(ops), 257)]
	rs := relation.MustRelSchema("R", "a", "b", "c")
	pos, _ := rs.Positions(attrs)
	ix, err := New(rs, attrs)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string][]relation.Tuple)
	refLen := 0
	for step := 0; len(ops) >= 2; ops, step = ops[2:], step+1 {
		tu := fuzzIndexTuple(ops[1])
		vals := []relation.Value(tu.Project(pos))
		k := tu.Project(pos).Key()
		switch ops[0] % 7 {
		case 0:
			ix.Add(tu)
			ref[k] = append(ref[k], tu)
			refLen++
		case 1:
			g := ref[k]
			j := slices.IndexFunc(g, tu.Equal)
			if got := ix.Remove(tu); got != (j >= 0) {
				t.Fatalf("step %d: Remove(%v) = %v, reference holds it: %v", step, tu, got, j >= 0)
			}
			if j >= 0 {
				last := len(g) - 1
				g[j] = g[last]
				if g = g[:last]; len(g) == 0 {
					delete(ref, k)
				} else {
					ref[k] = g
				}
				refLen--
			}
		case 2:
			got, err := ix.Lookup(vals)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, ref[k], relation.Tuple.Equal) {
				t.Fatalf("step %d: Lookup(%v) = %v, reference group %v", step, vals, got, ref[k])
			}
		case 3:
			if got, _ := ix.Count(vals); got != len(ref[k]) {
				t.Fatalf("step %d: Count(%v) = %d, reference %d", step, vals, got, len(ref[k]))
			}
		case 4:
			want := 0
			for _, g := range ref {
				want = max(want, len(g))
			}
			if got := ix.MaxBucket(); got != want {
				t.Fatalf("step %d: MaxBucket = %d, reference %d", step, got, want)
			}
		case 5:
			if ix.Len() != refLen {
				t.Fatalf("step %d: Len = %d, reference %d", step, ix.Len(), refLen)
			}
		case 6:
			if ix.Buckets() != len(ref) {
				t.Fatalf("step %d: Buckets = %d, reference %d", step, ix.Buckets(), len(ref))
			}
		}
	}
	checkIndexInvariants(t, ix)
	if ix.Len() != refLen || ix.Buckets() != len(ref) {
		t.Fatalf("index holds %d tuples in %d groups, reference %d in %d", ix.Len(), ix.Buckets(), refLen, len(ref))
	}
	for k, g := range ref {
		vals := []relation.Value(g[0].Project(pos))
		got, _ := ix.Lookup(vals)
		if !slices.EqualFunc(got, g, relation.Tuple.Equal) {
			t.Fatalf("group %q: Lookup = %v, reference %v", k, got, g)
		}
	}
}

// FuzzIndexOps checks Index against its reference under coverage-guided
// operation sequences (see runIndexOps for the encoding).
func FuzzIndexOps(f *testing.F) {
	for shape := byte(0); shape < 4; shape++ {
		f.Add([]byte{shape << 1, 0, 1, 0, 2, 0, 0x81, 2, 1, 1, 1, 2, 1, 4, 0, 6, 0})
		f.Add([]byte{0x7<<3 | shape<<1 | 1, 0, 3, 0, 11, 0, 19, 0, 0x83, 1, 11, 2, 3, 1, 3, 2, 19, 4, 0})
		f.Add([]byte{shape<<1 | 1, 0, 0x80, 0, 0x81, 0, 2, 2, 2, 1, 0x80, 2, 2, 6, 0})
	}
	f.Fuzz(runIndexOps)
}

// The fuzz driver over fixed pseudo-random sequences, so that every
// `go test` run covers each shape under wide and narrow tags with long
// add/remove mixes and not only the seed corpus.
func TestIndexOpsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 128; trial++ {
		ops := make([]byte, 1+2*120)
		rng.Read(ops)
		ops[0] = byte(trial % 64)
		for i := 1; i < len(ops); i += 2 {
			// Bias toward Add so that groups grow, split and wrap.
			if ops[i]%3 == 0 {
				ops[i] = 0
			}
		}
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runIndexOps(t, ops) })
	}
}

// Build must produce the same table and groups as Adding the relation's
// tuples one by one, at exact capacity, under wide and narrow tags.
func TestBuildMatchesAdds(t *testing.T) {
	for _, mask := range []uint32{^uint32(0), 0x7} {
		narrowTags(t, mask)
		rs := relation.MustRelSchema("R", "a", "b", "c")
		r := relation.NewRelation(rs)
		for x := 0; x < 256; x++ {
			r.MustInsert(fuzzIndexTuple(byte(x)))
		}
		for _, attrs := range indexShapes {
			built, err := Build(r, attrs)
			if err != nil {
				t.Fatal(err)
			}
			added, _ := New(rs, attrs)
			for _, tu := range r.Tuples() {
				added.Add(tu)
			}
			checkIndexInvariants(t, built)
			if !slices.Equal(built.slots, added.slots) {
				t.Fatalf("%v: Build's table differs from sequential Adds'", attrs)
			}
			for g, ts := range built.groups {
				if !slices.EqualFunc(ts, added.groups[g], relation.Tuple.Equal) || cap(ts) != len(ts) {
					t.Fatalf("%v: group %d = %v (cap %d), sequential Adds %v", attrs, g, ts, cap(ts), added.groups[g])
				}
			}
		}
	}
}

// A group that outgrows the array Build carved for it must leave that
// array's cells empty: the slab is shared with every other group, so a
// stale cell would keep a tuple alive after its removal.
func TestGrownGroupReleasesSlab(t *testing.T) {
	rs := relation.MustRelSchema("R", "a", "b")
	r := relation.NewRelation(rs)
	r.MustInsert(relation.Ints(1, 1))
	r.MustInsert(relation.Ints(2, 1))
	ix, err := Build(r, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	carved := ix.groups[0]
	ix.Add(relation.Ints(1, 2))
	if carved[0] != nil {
		t.Fatalf("the outgrown slab cell still holds %v", carved[0])
	}
	checkIndexInvariants(t, ix)
	if got, _ := ix.Count([]relation.Value{relation.Int(1)}); got != 2 {
		t.Fatalf("group 1 holds %d tuples after the move, want 2", got)
	}
}
