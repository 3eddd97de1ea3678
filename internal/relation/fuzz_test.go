package relation

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// decodeFuzzTuple deterministically builds a tuple from a byte stream:
// a tag byte picks the value kind, ints take the next 8 bytes, strings a
// length byte plus payload. The decoder is total — any input yields some
// tuple — so the fuzzer explores kind mixes, embedded NULs, and strings
// that look like encoded integers, which is exactly where a non-injective
// key encoding would fold two tuples together.
func decodeFuzzTuple(data []byte) Tuple {
	var t Tuple
	for len(data) > 0 && len(t) < 8 {
		tag := data[0]
		data = data[1:]
		switch tag % 3 {
		case 0:
			t = append(t, Null())
		case 1:
			var buf [8]byte
			copy(buf[:], data)
			if len(data) > 8 {
				data = data[8:]
			} else {
				data = nil
			}
			t = append(t, Int(int64(binary.LittleEndian.Uint64(buf[:]))))
		case 2:
			n := 0
			if len(data) > 0 {
				n = int(data[0] % 16)
				data = data[1:]
			}
			if n > len(data) {
				n = len(data)
			}
			t = append(t, Str(string(data[:n])))
			data = data[n:]
		}
	}
	return t
}

// FuzzTupleKeyInjective checks the documented contract of Tuple.Key —
// two tuples have equal keys iff they are Equal — on adversarial pairs,
// plus the equivalence of the allocation-free projection path: keying a
// tuple at positions must byte-equal keying its materialized projection.
// Projection-index probes, dedup maps and shard routing ride on these
// two properties. The seeded hash that tuple sets and index slot tables
// key by must agree the same way: equal tuples hash equal, and hashing a
// tuple at positions equals hashing its materialized projection.
func FuzzTupleKeyInjective(f *testing.F) {
	f.Add([]byte{1, 7, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 1, '7'}, byte(0))
	f.Add([]byte{0, 0}, []byte{0}, byte(1))
	f.Add([]byte{2, 3, 'a', 0, 'b', 1}, []byte{2, 2, 'a', 0, 2, 1, 'b'}, byte(3))
	// The payloads the value layout escapes or could confuse with its
	// int marker: empty, NUL-led, marker-shaped, and non-ASCII strings,
	// against each other and against ints.
	f.Add([]byte{2, 0}, []byte{2, 1, 0}, byte(1))
	f.Add([]byte{2, 2, 0, 0}, []byte{2, 2, 0, 1}, byte(1))
	f.Add([]byte{2, 2, 0, 1}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}, byte(1))
	f.Add([]byte{2, 3, 0, 1, 'x'}, []byte{2, 2, 0, 2, 0}, byte(1))
	f.Add([]byte{2, 4, 0xc3, 0xbc, 0xe3, 0x82}, []byte{2, 2, 0xc3, 0xbc}, byte(1))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, posBits byte) {
		a, b := decodeFuzzTuple(rawA), decodeFuzzTuple(rawB)
		ka, kb := a.AppendKey(nil), b.AppendKey(nil)
		if eq, keq := a.Equal(b), bytes.Equal(ka, kb); eq != keq {
			t.Fatalf("key injectivity broken: Equal=%v but key equality=%v\na=%v key=%q\nb=%v key=%q",
				eq, keq, a, ka, b, kb)
		}
		if string(ka) != a.Key() {
			t.Fatalf("AppendKey and Key disagree: %q vs %q", ka, a.Key())
		}
		var pos []int
		for i := range a {
			if posBits&(1<<i) != 0 {
				pos = append(pos, i)
			}
		}
		direct := a.AppendKeyAt(nil, pos)
		viaProject := a.Project(pos).AppendKey(nil)
		if !bytes.Equal(direct, viaProject) {
			t.Fatalf("AppendKeyAt(%v) = %q, but Project+AppendKey = %q for %v", pos, direct, viaProject, a)
		}
		all := func(t Tuple) []int {
			ps := make([]int, len(t))
			for i := range ps {
				ps[i] = i
			}
			return ps
		}
		if a.Equal(b) && a.HashAt(all(a)) != b.HashAt(all(b)) {
			t.Fatalf("equal tuples %v and %v hash apart", a, b)
		}
		if p := a.Project(pos); a.HashAt(pos) != p.HashAt(all(p)) || tupleTag(p) != uint32(p.HashAt(all(p)))&tagMask {
			t.Fatalf("HashAt(%v) of %v disagrees with hashing its projection %v", pos, a, p)
		}
	})
}

// FuzzTupleSetOps drives a TupleSet through a byte-coded sequence of Add,
// Remove, Contains and Clone, checked at every step against a
// map[string]bool and at the end by the table invariant checker. Each
// operation takes two bytes: the opcode and a tuple drawn from a small
// domain of int and string pairs, so operations keep hitting the same
// tuples. The first byte's low bit narrows tags to three bits, forcing
// collisions that only Tuple.Equal can resolve and probe runs that wrap.
// A Clone continues on the copy; the original must keep its contents.
// Sequences are cut at 128 operations, which the small domain saturates,
// so that long inputs do not slow the search quadratically.
func FuzzTupleSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1, 1, 1, 2, 1})
	f.Add([]byte{1, 0, 3, 0, 11, 0, 19, 3, 0, 1, 3, 2, 11, 0, 3, 1, 19})
	f.Add([]byte{1, 0, 200, 0, 201, 0, 202, 1, 200, 3, 0, 0, 200, 1, 202})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if ops[0]&1 != 0 {
			narrowTags(t, 0x7)
		}
		ops = ops[1:min(len(ops), 257)]
		s := NewTupleSet(int(len(ops) % 5))
		ref := make(map[string]bool)
		type frozen struct {
			s   *TupleSet
			ref map[string]bool
		}
		var clones []frozen
		for ; len(ops) >= 2; ops = ops[2:] {
			b := ops[1]
			tu := Ints(int64(b&0x1f), int64(b>>5))
			if b&0x80 != 0 {
				tu = NewTuple(Str(string(rune('a'+b&0x7))), Int(int64(b>>3&0x3)))
			}
			k := tu.Key()
			switch ops[0] % 4 {
			case 0:
				if s.Add(tu) == ref[k] {
					t.Fatalf("Add(%v) = %v with reference membership %v", tu, !ref[k], ref[k])
				}
				ref[k] = true
			case 1:
				if s.Remove(tu) != ref[k] {
					t.Fatalf("Remove(%v) disagrees with reference membership %v", tu, ref[k])
				}
				delete(ref, k)
			case 2:
				if s.Contains(tu) != ref[k] {
					t.Fatalf("Contains(%v) disagrees with reference membership %v", tu, ref[k])
				}
			case 3:
				snap := make(map[string]bool, len(ref))
				for k := range ref {
					snap[k] = true
				}
				clones = append(clones, frozen{s, snap})
				s = s.Clone()
			}
			if s.Len() != len(ref) {
				t.Fatalf("Len = %d, reference holds %d", s.Len(), len(ref))
			}
		}
		clones = append(clones, frozen{s, ref})
		for _, c := range clones {
			checkTupleSetInvariants(t, c.s)
			if c.s.Len() != len(c.ref) {
				t.Fatalf("set of %d tuples, reference holds %d", c.s.Len(), len(c.ref))
			}
			for _, tu := range c.s.Tuples() {
				if !c.ref[tu.Key()] {
					t.Fatalf("set holds %v, absent from the reference", tu)
				}
				if !c.s.Contains(tu) {
					t.Fatalf("set iterates %v but does not contain it", tu)
				}
			}
		}
	})
}
