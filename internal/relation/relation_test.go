package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueBasics(t *testing.T) {
	iv := Int(42)
	sv := Str("abc")
	nv := Null()
	if iv.Kind() != KindInt || sv.Kind() != KindString || nv.Kind() != KindNull {
		t.Fatalf("kinds wrong: %v %v %v", iv.Kind(), sv.Kind(), nv.Kind())
	}
	if iv.AsInt() != 42 {
		t.Errorf("AsInt = %d", iv.AsInt())
	}
	if sv.AsString() != "abc" {
		t.Errorf("AsString = %q", sv.AsString())
	}
	if !nv.IsNull() || iv.IsNull() {
		t.Errorf("IsNull wrong")
	}
	if iv.String() != "42" || sv.String() != "'abc'" || nv.String() != "⊥" {
		t.Errorf("String renderings: %s %s %s", iv, sv, nv)
	}
}

func TestValueAsIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsInt on string did not panic")
		}
	}()
	_ = Str("x").AsInt()
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{Null(), Int(-5), Int(0), Int(7), Str(""), Str("a"), Str("b")}
	for i := range vals {
		for j := range vals {
			c := vals[i].Compare(vals[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", vals[i], vals[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", vals[i], vals[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", vals[i], vals[j], c)
			}
		}
	}
}

// A stored tuple pays for every byte of each of its values, so the value
// layout is pinned: a string and an int64, the kind carried in the string.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// The kind-in-the-string layout must keep every property the 3-field
// value had, above all on the payloads it escapes: == holds exactly when
// Compare reports 0, when the AppendKey bytes agree and when Equal says
// so; the accessors round-trip; and null is the zero Value, distinct from
// Int(0) and Str("").
func TestValueLayoutProperties(t *testing.T) {
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	strs := []string{"", "\x00", "\x00\x00", "\x00\x01", "\x00\x01x", "\x00\x02", "x", "ünï\u30b3ード"}
	vals := []Value{Null()}
	for _, n := range ints {
		v := Int(n)
		if v.Kind() != KindInt || v.AsInt() != n || v.IsNull() {
			t.Errorf("Int(%d): kind %v, AsInt %d, IsNull %v", n, v.Kind(), v.AsInt(), v.IsNull())
		}
		vals = append(vals, v)
	}
	for _, s := range strs {
		v := Str(s)
		if v.Kind() != KindString || v.AsString() != s || v.IsNull() {
			t.Errorf("Str(%q): kind %v, AsString %q, IsNull %v", s, v.Kind(), v.AsString(), v.IsNull())
		}
		if v.String() != "'"+s+"'" {
			t.Errorf("Str(%q).String() = %q", s, v.String())
		}
		vals = append(vals, v)
	}
	if !(Value{}).IsNull() || Null() != (Value{}) || Null() == Int(0) || Null() == Str("") || Int(0) == Str("") {
		t.Error("null must be the zero Value and differ from Int(0) and Str(\"\")")
	}
	for i, v := range vals {
		for j, w := range vals {
			eq, cmp := v == w, v.Compare(w) == 0
			keq := bytes.Equal(NewTuple(v).AppendKey(nil), NewTuple(w).AppendKey(nil))
			if eq != (i == j) || cmp != eq || keq != eq || v.Equal(w) != eq {
				t.Errorf("%v vs %v: == %v, Compare==0 %v, equal keys %v, Equal %v; want all %v", v, w, eq, cmp, keq, v.Equal(w), i == j)
			}
		}
	}
	// Strings order as their payloads, escaped or not.
	for _, s := range strs {
		for _, u := range strs {
			want := strings.Compare(s, u)
			if got := Str(s).Compare(Str(u)); got != want {
				t.Errorf("Compare(%q, %q) = %d, want %d", s, u, got, want)
			}
		}
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"123", Int(123)},
		{"-9", Int(-9)},
		{"'123'", Str("123")},
		{"NYC", Str("NYC")},
		{"'NYC'", Str("NYC")},
		{"", Str("")},
	}
	for _, c := range cases {
		if got := ParseValue(c.in); got != c.want {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Key must be injective: distinct tuples get distinct keys.
func TestTupleKeyInjective(t *testing.T) {
	tricky := []Tuple{
		Ints(1, 2),
		Ints(12),
		NewTuple(Str("1"), Int(2)),
		NewTuple(Int(1), Str("2")),
		Strs("a", "bc"),
		Strs("ab", "c"),
		Strs("abc"),
		Strs("a", "", "bc"),
	}
	seen := make(map[string]Tuple)
	for _, tu := range tricky {
		k := tu.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %v and %v", prev, tu)
		}
		seen[k] = tu
	}
}

func TestTupleKeyQuick(t *testing.T) {
	// Random pairs of int/string tuples: equal keys iff equal tuples.
	f := func(a, b []int64, as, bs []string) bool {
		ta := append(Ints(a...), Strs(as...)...)
		tb := append(Ints(b...), Strs(bs...)...)
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTupleProjectClone(t *testing.T) {
	tu := NewTuple(Int(1), Str("x"), Int(3))
	p := tu.Project([]int{2, 0})
	if !p.Equal(NewTuple(Int(3), Int(1))) {
		t.Errorf("Project = %v", p)
	}
	c := tu.Clone()
	c[0] = Int(99)
	if tu[0] != Int(1) {
		t.Error("Clone shares storage")
	}
}

func TestTupleSet(t *testing.T) {
	s := NewTupleSet(0)
	if !s.Add(Ints(1)) || s.Add(Ints(1)) {
		t.Fatal("Add dedup broken")
	}
	s.Add(Ints(2))
	s.Add(Ints(3))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Remove(Ints(2)) || s.Remove(Ints(2)) {
		t.Fatal("Remove broken")
	}
	// Iteration order after a removal is unspecified (swap-remove); only
	// the contents are contractual.
	if s.Len() != 2 || !s.Contains(Ints(1)) || !s.Contains(Ints(3)) || s.Contains(Ints(2)) {
		t.Errorf("contents after remove = %v", s.Tuples())
	}
	c := s.Clone()
	c.Add(Ints(9))
	if s.Contains(Ints(9)) {
		t.Error("Clone shares state")
	}
	o := NewTupleSet(0)
	o.Add(Ints(3))
	o.Add(Ints(1))
	if !s.Equal(o) {
		t.Error("Equal should ignore order")
	}
}

// checkTupleSetInvariants verifies the open-addressing table behind the
// swap-remove design against the order slice after any operation mix:
// every row is referenced by exactly one slot, each slot's tag is its
// tuple's hash, every entry is reachable from its home slot without
// crossing an empty slot (so a probe finds it), and the table holds
// exactly Len entries below its load limit.
func checkTupleSetInvariants(t *testing.T, s *TupleSet) {
	t.Helper()
	n := len(s.slots)
	if n&(n-1) != 0 {
		t.Fatalf("invariant: table length %d is not zero or a power of two", n)
	}
	if s.Len() > 0 && s.Len()*maxLoadDen > n*maxLoadNum {
		t.Fatalf("invariant: %d entries overload a table of %d slots", s.Len(), n)
	}
	refs := make([]int, s.Len())
	used := 0
	mask := n - 1
	for i, e := range s.slots {
		if e == 0 {
			continue
		}
		used++
		row := slotRow(e)
		if row < 0 || row >= s.Len() {
			t.Fatalf("invariant: slot %d references row %d of %d", i, row, s.Len())
		}
		refs[row]++
		if tag := tupleTag(s.order[row]); slotTag(e) != tag {
			t.Fatalf("invariant: slot %d has tag %#x, but row %d %v hashes to %#x", i, slotTag(e), row, s.order[row], tag)
		}
		for j := int(slotTag(e)) & mask; j != i; j = (j + 1) & mask {
			if s.slots[j] == 0 {
				t.Fatalf("invariant: slot %d (row %d) is cut off from its home slot by empty slot %d", i, row, j)
			}
		}
	}
	for row, k := range refs {
		if k != 1 {
			t.Fatalf("invariant: row %d %v is referenced by %d slots, want 1", row, s.order[row], k)
		}
	}
	if used != s.Len() {
		t.Fatalf("invariant: %d occupied slots, Len = %d", used, s.Len())
	}
}

// narrowTags lowers tagMask for the rest of the test so that tags collide
// constantly: lookups must then resolve by Tuple.Equal, and probe runs
// grow long enough to wrap and to exercise every backward-shift case.
// Sets built under one mask must not be used under another.
func narrowTags(t testing.TB, mask uint32) {
	old := tagMask
	tagMask = mask
	t.Cleanup(func() { tagMask = old })
}

// Set semantics must hold under random interleavings of adds and removes,
// mirrored against a reference map implementation, and the table
// invariants must hold at every point — including after remove-then-readd
// cycles, which exercise the slot reuse the swap-remove design performs.
// The narrow-tag run makes most tuples collide on their tag.
func TestTupleSetQuickAgainstMap(t *testing.T) {
	for _, mask := range []uint32{^uint32(0), 0x7} {
		t.Run(fmt.Sprintf("tags=%#x", mask), func(t *testing.T) {
			narrowTags(t, mask)
			tupleSetQuickAgainstMap(t)
		})
	}
}

func tupleSetQuickAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewTupleSet(0)
	ref := make(map[string]bool)
	contains := func(i int, tu Tuple, k string) {
		if s.Contains(tu) != ref[k] {
			t.Fatalf("step %d: Contains(%v) disagrees with reference", i, tu)
		}
	}
	for i := 0; i < 2000; i++ {
		tu := Ints(int64(rng.Intn(50)), int64(rng.Intn(3)))
		k := tu.Key()
		switch rng.Intn(4) {
		case 0:
			if s.Remove(tu) != ref[k] {
				t.Fatalf("step %d: Remove disagrees with reference", i)
			}
			delete(ref, k)
		case 1:
			// Remove-then-readd: the re-added tuple lands in a fresh slot and
			// every displaced tuple's slot must have followed it.
			s.Remove(tu)
			delete(ref, k)
			if !s.Add(tu) {
				t.Fatalf("step %d: re-add after remove rejected", i)
			}
			ref[k] = true
		default:
			if s.Add(tu) == ref[k] {
				t.Fatalf("step %d: Add disagrees with reference", i)
			}
			ref[k] = true
		}
		contains(i, tu, k)
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len %d != %d", i, s.Len(), len(ref))
		}
		if i%50 == 0 {
			checkTupleSetInvariants(t, s)
		}
	}
	checkTupleSetInvariants(t, s)
	for _, tu := range s.Tuples() {
		if !ref[tu.Key()] {
			t.Fatalf("set holds %v, absent from the reference", tu)
		}
	}
}

// Clone must copy the swap-remove representation directly and leave the
// copies fully independent, with invariants intact on both sides.
func TestTupleSetCloneAfterRemoves(t *testing.T) {
	s := NewTupleSet(0)
	for i := 0; i < 20; i++ {
		s.Add(Ints(int64(i), int64(i%3)))
	}
	for i := 0; i < 20; i += 4 {
		s.Remove(Ints(int64(i), int64(i%3)))
	}
	c := s.Clone()
	checkTupleSetInvariants(t, c)
	if !c.Equal(s) {
		t.Fatal("clone differs from original")
	}
	c.Remove(Ints(1, 1))
	c.Add(Ints(99, 0))
	if !s.Contains(Ints(1, 1)) || s.Contains(Ints(99, 0)) {
		t.Fatal("clone shares state with original")
	}
	checkTupleSetInvariants(t, s)
	checkTupleSetInvariants(t, c)
}

func TestRelSchemaValidation(t *testing.T) {
	if _, err := NewRelSchema("", "a"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRelSchema("R"); err == nil {
		t.Error("zero attrs accepted")
	}
	if _, err := NewRelSchema("R", "a", "a"); err == nil {
		t.Error("duplicate attrs accepted")
	}
	rs := MustRelSchema("R", "a", "b", "c")
	if rs.Arity() != 3 || rs.AttrIndex("b") != 1 || rs.AttrIndex("z") != -1 {
		t.Error("lookup broken")
	}
	pos, err := rs.Positions([]string{"c", "a"})
	if err != nil || !reflect.DeepEqual(pos, []int{2, 0}) {
		t.Errorf("Positions = %v, %v", pos, err)
	}
	if _, err := rs.Positions([]string{"zz"}); err == nil {
		t.Error("unknown attr accepted")
	}
	if rs.String() != "R(a, b, c)" {
		t.Errorf("String = %s", rs)
	}
}

func TestSchema(t *testing.T) {
	s := MustSchema(MustRelSchema("R", "a"), MustRelSchema("S", "b", "c"))
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if err := s.Add(MustRelSchema("R", "x")); err == nil {
		t.Error("duplicate relation accepted")
	}
	if rs, ok := s.Rel("S"); !ok || rs.Arity() != 2 {
		t.Error("Rel lookup broken")
	}
	if !reflect.DeepEqual(s.Names(), []string{"R", "S"}) {
		t.Errorf("Names = %v", s.Names())
	}
}

func TestRelationInsertDelete(t *testing.T) {
	r := NewRelation(MustRelSchema("R", "a", "b"))
	ok, err := r.Insert(Ints(1, 2))
	if !ok || err != nil {
		t.Fatalf("Insert: %v %v", ok, err)
	}
	if ok, _ := r.Insert(Ints(1, 2)); ok {
		t.Error("duplicate insert reported new")
	}
	if _, err := r.Insert(Ints(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := r.Insert(NewTuple(Int(1), Null())); err == nil {
		t.Error("null value accepted")
	}
	if !r.Contains(Ints(1, 2)) || r.Len() != 1 {
		t.Error("Contains/Len broken")
	}
	if !r.Delete(Ints(1, 2)) || r.Delete(Ints(1, 2)) {
		t.Error("Delete broken")
	}
}

func socialSchema() *Schema {
	return MustSchema(
		MustRelSchema("person", "id", "name", "city"),
		MustRelSchema("friend", "id1", "id2"),
	)
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase(socialSchema())
	db.MustInsert("person", NewTuple(Int(1), Str("ann"), Str("NYC")))
	db.MustInsert("person", NewTuple(Int(2), Str("bob"), Str("LA")))
	db.MustInsert("friend", Ints(1, 2))
	if db.Size() != 3 {
		t.Fatalf("Size = %d", db.Size())
	}
	if _, err := db.Insert("nosuch", Ints(1)); err == nil {
		t.Error("unknown relation accepted")
	}
	ad := db.ActiveDomain()
	if len(ad) != 6 { // 1, 2, 'LA', 'NYC', 'ann', 'bob'
		t.Errorf("ActiveDomain = %v", ad)
	}
	for i := 1; i < len(ad); i++ {
		if !ad[i-1].Less(ad[i]) {
			t.Errorf("ActiveDomain not sorted at %d", i)
		}
	}
	c := db.Clone()
	c.MustInsert("friend", Ints(2, 1))
	if db.Rel("friend").Contains(Ints(2, 1)) {
		t.Error("Clone shares state")
	}
	if !db.Subset(c) || c.Subset(db) {
		t.Error("Subset broken")
	}
	if db.Equal(c) {
		t.Error("Equal broken")
	}
}

func TestUpdateValidateApply(t *testing.T) {
	db := NewDatabase(socialSchema())
	db.MustInsert("friend", Ints(1, 2))
	db.MustInsert("friend", Ints(1, 3))

	u := NewUpdate().Insert("friend", Ints(1, 4)).Delete("friend", Ints(1, 2))
	if err := u.Validate(db); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if u.IsInsertOnly() {
		t.Error("IsInsertOnly wrong")
	}
	if u.Size() != 2 {
		t.Errorf("Size = %d", u.Size())
	}
	db2, err := db.Applied(u)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Rel("friend").Contains(Ints(1, 2)) || !db2.Rel("friend").Contains(Ints(1, 4)) {
		t.Error("Applied wrong")
	}
	if !db.Rel("friend").Contains(Ints(1, 2)) {
		t.Error("Applied mutated the original")
	}
	// Applying the inverse restores the original.
	db3, err := db2.Applied(u.Inverse())
	if err != nil {
		t.Fatal(err)
	}
	if !db3.Equal(db) {
		t.Error("inverse did not restore")
	}

	bad := NewUpdate().Delete("friend", Ints(9, 9))
	if err := bad.Validate(db); err == nil {
		t.Error("deleting absent tuple accepted")
	}
	bad2 := NewUpdate().Insert("friend", Ints(1, 2))
	if err := bad2.Validate(db); err == nil {
		t.Error("inserting present tuple accepted")
	}
	bad3 := NewUpdate().Insert("friend", Ints(5, 5)).Delete("friend", Ints(5, 5))
	if err := bad3.Validate(db); err == nil {
		t.Error("overlapping ins/del accepted")
	}
	bad4 := NewUpdate().Insert("friend", Ints(7, 7)).Insert("friend", Ints(7, 7))
	if err := bad4.Validate(db); err == nil {
		t.Error("duplicate insertion accepted")
	}
}

// TestUpdateValidateErrors pins the text of every error Validate can
// return. A tuple both inserted and deleted fails as an insertion already
// present when it is present, and as a deletion not present otherwise.
func TestUpdateValidateErrors(t *testing.T) {
	db := NewDatabase(socialSchema())
	db.MustInsert("friend", Ints(1, 2))
	for _, tc := range []struct {
		u    *Update
		want string
	}{
		{NewUpdate().Delete("nope", Ints(1, 2)), `update: unknown relation "nope"`},
		{NewUpdate().Insert("nope", Ints(1, 2)), `update: unknown relation "nope"`},
		{NewUpdate().Delete("friend", Ints(9, 9)), "update: deletion (9, 9) not present in friend"},
		{NewUpdate().Delete("friend", Ints(1, 2)).Delete("friend", Ints(1, 2)), "update: duplicate deletion (1, 2) from friend"},
		{NewUpdate().Insert("friend", Ints(1, 2)), "update: insertion (1, 2) already present in friend"},
		{NewUpdate().Insert("friend", Ints(7, 7)).Insert("friend", Ints(7, 7)), "update: duplicate insertion (7, 7) into friend"},
		{NewUpdate().Insert("friend", Ints(7, 7, 7)), "update: tuple arity 3, want 2 for friend"},
		{NewUpdate().Insert("friend", Ints(1, 2)).Delete("friend", Ints(1, 2)), "update: insertion (1, 2) already present in friend"},
		{NewUpdate().Insert("friend", Ints(5, 5)).Delete("friend", Ints(5, 5)), "update: deletion (5, 5) not present in friend"},
	} {
		err := tc.u.Validate(db)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate(%v) = %v, want %q", tc.u, err, tc.want)
		}
	}
}

// TestUpdateValidateLinear: validating k deletions plus k insertions into
// one relation takes time linear in k. Matching every insertion against
// every deletion of its relation took 1.35 s at k = 16 000; doubling k
// then quadruples the time. The best of five runs is taken at each size.
func TestUpdateValidateLinear(t *testing.T) {
	best := func(k int) time.Duration {
		db := NewDatabase(socialSchema())
		u := NewUpdate()
		for i := 0; i < k; i++ {
			db.MustInsert("friend", Ints(int64(i), 0))
			u.Delete("friend", Ints(int64(i), 0))
			u.Insert("friend", Ints(int64(i), 1))
		}
		var min time.Duration
		for r := 0; r < 5; r++ {
			start := time.Now()
			if err := u.Validate(db); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); r == 0 || d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(4000), best(8000)
	if ratio := float64(large) / float64(small); ratio > 3 {
		t.Fatalf("validating 2×8000 tuples took %v, 2×4000 took %v: %.2fx for twice the tuples", large, small, ratio)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation(MustRelSchema("person", "id", "name", "city"))
	r.MustInsert(NewTuple(Int(2), Str("bob"), Str("LA")))
	r.MustInsert(NewTuple(Int(1), Str("ann"), Str("NYC")))
	r.MustInsert(NewTuple(Int(3), Str("123"), Str("NYC"))) // string that looks numeric

	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got := NewRelation(r.Schema())
	if err := ReadCSV(strings.NewReader(buf.String()), got); err != nil {
		t.Fatal(err)
	}
	// Note: "123" round-trips as Int(123) because CSV is untyped; the quoted
	// form preserves stringness.
	if got.Len() != 3 {
		t.Fatalf("round trip Len = %d", got.Len())
	}
	if !got.Contains(NewTuple(Int(1), Str("ann"), Str("NYC"))) {
		t.Error("missing tuple after round trip")
	}
	if !got.Contains(NewTuple(Int(3), Str("123"), Str("NYC"))) {
		t.Error("quoted numeric string did not round trip")
	}

	badHeader := strings.Replace(buf.String(), "id,name,city", "id,nome,city", 1)
	if err := ReadCSV(strings.NewReader(badHeader), NewRelation(r.Schema())); err == nil {
		t.Error("bad header accepted")
	}
}
