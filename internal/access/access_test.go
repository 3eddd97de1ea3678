package access

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

func socialSchema() *relation.Schema {
	return relation.MustSchema(
		relation.MustRelSchema("person", "id", "name", "city"),
		relation.MustRelSchema("friend", "id1", "id2"),
		relation.MustRelSchema("visit", "id", "rid", "yy", "mm", "dd"),
	)
}

func TestEntryValidate(t *testing.T) {
	s := socialSchema()
	ok := []Entry{
		Plain("friend", []string{"id1"}, 5000, 1),
		Plain("person", []string{"id"}, 1, 1),
		Plain("friend", nil, 100, 1), // whole-relation entry
		Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 366, 1),
		FD("visit", []string{"id", "yy", "mm", "dd"}, []string{"rid"}, 1),
	}
	for _, e := range ok {
		if err := e.Validate(s); err != nil {
			t.Errorf("%s: unexpected error %v", e, err)
		}
	}
	bad := []Entry{
		Plain("nosuch", []string{"id"}, 1, 1),
		Plain("friend", []string{"bogus"}, 1, 1),
		Plain("friend", []string{"id1", "id1"}, 1, 1),
		Embedded("visit", []string{"yy"}, []string{"mm"}, 366, 1), // X ⊄ Y
		Embedded("visit", []string{"yy"}, []string{"yy", "zz"}, 366, 1),
		{Rel: "friend", On: []string{"id1"}, N: -1},
		{Rel: "friend", On: []string{"id1"}, N: 1, T: -2},
	}
	for _, e := range bad {
		if err := e.Validate(s); err == nil {
			t.Errorf("%s: invalid entry accepted", e)
		}
	}
}

func TestFDConstruction(t *testing.T) {
	e := FD("visit", []string{"id", "yy"}, []string{"rid", "yy"}, 3)
	if e.N != 1 || e.T != 3 {
		t.Errorf("FD entry: N=%d T=%d", e.N, e.T)
	}
	// X ∪ Y deduplicated, X first.
	want := []string{"id", "yy", "rid"}
	if strings.Join(e.Proj, ",") != strings.Join(want, ",") {
		t.Errorf("FD Proj = %v, want %v", e.Proj, want)
	}
}

func TestEntryString(t *testing.T) {
	e := Plain("friend", []string{"id1"}, 5000, 1)
	if got := e.String(); got != "access friend(id1 -> *) limit 5000 time 1" {
		t.Errorf("String = %q", got)
	}
	e2 := Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 366, 2)
	if got := e2.String(); got != "access visit(yy -> yy, mm, dd) limit 366 time 2" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaEntriesAndImplicitMembership(t *testing.T) {
	a := New(socialSchema())
	a.MustAdd(Plain("friend", []string{"id1"}, 2, 1))
	if len(a.Explicit()) != 1 {
		t.Fatal("Explicit")
	}
	// With implicit membership: 1 explicit + 3 synthetic.
	if len(a.Entries()) != 4 {
		t.Fatalf("Entries = %d", len(a.Entries()))
	}
	a.ImplicitMembership = false
	if len(a.Entries()) != 1 {
		t.Fatalf("Entries without implicit = %d", len(a.Entries()))
	}
	a.ImplicitMembership = true
	fr := a.ForRel("friend")
	if len(fr) != 2 {
		t.Fatalf("ForRel(friend) = %v", fr)
	}
}

// forRelByScan is ForRel's definition: Entries filtered to one relation.
func forRelByScan(a *Schema, rel string) []Entry {
	var out []Entry
	for _, e := range a.Entries() {
		if e.Rel == rel {
			out = append(out, e)
		}
	}
	return out
}

// TestForRelSnapshot pins the per-relation snapshot against its
// definition through every kind of DDL, a flipped implicit-membership
// flag, and a relation declared after the last entry DDL.
func TestForRelSnapshot(t *testing.T) {
	rels := socialSchema()
	a := New(rels)
	check := func(step string) {
		t.Helper()
		for _, rel := range []string{"person", "friend", "visit", "cafe", "nosuch"} {
			got, want := a.ForRel(rel), forRelByScan(a, rel)
			if !slices.EqualFunc(got, want, Entry.Equal) {
				t.Fatalf("%s: ForRel(%s) = %v, want %v", step, rel, got, want)
			}
			checkLocate(t, step, a, rel, want)
		}
	}
	check("empty")
	a.MustAdd(Plain("friend", []string{"id1"}, 2, 1))
	a.MustAdd(Plain("person", []string{"id"}, 1, 1))
	a.MustAdd(Plain("friend", nil, 100, 1))
	check("add")
	if err := a.AddIfAbsent(Plain("friend", []string{"id1"}, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddIfAbsent(Plain("visit", []string{"id"}, 9, 1)); err != nil {
		t.Fatal(err)
	}
	check("add-if-absent")
	held := a.ForRel("friend")
	a.RemoveRel("friend")
	check("remove")
	if len(held) != 3 || held[0].N != 2 || held[1].N != 100 {
		t.Fatalf("a snapshot handed out before RemoveRel changed: %v", held)
	}
	a.ImplicitMembership = false
	check("no implicit membership")
	a.ImplicitMembership = true
	if err := rels.Add(relation.MustRelSchema("cafe", "cid", "city")); err != nil {
		t.Fatal(err)
	}
	check("relation declared after DDL")
	a.MustAdd(Plain("cafe", []string{"city"}, 5, 1))
	check("entry on the new relation")
	if c := a.Clone(); !slices.EqualFunc(c.ForRel("cafe"), a.ForRel("cafe"), Entry.Equal) {
		t.Fatal("Clone lost the snapshot")
	}
}

// checkLocate pins Locate(rel) to its definition: the entries of
// ForRel(rel) with their positions resolved by name, nil when rel is
// undeclared.
func checkLocate(t *testing.T, step string, a *Schema, rel string, want []Entry) {
	t.Helper()
	got := a.Locate(rel)
	rs, ok := a.Relational().Rel(rel)
	if !ok {
		if got != nil {
			t.Fatalf("%s: Locate(%s) = %v for an undeclared relation", step, rel, got)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Locate(%s) has %d entries, want %d", step, rel, len(got), len(want))
	}
	for i, l := range got {
		onPos, _ := rs.Positions(want[i].On)
		projPos, _ := rs.Positions(want[i].ProjFor(rs))
		if !l.Entry.Equal(want[i]) || !slices.Equal(l.OnPos, onPos) || !slices.Equal(l.ProjPos, projPos) {
			t.Fatalf("%s: Locate(%s)[%d] = %+v, want %s at %v[%v]", step, rel, i, l, want[i].String(), onPos, projPos)
		}
	}
}

// TestForRelConcurrentDDL runs entry DDL against ForRel readers: under
// -race it checks the snapshot is published under the lock and never
// edited in place.
func TestForRelConcurrentDDL(t *testing.T) {
	a := New(socialSchema())
	a.MustAdd(Plain("friend", []string{"id1"}, 2, 1))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				es := a.ForRel("friend")
				if len(es) < 2 || es[0].N != 2 || es[len(es)-1].N != 1 {
					t.Errorf("torn snapshot %v", es)
					return
				}
				for _, e := range es {
					if e.Rel != "friend" {
						t.Errorf("snapshot names %s", e.Rel)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		a.MustAdd(Plain("friend", []string{"id2"}, 10+i, 1))
		if err := a.AddIfAbsent(Plain("person", []string{"id"}, 1, 1)); err != nil {
			t.Error(err)
		}
		if i%50 == 49 {
			a.RemoveRel("person")
		}
	}
	close(stop)
	wg.Wait()
	if got := len(a.ForRel("friend")); got != 202 {
		t.Fatalf("ForRel(friend) has %d entries, want 202", got)
	}
}

func TestConforms(t *testing.T) {
	s := socialSchema()
	db := relation.NewDatabase(s)
	db.MustInsert("friend", relation.Ints(1, 2))
	db.MustInsert("friend", relation.Ints(1, 3))
	db.MustInsert("friend", relation.Ints(2, 3))

	a := New(s)
	a.MustAdd(Plain("friend", []string{"id1"}, 2, 1))
	if err := a.Conforms(db); err != nil {
		t.Fatalf("should conform: %v", err)
	}
	db.MustInsert("friend", relation.Ints(1, 4))
	if err := a.Conforms(db); err == nil {
		t.Fatal("3 friends for id1 should violate limit 2")
	}

	n, err := TightestN(db, Plain("friend", []string{"id1"}, 0, 1))
	if err != nil || n != 3 {
		t.Errorf("TightestN = %d, %v", n, err)
	}
}

func TestConformsEmbedded(t *testing.T) {
	s := socialSchema()
	db := relation.NewDatabase(s)
	// Person 1 visits restaurant 10 twice in 2013 and once in 2014;
	// person 2 visits restaurant 20 once.
	db.MustInsert("visit", relation.Ints(1, 10, 2013, 1, 5))
	db.MustInsert("visit", relation.Ints(1, 10, 2013, 2, 6))
	db.MustInsert("visit", relation.Ints(1, 10, 2014, 1, 5))
	db.MustInsert("visit", relation.Ints(2, 20, 2013, 1, 5))

	a := New(s)
	// Per year at most 2 distinct (mm, dd) pairs in this toy data.
	a.MustAdd(Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 2, 1))
	if err := a.Conforms(db); err != nil {
		t.Fatalf("embedded conformance: %v", err)
	}
	// Tighten to 1: year 2013 has two distinct (mm,dd) pairs -> violation.
	b := New(s)
	b.MustAdd(Embedded("visit", []string{"yy"}, []string{"yy", "mm", "dd"}, 1, 1))
	if err := b.Conforms(db); err == nil {
		t.Fatal("embedded violation not detected")
	}
	// The FD id,yy,mm,dd -> rid holds in this data.
	c := New(s)
	c.MustAdd(FD("visit", []string{"id", "yy", "mm", "dd"}, []string{"rid"}, 1))
	if err := c.Conforms(db); err != nil {
		t.Fatalf("FD should hold: %v", err)
	}
	// Break the FD: same person, same date, two restaurants.
	db.MustInsert("visit", relation.Ints(1, 11, 2013, 1, 5))
	if err := c.Conforms(db); err == nil {
		t.Fatal("FD violation not detected")
	}
}

func TestWithWholeRelation(t *testing.T) {
	a := New(socialSchema())
	b, err := a.WithWholeRelation("visit", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Explicit()) != 1 || len(a.Explicit()) != 0 {
		t.Error("WithWholeRelation should not mutate the original")
	}
	e := b.Explicit()[0]
	if e.Rel != "visit" || len(e.On) != 0 || e.N != 100 {
		t.Errorf("entry = %+v", e)
	}
}
