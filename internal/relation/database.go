package relation

import (
	"fmt"
	"slices"
	"sort"
)

// Database is an instance D of a Schema: one Relation per relation name.
type Database struct {
	schema *Schema
	rels   map[string]*Relation
}

// NewDatabase returns an empty instance of schema.
func NewDatabase(schema *Schema) *Database {
	db := &Database{schema: schema, rels: make(map[string]*Relation, schema.Len())}
	for _, rs := range schema.Rels() {
		db.rels[rs.Name] = NewRelation(rs)
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *Schema { return db.schema }

// Rel returns the relation with the given name, or nil if the schema has no
// such relation.
func (db *Database) Rel(name string) *Relation { return db.rels[name] }

// Insert adds a tuple to the named relation.
func (db *Database) Insert(rel string, t Tuple) (bool, error) {
	r := db.rels[rel]
	if r == nil {
		return false, fmt.Errorf("database: unknown relation %q", rel)
	}
	return r.Insert(t)
}

// MustInsert inserts and panics on error.
func (db *Database) MustInsert(rel string, t Tuple) {
	if _, err := db.Insert(rel, t); err != nil {
		panic(err)
	}
}

// Delete removes a tuple from the named relation, reporting whether it was
// present.
func (db *Database) Delete(rel string, t Tuple) (bool, error) {
	r := db.rels[rel]
	if r == nil {
		return false, fmt.Errorf("database: unknown relation %q", rel)
	}
	return r.Delete(t), nil
}

// Size returns |D|: the total number of tuples across relations.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// ActiveDomain returns adom(D): every value occurring in some tuple, sorted
// by Value.Compare for determinism.
func (db *Database) ActiveDomain() []Value {
	seen := make(map[Value]bool)
	for _, name := range db.schema.Names() {
		for _, t := range db.rels[name].Tuples() {
			for _, v := range t {
				seen[v] = true
			}
		}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AddRelation creates an empty relation for rs, declaring rs in the
// schema if absent. Against a shared schema another instance already
// extended (every shard of a sharded store holds the same *Schema) the
// declaration step is idempotent, but a conflicting declaration or an
// already-present relation instance is an error. Callers mutating a live
// database must serialize against its readers (the store layer holds its
// write lock across DDL).
func (db *Database) AddRelation(rs RelSchema) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	if cur, ok := db.schema.Rel(rs.Name); ok {
		if !slices.Equal(cur.Attrs, rs.Attrs) {
			return fmt.Errorf("database: relation %q already declared as %s", rs.Name, cur)
		}
	} else if err := db.schema.Add(rs); err != nil {
		return err
	}
	if db.rels[rs.Name] != nil {
		return fmt.Errorf("database: relation %q already exists", rs.Name)
	}
	db.rels[rs.Name] = NewRelation(rs)
	return nil
}

// DropRelation removes the named relation instance and its schema
// declaration (the latter idempotently, for shared schemas). Dropping an
// absent relation is a no-op.
func (db *Database) DropRelation(name string) {
	delete(db.rels, name)
	db.schema.Remove(name)
}

// SeedFromSet replaces the named, still-empty relation's contents with an
// independent copy of s. The set structure is cloned directly — no tuple
// is re-validated, re-keyed or re-inserted — so bulk snapshot
// materialization (witness traces, replicas) costs two slice copies
// instead of |s| key encodings. The caller asserts every tuple of s fits
// the relation's schema; this holds for sets that only ever held tuples
// read back from a stored relation. Panics if the relation is unknown or
// already populated.
func (db *Database) SeedFromSet(rel string, s *TupleSet) {
	r := db.rels[rel]
	if r == nil {
		panic(fmt.Sprintf("database: SeedFromSet on unknown relation %q", rel))
	}
	if r.Len() != 0 {
		panic(fmt.Sprintf("database: SeedFromSet on non-empty relation %q", rel))
	}
	r.set = *s.Clone()
}

// Clone returns an independent copy of the database, schema included: a
// relation added to or dropped from the copy (view DDL on a store opened
// over it) does not change the original's schema.
func (db *Database) Clone() *Database {
	c := &Database{schema: db.schema.Clone(), rels: make(map[string]*Relation, len(db.rels))}
	for name, r := range db.rels {
		c.rels[name] = r.Clone()
	}
	return c
}

// Equal reports whether two databases over the same schema hold the same
// tuples in every relation.
func (db *Database) Equal(o *Database) bool {
	if db.schema.Len() != o.schema.Len() {
		return false
	}
	for _, name := range db.schema.Names() {
		or := o.rels[name]
		if or == nil || !db.rels[name].Equal(or) {
			return false
		}
	}
	return true
}

// Subset reports whether every relation of db is contained in the
// corresponding relation of o.
func (db *Database) Subset(o *Database) bool {
	for _, name := range db.schema.Names() {
		or := o.rels[name]
		if or == nil {
			return false
		}
		for _, t := range db.rels[name].Tuples() {
			if !or.Contains(t) {
				return false
			}
		}
	}
	return true
}

// String summarizes the database contents.
func (db *Database) String() string {
	s := ""
	for i, name := range db.schema.Names() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%d", name, db.rels[name].Len())
	}
	return "D{" + s + "}"
}

// Update is an update ΔD = (Ins, Del): tuples to insert into and delete
// from each relation. A valid update has Del ⊆ D, Ins ∩ D = ∅, and
// Ins ∩ Del = ∅ (Section 5 of the paper).
type Update struct {
	Ins map[string][]Tuple // ΔD: insertions, keyed by relation name
	Del map[string][]Tuple // ∇D: deletions, keyed by relation name
}

// NewUpdate returns an empty update.
func NewUpdate() *Update {
	return &Update{Ins: make(map[string][]Tuple), Del: make(map[string][]Tuple)}
}

// Insert records a pending insertion.
func (u *Update) Insert(rel string, t Tuple) *Update {
	u.Ins[rel] = append(u.Ins[rel], t)
	return u
}

// Delete records a pending deletion.
func (u *Update) Delete(rel string, t Tuple) *Update {
	u.Del[rel] = append(u.Del[rel], t)
	return u
}

// Size returns |ΔD|: the total number of inserted and deleted tuples.
func (u *Update) Size() int {
	n := 0
	for _, ts := range u.Ins {
		n += len(ts)
	}
	for _, ts := range u.Del {
		n += len(ts)
	}
	return n
}

// IsInsertOnly reports whether the update contains no deletions.
func (u *Update) IsInsertOnly() bool {
	for _, ts := range u.Del {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// Validate checks the update against db: every deleted tuple must be
// present, every inserted tuple absent, and no duplicates within the
// update. A tuple both inserted and deleted therefore fails — as an
// insertion already present, since its deletion requires it present. Time
// is linear in |ΔD|.
func (u *Update) Validate(db *Database) error {
	for rel, ts := range u.Del {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("update: unknown relation %q", rel)
		}
		seen := dedupSet(ts)
		for _, t := range ts {
			if seen != nil && !seen.Add(t) {
				return fmt.Errorf("update: duplicate deletion %s from %s", t, rel)
			}
			if !r.Contains(t) {
				return fmt.Errorf("update: deletion %s not present in %s", t, rel)
			}
		}
	}
	for rel, ts := range u.Ins {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("update: unknown relation %q", rel)
		}
		seen := dedupSet(ts)
		for _, t := range ts {
			if err := checkAgainst(r, t); err != nil {
				return err
			}
			if seen != nil && !seen.Add(t) {
				return fmt.Errorf("update: duplicate insertion %s into %s", t, rel)
			}
			if r.Contains(t) {
				return fmt.Errorf("update: insertion %s already present in %s", t, rel)
			}
		}
	}
	return nil
}

// dedupSet returns the set Validate finds duplicates among ts with, or nil
// when ts is too short to hold any.
func dedupSet(ts []Tuple) *TupleSet {
	if len(ts) < 2 {
		return nil
	}
	return NewTupleSet(len(ts))
}

func checkAgainst(r *Relation, t Tuple) error {
	if len(t) != r.Schema().Arity() {
		return fmt.Errorf("update: tuple arity %d, want %d for %s", len(t), r.Schema().Arity(), r.Name())
	}
	return nil
}

// Apply performs D ⊕ ΔD in place: deletions first, then insertions
// (relation-wise, as in the paper). It returns the first error encountered;
// callers wanting atomicity should Validate first or Apply to a Clone.
func (db *Database) Apply(u *Update) error {
	for rel, ts := range u.Del {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("apply: unknown relation %q", rel)
		}
		for _, t := range ts {
			r.Delete(t)
		}
	}
	for rel, ts := range u.Ins {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("apply: unknown relation %q", rel)
		}
		for _, t := range ts {
			if _, err := r.Insert(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Applied returns a copy of db with u applied, leaving db unchanged.
func (db *Database) Applied(u *Update) (*Database, error) {
	c := db.Clone()
	if err := c.Apply(u); err != nil {
		return nil, err
	}
	return c, nil
}

// Inverse returns the update that undoes u (insertions and deletions
// swapped).
func (u *Update) Inverse() *Update {
	return &Update{Ins: u.Del, Del: u.Ins}
}
