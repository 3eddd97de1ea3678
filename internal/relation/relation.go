package relation

import "fmt"

// Relation is a finite set of tuples over a RelSchema. Duplicate tuples are
// rejected (set semantics, as in the paper). Iteration order follows the
// TupleSet ordering contract: deterministic for a fixed operation sequence,
// insertion order only until the first Delete (deletion is O(1)
// swap-remove, so the last tuple takes the deleted one's slot).
type Relation struct {
	schema RelSchema
	set    TupleSet
}

// NewRelation returns an empty relation over rs.
func NewRelation(rs RelSchema) *Relation {
	return &Relation{schema: rs}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() RelSchema { return r.schema }

// Name returns the relation's name.
func (r *Relation) Name() string { return r.schema.Name }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.set.Len() }

// check validates that t can be stored in r.
func (r *Relation) check(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, want %d", r.schema.Name, len(t), r.schema.Arity())
	}
	for i, v := range t {
		if v.IsNull() {
			return fmt.Errorf("relation %s: null value at attribute %s", r.schema.Name, r.schema.Attrs[i])
		}
	}
	return nil
}

// Insert adds t, reporting whether it was new. It returns an error if t
// does not fit the schema.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if err := r.check(t); err != nil {
		return false, err
	}
	return r.set.Add(t), nil
}

// MustInsert inserts and panics on schema mismatch; for generators and
// tests where the schema is statically known.
func (r *Relation) MustInsert(t Tuple) bool {
	ok, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Delete removes t, reporting whether it was present.
func (r *Relation) Delete(t Tuple) bool { return r.set.Remove(t) }

// Contains reports membership of t.
func (r *Relation) Contains(t Tuple) bool { return r.set.Contains(t) }

// Find returns the stored tuple Equal to t, if any (see TupleSet.Find).
func (r *Relation) Find(t Tuple) (Tuple, bool) { return r.set.Find(t) }

// Tuples returns all tuples in the relation's current order (see the
// TupleSet ordering contract). The slice is owned by the relation; callers
// must not mutate it or hold it across updates.
func (r *Relation) Tuples() []Tuple { return r.set.Tuples() }

// Clone returns a deep-enough copy: tuples are shared (they are immutable),
// the set structure is copied.
func (r *Relation) Clone() *Relation {
	return &Relation{schema: r.schema, set: *r.set.Clone()}
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(o *Relation) bool { return r.set.Equal(&o.set) }

// String renders the relation name and cardinality.
func (r *Relation) String() string {
	return fmt.Sprintf("%s[%d tuples]", r.schema.Name, r.set.Len())
}
