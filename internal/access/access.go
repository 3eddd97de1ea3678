// Package access implements access schemas, the central piece of additional
// information that Section 4 of Fan, Geerts and Libkin (PODS 2014) uses to
// obtain sufficient conditions for scale independence.
//
// A plain access schema A over a relational schema R is a set of tuples
// (R, X, N, T): for every tuple ā of values for the attributes X, the set
// σ_X=ā(R) has at most N tuples and can be retrieved in time at most T.
//
// Embedded entries generalize this to (R, X[Y], N, T) with X ⊆ Y: for every
// ā, the projection π_Y(σ_X=ā(R)) has at most N tuples and can be retrieved
// in time T. Plain entries are the special case Y = attr(R). A functional
// dependency X → Y with retrieval time T is the embedded entry
// (R, X[X ∪ Y], 1, T).
package access

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/relation"
)

// ErrViolation: the data breaks an access entry — some X-group holds
// more than N distinct π_Y tuples. It is a fault of the stored data, not
// of a request: Conforms reports it, and so does the read path when a
// fetched group exceeds its entry's N.
var ErrViolation = errors.New("access schema violated by the data")

// Entry is one access schema statement (R, X[Y], N, T). A nil Proj means
// Y = attr(R), i.e. a plain (non-embedded) entry.
type Entry struct {
	Rel  string   // relation name R
	On   []string // X: the attributes whose values are provided
	Proj []string // Y: the attributes retrieved; nil for all of attr(R)
	N    int      // cardinality bound on the retrieved set
	T    int      // retrieval time bound, in abstract units
}

// Plain builds a non-embedded entry (R, X, N, T).
func Plain(rel string, on []string, n, t int) Entry {
	return Entry{Rel: rel, On: on, N: n, T: t}
}

// Embedded builds an embedded entry (R, X[Y], N, T). Y must contain X;
// Validate enforces this.
func Embedded(rel string, on, proj []string, n, t int) Entry {
	return Entry{Rel: rel, On: on, Proj: proj, N: n, T: t}
}

// FD encodes the functional dependency X → Y on R with retrieval time t as
// the embedded entry (R, X[X ∪ Y], 1, t).
func FD(rel string, x, y []string, t int) Entry {
	proj := append(append([]string(nil), x...), y...)
	return Entry{Rel: rel, On: x, Proj: dedup(proj), N: 1, T: t}
}

func dedup(attrs []string) []string {
	seen := make(map[string]bool, len(attrs))
	out := attrs[:0:0]
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Equal reports whether two entries are identical statements.
func (e Entry) Equal(o Entry) bool {
	return e.Rel == o.Rel && e.N == o.N && e.T == o.T &&
		slices.Equal(e.On, o.On) && slices.Equal(e.Proj, o.Proj)
}

// IsEmbedded reports whether the entry restricts the retrieved attributes
// (Y ≠ attr(R) is possible; a nil Proj is never embedded).
func (e Entry) IsEmbedded() bool { return e.Proj != nil }

// ProjFor returns the effective Y for a relation schema: Proj if set,
// otherwise all attributes of rs.
func (e Entry) ProjFor(rs relation.RelSchema) []string {
	if e.Proj != nil {
		return e.Proj
	}
	return rs.Attrs
}

// Validate checks the entry against the relation schema it names.
func (e Entry) Validate(s *relation.Schema) error {
	rs, ok := s.Rel(e.Rel)
	if !ok {
		return fmt.Errorf("access: unknown relation %q", e.Rel)
	}
	if !rs.HasAttrs(e.On) {
		return fmt.Errorf("access %s: X attributes %v not all in %v", e.Rel, e.On, rs.Attrs)
	}
	if err := noDup(e.On); err != nil {
		return fmt.Errorf("access %s: X: %w", e.Rel, err)
	}
	if e.Proj != nil {
		if !rs.HasAttrs(e.Proj) {
			return fmt.Errorf("access %s: Y attributes %v not all in %v", e.Rel, e.Proj, rs.Attrs)
		}
		if err := noDup(e.Proj); err != nil {
			return fmt.Errorf("access %s: Y: %w", e.Rel, err)
		}
		onSet := make(map[string]bool, len(e.On))
		for _, a := range e.On {
			onSet[a] = true
		}
		proj := make(map[string]bool, len(e.Proj))
		for _, a := range e.Proj {
			proj[a] = true
		}
		for a := range onSet {
			if !proj[a] {
				return fmt.Errorf("access %s: X ⊄ Y: %q missing from Y", e.Rel, a)
			}
		}
	}
	if e.N < 0 {
		return fmt.Errorf("access %s: negative N %d", e.Rel, e.N)
	}
	if e.T < 0 {
		return fmt.Errorf("access %s: negative T %d", e.Rel, e.T)
	}
	return nil
}

func noDup(attrs []string) error {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return fmt.Errorf("duplicate attribute %q", a)
		}
		seen[a] = true
	}
	return nil
}

// String renders the entry in the textual access-schema syntax.
func (e Entry) String() string {
	var b strings.Builder
	b.WriteString("access ")
	b.WriteString(e.Rel)
	b.WriteByte('(')
	b.WriteString(strings.Join(e.On, ", "))
	b.WriteString(" -> ")
	if e.Proj == nil {
		b.WriteByte('*')
	} else {
		b.WriteString(strings.Join(e.Proj, ", "))
	}
	b.WriteByte(')')
	fmt.Fprintf(&b, " limit %d time %d", e.N, e.T)
	return b.String()
}

// Schema is an access schema A: a set of entries over a relational schema.
//
// ImplicitMembership, when true (the default from New), additionally
// treats every relation R as carrying the entry (R, attr(R), 1, 1): a
// fully specified tuple can be tested for membership in constant time.
// This matches Example 4.1 of the paper, where "all base relations are
// controlled by all their free variables" even without explicit entries,
// and corresponds to the primary index every real store has.
//
// The entry set is safe for concurrent use: materialized-view DDL adds
// and removes entries on a schema shared by every shard and every live
// analyzer. ImplicitMembership is set at construction and must not be
// flipped concurrently with readers.
type Schema struct {
	rel     *relation.Schema
	mu      sync.RWMutex
	entries []Entry // guarded by mu
	// byRel is the per-relation snapshot ForRel serves: for each relation,
	// its explicit entries in insertion order followed by its implicit
	// membership entry. Each slice is immutable once published — DDL
	// replaces it, never edits it — so readers use it without copying.
	byRel              map[string]relEntries // guarded by mu
	ImplicitMembership bool
}

// relEntries is one relation's immutable entry snapshot.
type relEntries struct {
	all      []Entry // explicit entries, then (R, attr(R), 1, 1) if R was declared
	explicit int     // how many leading entries of all are explicit
	// located is all with attribute positions resolved against attrs, the
	// declaration the snapshot was built from (nil if R was undeclared).
	located []Located
	attrs   []string
}

// Located is an access entry with its attribute positions resolved in its
// relation's declaration.
type Located struct {
	Entry
	OnPos   []int // positions of X
	ProjPos []int // positions of Y: every position for a plain entry
}

// locate resolves the positions of entries in rs, dropping any entry that
// names an attribute rs lacks.
func locate(rs relation.RelSchema, entries []Entry) []Located {
	out := make([]Located, 0, len(entries))
	for _, e := range entries {
		onPos, err := rs.Positions(e.On)
		if err != nil {
			continue
		}
		projPos, err := rs.Positions(e.ProjFor(rs))
		if err != nil {
			continue
		}
		out = append(out, Located{Entry: e, OnPos: onPos, ProjPos: projPos})
	}
	return out
}

// New returns an empty access schema over rel with implicit membership
// enabled.
func New(rel *relation.Schema) *Schema {
	a := &Schema{rel: rel, ImplicitMembership: true}
	a.mu.Lock()
	a.snapshotAllLocked()
	a.mu.Unlock()
	return a
}

// Relational returns the underlying relational schema.
func (a *Schema) Relational() *relation.Schema { return a.rel }

// Add validates and appends an entry.
func (a *Schema) Add(e Entry) error {
	if err := e.Validate(a.rel); err != nil {
		return err
	}
	a.mu.Lock()
	a.entries = append(a.entries, e)
	a.snapshotLocked(e.Rel)
	a.mu.Unlock()
	return nil
}

// snapshotLocked republishes rel's entry snapshot from the explicit
// entries and the relation's current declaration.
//
//sivet:holds mu
func (a *Schema) snapshotLocked(rel string) {
	var s relEntries
	for _, e := range a.entries {
		if e.Rel == rel {
			s.all = append(s.all, e)
		}
	}
	s.explicit = len(s.all)
	rs, declared := a.rel.Rel(rel)
	if declared {
		s.all = append(s.all, Plain(rel, rs.Attrs, 1, 1))
	}
	if len(s.all) == 0 {
		delete(a.byRel, rel)
		return
	}
	s.all = slices.Clip(s.all)
	if declared {
		s.located, s.attrs = locate(rs, s.all), rs.Attrs
	}
	a.byRel[rel] = s
}

// snapshotAllLocked rebuilds the snapshot of every declared relation and
// of every relation an explicit entry names.
//
//sivet:holds mu
func (a *Schema) snapshotAllLocked() {
	a.byRel = make(map[string]relEntries)
	for _, rs := range a.rel.Rels() {
		a.snapshotLocked(rs.Name)
	}
	for _, e := range a.entries {
		if _, ok := a.byRel[e.Rel]; !ok {
			a.snapshotLocked(e.Rel)
		}
	}
}

// MustAdd adds and panics on error.
func (a *Schema) MustAdd(e Entry) *Schema {
	if err := a.Add(e); err != nil {
		panic(err)
	}
	return a
}

// AddIfAbsent validates and appends e unless an identical entry is
// already present: per-shard DDL repeats the registration against one
// shared access schema and must not duplicate it.
func (a *Schema) AddIfAbsent(e Entry) error {
	if err := e.Validate(a.rel); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, x := range a.entries {
		if x.Equal(e) {
			return nil
		}
	}
	a.entries = append(a.entries, e)
	a.snapshotLocked(e.Rel)
	return nil
}

// RemoveRel deletes every explicit entry for the named relation (view
// DDL retracting a dropped view's entries). Idempotent.
func (a *Schema) RemoveRel(rel string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.entries[:0]
	for _, e := range a.entries {
		if e.Rel != rel {
			kept = append(kept, e)
		}
	}
	a.entries = kept
	a.snapshotLocked(rel)
}

// Entries returns the explicit entries plus, when ImplicitMembership is
// set, one synthetic membership entry (R, attr(R), 1, 1) per relation.
func (a *Schema) Entries() []Entry {
	out := a.Explicit()
	if a.ImplicitMembership {
		for _, rs := range a.rel.Rels() {
			out = append(out, Plain(rs.Name, rs.Attrs, 1, 1))
		}
	}
	return out
}

// Explicit returns a copy of the explicitly added entries.
func (a *Schema) Explicit() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]Entry(nil), a.entries...)
}

// ForRel returns the (explicit + implicit) entries for one relation, in
// the order Entries lists them. The slice is a shared snapshot: callers
// must treat it as read-only. It costs no copy unless the relation was
// declared or redeclared in the relational schema after the last entry
// DDL, in which case the membership entry is built fresh.
func (a *Schema) ForRel(rel string) []Entry {
	a.mu.RLock()
	s := a.byRel[rel]
	a.mu.RUnlock()
	explicit := s.all[:s.explicit:s.explicit]
	if !a.ImplicitMembership {
		return explicit
	}
	rs, ok := a.rel.Rel(rel)
	if !ok {
		return explicit
	}
	if len(s.all) > s.explicit && slices.Equal(s.all[s.explicit].On, rs.Attrs) {
		return s.all
	}
	return append(explicit, Plain(rel, rs.Attrs, 1, 1))
}

// Locate returns ForRel(rel) with every entry's attribute positions, or
// nil when rel is not declared. The positions are resolved once per entry
// DDL, in the same snapshot ForRel serves, so planners read them without
// resolving attribute names per call; like ForRel's, the slice is shared
// and read-only.
func (a *Schema) Locate(rel string) []Located {
	a.mu.RLock()
	s := a.byRel[rel]
	a.mu.RUnlock()
	rs, ok := a.rel.Rel(rel)
	if !ok {
		return nil
	}
	if !slices.Equal(s.attrs, rs.Attrs) {
		// Declared or redeclared after the last entry DDL.
		return locate(rs, a.ForRel(rel))
	}
	if !a.ImplicitMembership {
		return s.located[: len(s.located)-1 : len(s.located)-1]
	}
	return s.located
}

// Clone returns an independent copy (sharing the relational schema).
func (a *Schema) Clone() *Schema { return a.CloneOver(a.rel) }

// CloneOver returns an independent copy whose entries range over rel
// instead of a's relational schema. The caller asserts every entry is
// valid over rel.
func (a *Schema) CloneOver(rel *relation.Schema) *Schema {
	c := &Schema{rel: rel, ImplicitMembership: a.ImplicitMembership}
	c.entries = a.Explicit()
	c.mu.Lock()
	c.snapshotAllLocked()
	c.mu.Unlock()
	return c
}

// WithWholeRelation returns a copy of a extended with (rel, ∅, n, 1): the
// whole relation can be fetched and has at most n tuples. This is the
// A(R) construction of Proposition 5.5.
func (a *Schema) WithWholeRelation(rel string, n int) (*Schema, error) {
	c := a.Clone()
	if err := c.Add(Plain(rel, nil, n, 1)); err != nil {
		return nil, err
	}
	return c, nil
}

// Conforms checks whether database db satisfies every entry: for each
// (R, X[Y], N, T) and every X-value ā occurring in R, |π_Y(σ_X=ā(R))| ≤ N.
// It returns nil if db conforms, and otherwise an error describing the
// first violated entry and the offending group.
func (a *Schema) Conforms(db *relation.Database) error {
	for _, e := range a.Explicit() { // implicit entries hold trivially
		if err := conformsEntry(db, e); err != nil {
			return err
		}
	}
	return nil
}

func conformsEntry(db *relation.Database, e Entry) error {
	r := db.Rel(e.Rel)
	if r == nil {
		return fmt.Errorf("access: database lacks relation %q", e.Rel)
	}
	rs := r.Schema()
	onPos, err := rs.Positions(e.On)
	if err != nil {
		return err
	}
	projPos, err := rs.Positions(e.ProjFor(rs))
	if err != nil {
		return err
	}
	groups := make(map[string]*relation.TupleSet)
	for _, t := range r.Tuples() {
		k := t.Project(onPos).Key()
		g := groups[k]
		if g == nil {
			g = relation.NewTupleSet(1)
			groups[k] = g
		}
		g.Add(t.Project(projPos))
		if g.Len() > e.N {
			return fmt.Errorf("%w: %s has > %d tuples for X-group of %s", ErrViolation, e.String(), e.N, t)
		}
	}
	return nil
}

// TightestN returns, for the entry e, the smallest N that db satisfies:
// the size of the largest π_Y(σ_X=ā(R)) group. Useful when designing
// access schemas from data.
func TightestN(db *relation.Database, e Entry) (int, error) {
	r := db.Rel(e.Rel)
	if r == nil {
		return 0, fmt.Errorf("access: database lacks relation %q", e.Rel)
	}
	rs := r.Schema()
	onPos, err := rs.Positions(e.On)
	if err != nil {
		return 0, err
	}
	projPos, err := rs.Positions(e.ProjFor(rs))
	if err != nil {
		return 0, err
	}
	groups := make(map[string]*relation.TupleSet)
	for _, t := range r.Tuples() {
		k := t.Project(onPos).Key()
		g := groups[k]
		if g == nil {
			g = relation.NewTupleSet(1)
			groups[k] = g
		}
		g.Add(t.Project(projPos))
	}
	max := 0
	for _, g := range groups {
		if g.Len() > max {
			max = g.Len()
		}
	}
	return max, nil
}

// String renders the whole access schema, one entry per line, sorted for
// determinism.
func (a *Schema) String() string {
	ex := a.Explicit()
	lines := make([]string, len(ex))
	for i, e := range ex {
		lines[i] = e.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
