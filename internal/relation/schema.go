package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RelSchema describes one relation: its name and ordered attribute list.
type RelSchema struct {
	Name  string
	Attrs []string
}

// NewRelSchema builds a relation schema, validating that the name is
// non-empty and attributes are non-empty and distinct.
func NewRelSchema(name string, attrs ...string) (RelSchema, error) {
	rs := RelSchema{Name: name, Attrs: attrs}
	if err := rs.Validate(); err != nil {
		return RelSchema{}, err
	}
	return rs, nil
}

// MustRelSchema is NewRelSchema that panics on error; for tests and
// compile-time-constant schemas.
func MustRelSchema(name string, attrs ...string) RelSchema {
	rs, err := NewRelSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return rs
}

// Validate checks structural well-formedness.
func (rs RelSchema) Validate() error {
	if rs.Name == "" {
		return fmt.Errorf("relation: empty relation name")
	}
	if len(rs.Attrs) == 0 {
		return fmt.Errorf("relation %s: no attributes", rs.Name)
	}
	seen := make(map[string]bool, len(rs.Attrs))
	for _, a := range rs.Attrs {
		if a == "" {
			return fmt.Errorf("relation %s: empty attribute name", rs.Name)
		}
		if seen[a] {
			return fmt.Errorf("relation %s: duplicate attribute %q", rs.Name, a)
		}
		seen[a] = true
	}
	return nil
}

// Arity returns the number of attributes.
func (rs RelSchema) Arity() int { return len(rs.Attrs) }

// AttrIndex returns the position of attribute a, or -1 if absent.
func (rs RelSchema) AttrIndex(a string) int {
	for i, x := range rs.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Positions maps a list of attribute names to their positions. It returns
// an error naming the first unknown attribute.
func (rs RelSchema) Positions(attrs []string) ([]int, error) {
	return rs.AppendPositions(make([]int, 0, len(attrs)), attrs)
}

// AppendPositions appends the positions of attrs to dst, as Positions
// maps them.
func (rs RelSchema) AppendPositions(dst []int, attrs []string) ([]int, error) {
	for _, a := range attrs {
		p := rs.AttrIndex(a)
		if p < 0 {
			return nil, fmt.Errorf("relation %s: unknown attribute %q", rs.Name, a)
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// HasAttrs reports whether every name in attrs is an attribute of rs.
func (rs RelSchema) HasAttrs(attrs []string) bool {
	for _, a := range attrs {
		if rs.AttrIndex(a) < 0 {
			return false
		}
	}
	return true
}

// String renders the schema as name(a1, a2, ...).
func (rs RelSchema) String() string {
	return rs.Name + "(" + strings.Join(rs.Attrs, ", ") + ")"
}

// Schema is a relational schema R = (R1, ..., Rn): a set of relation
// schemas indexed by name.
//
// A Schema is safe for concurrent use: view DDL (materialized-view
// registration) adds and removes relations on a schema shared by live
// readers — every shard of a sharded store and every analyzer holds the
// same *Schema.
type Schema struct {
	mu     sync.RWMutex
	rels   []RelSchema
	byName map[string]int
}

// NewSchema builds a schema from relation schemas, rejecting duplicates and
// invalid components.
func NewSchema(rels ...RelSchema) (*Schema, error) {
	s := &Schema{byName: make(map[string]int, len(rels))}
	for _, rs := range rels {
		if err := s.Add(rs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(rels ...RelSchema) *Schema {
	s, err := NewSchema(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends one relation schema.
func (s *Schema) Add(rs RelSchema) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[rs.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %q", rs.Name)
	}
	if s.byName == nil {
		s.byName = make(map[string]int)
	}
	s.byName[rs.Name] = len(s.rels)
	s.rels = append(s.rels, rs)
	return nil
}

// Remove deletes the named relation schema. Removing an absent relation
// is a no-op, so concurrent DDL on a shared schema stays idempotent.
func (s *Schema) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byName[name]
	if !ok {
		return
	}
	s.rels = append(s.rels[:i], s.rels[i+1:]...)
	delete(s.byName, name)
	for j := i; j < len(s.rels); j++ {
		s.byName[s.rels[j].Name] = j
	}
}

// Clone returns an independent copy: relations added to or removed from
// either afterwards do not reach the other.
func (s *Schema) Clone() *Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Schema{rels: append([]RelSchema(nil), s.rels...), byName: make(map[string]int, len(s.byName))}
	for name, i := range s.byName {
		c.byName[name] = i
	}
	return c
}

// Rel looks up a relation schema by name.
func (s *Schema) Rel(name string) (RelSchema, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.byName[name]
	if !ok {
		return RelSchema{}, false
	}
	return s.rels[i], true
}

// Names returns the relation names in declaration order.
func (s *Schema) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.rels))
	for i, rs := range s.rels {
		out[i] = rs.Name
	}
	return out
}

// Rels returns a copy of the relation schemas in declaration order.
func (s *Schema) Rels() []RelSchema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]RelSchema(nil), s.rels...)
}

// Len returns the number of relations.
func (s *Schema) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rels)
}

// String renders the schema, one relation per line, sorted by name.
func (s *Schema) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lines := make([]string, len(s.rels))
	for i, rs := range s.rels {
		lines[i] = rs.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
