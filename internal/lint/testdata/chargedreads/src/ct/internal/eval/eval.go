package eval

import "ct/internal/relation"

// DBSource is the uncounted reference oracle: constructing one is legal
// only inside this package, and its own raw reads carry reasoned
// waivers — exactly like the real internal/eval.
type DBSource struct{ DB *relation.Database }

func (s DBSource) Tuples(rel string) []relation.Tuple {
	return s.DB.Rel(rel).Tuples() // want "uncharged read"
}

func (s DBSource) Contains(rel string, t relation.Tuple) bool {
	//sivet:ignore chargedreads -- reference oracle: uncounted by design, never on the serving path
	return s.DB.Rel(rel).Contains(t)
}

// Source is the charged full-scan source of the naive evaluator.
type Source struct{}

func NewStoreSource() Source              { return Source{} }
func Stream(s Source) []relation.Tuple    { return nil }
func Answers(s Source) []relation.Tuple   { return Stream(s) }
func (s Source) Stream() []relation.Tuple { return nil }
