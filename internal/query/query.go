package query

import (
	"fmt"
	"slices"
	"strings"
)

// Query is a named FO query Q(x̄) with an ordered head of free variables
// and an FO body. Boolean queries have an empty head.
type Query struct {
	Name string
	Head []string
	Body Formula
}

// NewQuery validates and builds a query: head variables must be distinct
// and must be exactly the free variables of the body.
func NewQuery(name string, head []string, body Formula) (*Query, error) {
	q := &Query{Name: name, Head: head, Body: body}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustQuery is NewQuery that panics on error.
func MustQuery(name string, head []string, body Formula) *Query {
	q, err := NewQuery(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks head/body consistency: the head variables are distinct
// and are exactly the free variables of the body. It walks the body once,
// keeping the quantified variables on a stack and the free ones in a
// small slice; only a mismatch builds the sets its message prints.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("query: empty name")
	}
	for i, v := range q.Head {
		if contains(q.Head[:i], v) {
			return fmt.Errorf("query %s: duplicate head variable %q", q.Name, v)
		}
	}
	var freeBuf, boundBuf [8]string
	free := appendFree(freeBuf[:0], boundBuf[:0], q.Body)
	if len(free) != len(q.Head) || !containsAll(free, q.Head) {
		return fmt.Errorf("query %s: head %v but free variables %v", q.Name, NewVarSet(q.Head...), q.Body.FreeVars())
	}
	return nil
}

// appendFree appends to free, in order of first occurrence, the
// variables of f that are neither in bound (the quantified variables in
// scope) nor already in free. It builds no set per node.
func appendFree(free, bound []string, f Formula) []string {
	switch n := f.(type) {
	case *Atom:
		for _, t := range n.Args {
			free = appendFreeTerm(free, bound, t)
		}
	case *Eq:
		free = appendFreeTerm(free, bound, n.L)
		free = appendFreeTerm(free, bound, n.R)
	case *Truth:
	case *Not:
		free = appendFree(free, bound, n.F)
	case *And:
		free = appendFree(appendFree(free, bound, n.L), bound, n.R)
	case *Or:
		free = appendFree(appendFree(free, bound, n.L), bound, n.R)
	case *Implies:
		free = appendFree(appendFree(free, bound, n.L), bound, n.R)
	case *Exists:
		free = appendFree(free, append(bound, n.Vars...), n.Body)
	case *Forall:
		free = appendFree(free, append(bound, n.Vars...), n.Body)
	default:
		panic(fmt.Sprintf("query: unknown formula node %T", f))
	}
	return free
}

func appendFreeTerm(free, bound []string, t Term) []string {
	if t.isVar && !contains(bound, t.name) && !contains(free, t.name) {
		free = append(free, t.name)
	}
	return free
}

// containsAll reports whether every element of ys is in xs.
func containsAll(xs, ys []string) bool {
	for _, y := range ys {
		if !contains(xs, y) {
			return false
		}
	}
	return true
}

// IsBoolean reports whether the query is a sentence.
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// HeadSet returns the head variables as a set.
func (q *Query) HeadSet() VarSet { return NewVarSet(q.Head...) }

// Fix returns the query Q(ā, ȳ): the head variables bound in b are
// substituted by their values and removed from the head. The remaining head
// keeps its order. The name is preserved.
func (q *Query) Fix(b Bindings) *Query {
	body := Bind(q.Body, b)
	var head []string
	for _, v := range q.Head {
		if _, ok := b[v]; !ok {
			head = append(head, v)
		}
	}
	return &Query{Name: q.Name, Head: head, Body: body}
}

// Equal reports whether q and o are the same query: equal names, heads
// and bodies, the bodies compared node by node without rendering either.
func (q *Query) Equal(o *Query) bool {
	return q.Name == o.Name && slices.Equal(q.Head, o.Head) && formulaEqual(q.Body, o.Body)
}

// formulaEqual reports whether f and g are the same syntax tree.
func formulaEqual(f, g Formula) bool {
	switch n := f.(type) {
	case *Atom:
		m, ok := g.(*Atom)
		return ok && n.Rel == m.Rel && slices.Equal(n.Args, m.Args)
	case *Eq:
		m, ok := g.(*Eq)
		return ok && n.L == m.L && n.R == m.R
	case *Truth:
		m, ok := g.(*Truth)
		return ok && n.Bool == m.Bool
	case *Not:
		m, ok := g.(*Not)
		return ok && formulaEqual(n.F, m.F)
	case *And:
		m, ok := g.(*And)
		return ok && formulaEqual(n.L, m.L) && formulaEqual(n.R, m.R)
	case *Or:
		m, ok := g.(*Or)
		return ok && formulaEqual(n.L, m.L) && formulaEqual(n.R, m.R)
	case *Implies:
		m, ok := g.(*Implies)
		return ok && formulaEqual(n.L, m.L) && formulaEqual(n.R, m.R)
	case *Exists:
		m, ok := g.(*Exists)
		return ok && slices.Equal(n.Vars, m.Vars) && formulaEqual(n.Body, m.Body)
	case *Forall:
		m, ok := g.(*Forall)
		return ok && slices.Equal(n.Vars, m.Vars) && formulaEqual(n.Body, m.Body)
	default:
		return false
	}
}

// String renders the query as Name(head) := body.
func (q *Query) String() string {
	return fmt.Sprintf("%s(%s) := %s", q.Name, strings.Join(q.Head, ", "), q.Body)
}

// CQ is a conjunctive query in rule form: Head variables (or constants,
// which arise from rewritings that instantiate distinguished variables),
// a set of relation atoms, and optional equality atoms. Semantically it is
// ∃ z̄ (atoms ∧ eqs) where z̄ are the body variables not in the head.
type CQ struct {
	Name  string
	Head  []Term
	Atoms []*Atom
	Eqs   []*Eq
}

// NewCQ validates and builds a CQ: the head variables must occur in the
// body (safety).
func NewCQ(name string, head []Term, atoms []*Atom, eqs []*Eq) (*CQ, error) {
	q := &CQ{Name: name, Head: head, Atoms: atoms, Eqs: eqs}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustCQ is NewCQ that panics on error.
func MustCQ(name string, head []Term, atoms []*Atom, eqs []*Eq) *CQ {
	q, err := NewCQ(name, head, atoms, eqs)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks safety: every head variable must occur in some relation
// atom or be equated (transitively, via Eqs) to a constant or a body
// variable. For simplicity we require direct occurrence in an atom or in an
// equality with a constant.
func (q *CQ) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("cq: empty name")
	}
	for _, t := range q.Head {
		if t.isVar && !q.bodyBinds(t.name) {
			return fmt.Errorf("cq %s: unsafe head variable %q", q.Name, t.name)
		}
	}
	return nil
}

// bodyBinds reports whether variable v occurs in a relation atom or in an
// equality with a constant.
func (q *CQ) bodyBinds(v string) bool {
	for _, a := range q.Atoms {
		if termsHaveVar(a.Args, v) {
			return true
		}
	}
	for _, e := range q.Eqs {
		if e.L.isVar != e.R.isVar && (e.L.name == v || e.R.name == v) {
			return true
		}
	}
	return false
}

// termsHaveVar reports whether variable v occurs among ts.
func termsHaveVar(ts []Term, v string) bool {
	for _, t := range ts {
		if t.isVar && t.name == v {
			return true
		}
	}
	return false
}

// HeadVars returns the set of variables in the head.
func (q *CQ) HeadVars() VarSet { return TermVars(q.Head) }

// BodyVars returns the set of variables in the body.
func (q *CQ) BodyVars() VarSet {
	s := make(VarSet)
	for _, a := range q.Atoms {
		for v := range a.FreeVars() {
			s[v] = true
		}
	}
	for _, e := range q.Eqs {
		for v := range e.FreeVars() {
			s[v] = true
		}
	}
	return s
}

// ExistVars returns the body variables not appearing in the head: the
// existentially quantified ones.
func (q *CQ) ExistVars() VarSet { return q.BodyVars().Minus(q.HeadVars()) }

// Size returns ‖Q‖, the size of the tableau of Q, measured as the number of
// relation atoms — the number of tuples needed to witness an answer
// (Section 3 of the paper).
func (q *CQ) Size() int { return len(q.Atoms) }

// Formula converts the CQ to an FO formula ∃ z̄ (conjunction): the atoms,
// then the equalities, folded left as AndAll folds them, under the body
// variables that are not in the head, sorted.
func (q *CQ) Formula() Formula {
	var body Formula
	for _, a := range q.Atoms {
		body = conjoin(body, a)
	}
	for _, e := range q.Eqs {
		body = conjoin(body, e)
	}
	if body == nil {
		return True
	}
	var headBuf, existBuf [8]string
	head := headBuf[:0]
	for _, t := range q.Head {
		if t.isVar {
			head = append(head, t.name)
		}
	}
	exist := appendFree(existBuf[:0], head, body)
	if len(exist) == 0 {
		return body
	}
	slices.Sort(exist)
	return NewExists(slices.Clone(exist), body)
}

// conjoin returns body ∧ f, or f alone when body is nil.
func conjoin(body, f Formula) Formula {
	if body == nil {
		return f
	}
	return NewAnd(body, f)
}

// Query converts the CQ to a Query. Constant head terms are not
// representable in Query heads; they are dropped from the head (the
// constant is already enforced by the body). An error is returned if a
// head variable is not free in the resulting formula.
func (q *CQ) Query() (*Query, error) {
	var head []string
	for _, t := range q.Head {
		if t.IsVar() {
			head = append(head, t.Name())
		}
	}
	return NewQuery(q.Name, head, q.Formula())
}

// ApplyEqs eliminates equality atoms by substitution: x = c instantiates x
// to c everywhere; x = y merges y into x. It returns a new, equality-free
// CQ. Contradictory equalities (c = d for distinct constants) yield ok
// false, meaning the query is unsatisfiable.
func (q *CQ) ApplyEqs() (out *CQ, ok bool) {
	sub := make(Subst)
	resolve := func(t Term) Term {
		for t.IsVar() {
			n, found := sub[t.Name()]
			if !found {
				return t
			}
			t = n
		}
		return t
	}
	for _, e := range q.Eqs {
		l, r := resolve(e.L), resolve(e.R)
		switch {
		case l == r:
		case l.IsVar():
			sub[l.Name()] = r
		case r.IsVar():
			sub[r.Name()] = l
		default: // two distinct constants
			return nil, false
		}
	}
	// Deep-resolve the substitution so chains collapse.
	full := make(Subst, len(sub))
	for v := range sub {
		full[v] = resolve(Var(v))
	}
	atoms := make([]*Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = &Atom{Rel: a.Rel, Args: full.ApplyTerms(a.Args)}
	}
	head := full.ApplyTerms(q.Head)
	return &CQ{Name: q.Name, Head: head, Atoms: atoms}, true
}

// Rename applies a variable renaming to the whole CQ (head and body).
func (q *CQ) Rename(s Subst) *CQ {
	atoms := make([]*Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = &Atom{Rel: a.Rel, Args: s.ApplyTerms(a.Args)}
	}
	eqs := make([]*Eq, len(q.Eqs))
	for i, e := range q.Eqs {
		eqs[i] = &Eq{L: s.ApplyTerm(e.L), R: s.ApplyTerm(e.R)}
	}
	return &CQ{Name: q.Name, Head: s.ApplyTerms(q.Head), Atoms: atoms, Eqs: eqs}
}

// Clone returns a deep copy.
func (q *CQ) Clone() *CQ {
	atoms := make([]*Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		args := append([]Term(nil), a.Args...)
		atoms[i] = &Atom{Rel: a.Rel, Args: args}
	}
	eqs := make([]*Eq, len(q.Eqs))
	for i, e := range q.Eqs {
		eqs[i] = &Eq{L: e.L, R: e.R}
	}
	return &CQ{Name: q.Name, Head: append([]Term(nil), q.Head...), Atoms: atoms, Eqs: eqs}
}

// String renders the CQ in rule form.
func (q *CQ) String() string {
	heads := make([]string, len(q.Head))
	for i, t := range q.Head {
		heads[i] = t.String()
	}
	var parts []string
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	for _, e := range q.Eqs {
		parts = append(parts, e.String())
	}
	return fmt.Sprintf("%s(%s) :- %s", q.Name, strings.Join(heads, ", "), strings.Join(parts, ", "))
}

// UCQ is a union of conjunctive queries with compatible head arities.
type UCQ struct {
	Name     string
	Disjunct []*CQ
}

// NewUCQ validates and builds a UCQ.
func NewUCQ(name string, disjuncts ...*CQ) (*UCQ, error) {
	if len(disjuncts) == 0 {
		return nil, fmt.Errorf("ucq %s: no disjuncts", name)
	}
	arity := len(disjuncts[0].Head)
	for _, d := range disjuncts {
		if len(d.Head) != arity {
			return nil, fmt.Errorf("ucq %s: head arity mismatch (%d vs %d)", name, len(d.Head), arity)
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	return &UCQ{Name: name, Disjunct: disjuncts}, nil
}

// Size returns ‖Q‖ for a UCQ: max over the disjuncts (Section 3).
func (u *UCQ) Size() int {
	max := 0
	for _, d := range u.Disjunct {
		if d.Size() > max {
			max = d.Size()
		}
	}
	return max
}

// String renders the UCQ as its disjuncts joined by "union".
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjunct))
	for i, d := range u.Disjunct {
		parts[i] = d.String()
	}
	return strings.Join(parts, " union ")
}

// AsCQ attempts to view an FO query as a CQ: the body must be built from
// relation atoms and equalities with ∧ and ∃ only. It returns ok=false for
// anything else.
func AsCQ(q *Query) (*CQ, bool) {
	var n conjCount
	if !n.count(q.Body) {
		return nil, false
	}
	cq := &CQ{Name: q.Name, Head: Vars(q.Head...)}
	if n.atoms > 0 {
		cq.Atoms = make([]*Atom, 0, n.atoms)
	}
	if n.eqs > 0 {
		cq.Eqs = make([]*Eq, 0, n.eqs)
	}
	cq.flatten(q.Body)
	if cq.Validate() != nil {
		return nil, false
	}
	return cq, true
}

// conjCount counts the atoms and equalities of a conjunctive body.
type conjCount struct{ atoms, eqs int }

// count reports whether f is conjunctive: atoms, equalities and true
// under ∧ and ∃. Inner existentials are fine: their variables are not in
// the head, and flattening preserves semantics as long as names are
// unique (callers standardize apart first if needed).
func (n *conjCount) count(f Formula) bool {
	switch f := f.(type) {
	case *Atom:
		n.atoms++
		return true
	case *Eq:
		n.eqs++
		return true
	case *Truth:
		return f.Bool
	case *And:
		return n.count(f.L) && n.count(f.R)
	case *Exists:
		return n.count(f.Body)
	default:
		return false
	}
}

// flatten appends the atoms and equalities of a body count accepted, in
// syntactic order.
func (q *CQ) flatten(f Formula) {
	switch f := f.(type) {
	case *Atom:
		q.Atoms = append(q.Atoms, f)
	case *Eq:
		q.Eqs = append(q.Eqs, f)
	case *And:
		q.flatten(f.L)
		q.flatten(f.R)
	case *Exists:
		q.flatten(f.Body)
	}
}
