// Package cq implements the classical conjunctive-query machinery the
// paper's algorithms lean on: tableaux (canonical databases), homomorphisms,
// containment and equivalence à la Chandra–Merlin, and core computation
// (minimization).
//
// These are the engines behind several results reproduced here: the O(1)
// bound for Boolean CQs in Corollary 3.2 (a homomorphism image of size ‖Q‖
// witnesses truth), the set-cover structure of QDSI for CQ (Theorem 3.3),
// and the equivalence checks of rewritings using views (Theorem 6.1).
package cq

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/relation"
)

// freezePrefix marks constants that encode frozen variables in canonical
// databases. The NUL byte keeps them out of the way of ordinary string
// constants.
const freezePrefix = "\x00var:"

// Freeze returns the canonical-database constant for a variable.
func Freeze(name string) relation.Value { return relation.Str(freezePrefix + name) }

// IsFrozen reports whether a value is a frozen variable, returning its
// name.
func IsFrozen(v relation.Value) (string, bool) {
	if v.Kind() != relation.KindString {
		return "", false
	}
	s := v.AsString()
	if len(s) > len(freezePrefix) && s[:len(freezePrefix)] == freezePrefix {
		return s[len(freezePrefix):], true
	}
	return "", false
}

// freezeTerm maps variables to frozen constants and keeps constants.
func freezeTerm(t query.Term) relation.Value {
	if t.IsVar() {
		return Freeze(t.Name())
	}
	return t.Value()
}

// CanonicalDB builds the tableau of q as a database over schema: one tuple
// per atom with variables frozen. It also returns the frozen head tuple.
// The CQ must be equality-free (call ApplyEqs first); an error is returned
// otherwise, or if an atom does not fit the schema.
func CanonicalDB(q *query.CQ, schema *relation.Schema) (*relation.Database, relation.Tuple, error) {
	if len(q.Eqs) > 0 {
		return nil, nil, fmt.Errorf("cq: CanonicalDB requires an equality-free CQ (got %d eqs)", len(q.Eqs))
	}
	db := relation.NewDatabase(schema)
	for _, a := range q.Atoms {
		t := make(relation.Tuple, len(a.Args))
		for i, arg := range a.Args {
			t[i] = freezeTerm(arg)
		}
		if _, err := db.Insert(a.Rel, t); err != nil {
			return nil, nil, err
		}
	}
	head := make(relation.Tuple, len(q.Head))
	for i, h := range q.Head {
		head[i] = freezeTerm(h)
	}
	return db, head, nil
}

// Homomorphism searches for a homomorphism h from `from` to `to`: a mapping
// of from's variables to to's terms such that every atom of from maps to an
// atom of to and h maps from's head to to's head position-wise. Both CQs
// must be equality-free. It returns the mapping and whether one exists.
func Homomorphism(from, to *query.CQ) (query.Subst, bool) {
	if len(from.Eqs) > 0 || len(to.Eqs) > 0 {
		ff, ok := from.ApplyEqs()
		if !ok {
			// Unsatisfiable 'from' maps vacuously... but head constants may
			// conflict; treat as no homomorphism for simplicity.
			return nil, false
		}
		tt, ok := to.ApplyEqs()
		if !ok {
			return nil, false
		}
		return Homomorphism(ff, tt)
	}
	if len(from.Head) != len(to.Head) {
		return nil, false
	}
	h := make(query.Subst)
	// Seed with the head mapping.
	for i := range from.Head {
		if !bindTerm(h, from.Head[i], to.Head[i]) {
			return nil, false
		}
	}
	if mapAtoms(from.Atoms, to.Atoms, h) {
		return h, true
	}
	return nil, false
}

// bindTerm extends h so that h(ft) = tt, returning false on conflict.
func bindTerm(h query.Subst, ft query.Term, tt query.Term) bool {
	if !ft.IsVar() {
		// Constants map to themselves only.
		return !tt.IsVar() && ft.Value() == tt.Value()
	}
	if cur, ok := h[ft.Name()]; ok {
		return cur == tt
	}
	h[ft.Name()] = tt
	return true
}

// mapAtoms backtracks over from-atoms, matching each to some to-atom.
func mapAtoms(from []*query.Atom, to []*query.Atom, h query.Subst) bool {
	if len(from) == 0 {
		return true
	}
	a := from[0]
	for _, b := range to {
		if b.Rel != a.Rel || len(b.Args) != len(a.Args) {
			continue
		}
		var added []string
		ok := true
		for i := range a.Args {
			ft, tt := a.Args[i], b.Args[i]
			if ft.IsVar() {
				if cur, has := h[ft.Name()]; has {
					if cur != tt {
						ok = false
						break
					}
					continue
				}
				h[ft.Name()] = tt
				added = append(added, ft.Name())
				continue
			}
			if tt.IsVar() || ft.Value() != tt.Value() {
				ok = false
				break
			}
		}
		if ok && mapAtoms(from[1:], to, h) {
			return true
		}
		for _, v := range added {
			delete(h, v)
		}
	}
	return false
}

// Contained reports q1 ⊆ q2 (for every database D, q1(D) ⊆ q2(D)), by the
// Chandra–Merlin theorem: q1 ⊆ q2 iff there is a homomorphism from q2 to
// q1.
func Contained(q1, q2 *query.CQ) bool {
	_, ok := Homomorphism(q2, q1)
	return ok
}

// Equivalent reports q1 ≡ q2 (containment both ways).
func Equivalent(q1, q2 *query.CQ) bool {
	return Contained(q1, q2) && Contained(q2, q1)
}

// Minimize computes the core of q: an equivalent subquery with a minimal
// set of atoms. The input must be satisfiable; equality atoms are
// eliminated first. The result is a fresh CQ.
func Minimize(q *query.CQ) (*query.CQ, error) {
	cur := q
	if len(q.Eqs) > 0 {
		c, ok := q.ApplyEqs()
		if !ok {
			return nil, fmt.Errorf("cq: Minimize on unsatisfiable query %s", q.Name)
		}
		cur = c
	} else {
		cur = q.Clone()
	}
	for {
		removed := false
		for i := range cur.Atoms {
			cand := &query.CQ{
				Name:  cur.Name,
				Head:  cur.Head,
				Atoms: append(append([]*query.Atom(nil), cur.Atoms[:i]...), cur.Atoms[i+1:]...),
			}
			// Dropping an atom relaxes the query: cur ⊆ cand always. The
			// candidate is equivalent iff cand ⊆ cur, i.e. iff there is a
			// homomorphism from cur to cand.
			if cand.Validate() != nil {
				continue
			}
			if _, ok := Homomorphism(cur, cand); ok {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur, nil
		}
	}
}

// HomomorphismImages enumerates the homomorphism images of q in db: for
// each answer-producing assignment of q's body variables to database
// values, the set of base tuples used (one per atom). The callback receives
// the produced answer tuple and the image; returning false stops the
// enumeration. Images are exactly the candidate witness sets for scale
// independence of CQs: Q(image) contains the answer, and |image| ≤ ‖Q‖.
func HomomorphismImages(db *relation.Database, q *query.CQ, yield func(answer relation.Tuple, image map[string][]relation.Tuple) bool) error {
	cur := q
	if len(q.Eqs) > 0 {
		c, ok := q.ApplyEqs()
		if !ok {
			return nil
		}
		cur = c
	}
	env := make(query.Bindings)
	used := make([]relation.Tuple, len(cur.Atoms))
	stopped := false
	var rec func(i int) error
	rec = func(i int) error {
		if stopped {
			return nil
		}
		if i == len(cur.Atoms) {
			ans := make(relation.Tuple, len(cur.Head))
			for j, h := range cur.Head {
				if h.IsVar() {
					v, ok := env[h.Name()]
					if !ok {
						return fmt.Errorf("cq: unbound head variable %q", h.Name())
					}
					ans[j] = v
				} else {
					ans[j] = h.Value()
				}
			}
			image := make(map[string][]relation.Tuple)
			for k, a := range cur.Atoms {
				image[a.Rel] = append(image[a.Rel], used[k])
			}
			if !yield(ans, image) {
				stopped = true
			}
			return nil
		}
		a := cur.Atoms[i]
		r := db.Rel(a.Rel)
		if r == nil {
			return fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		for _, tu := range r.Tuples() {
			bound, ok := matchAtom(a, tu, env)
			if !ok {
				continue
			}
			used[i] = tu
			if err := rec(i + 1); err != nil {
				return err
			}
			for _, v := range bound {
				delete(env, v)
			}
			if stopped {
				return nil
			}
		}
		return nil
	}
	return rec(0)
}

func matchAtom(a *query.Atom, tu relation.Tuple, env query.Bindings) (bound []string, ok bool) {
	if len(a.Args) != len(tu) {
		return nil, false
	}
	for i, arg := range a.Args {
		if !arg.IsVar() {
			if arg.Value() != tu[i] {
				for _, v := range bound {
					delete(env, v)
				}
				return nil, false
			}
			continue
		}
		name := arg.Name()
		if v, has := env[name]; has {
			if v != tu[i] {
				for _, v := range bound {
					delete(env, v)
				}
				return nil, false
			}
			continue
		}
		env[name] = tu[i]
		bound = append(bound, name)
	}
	return bound, true
}

// StandardizeApart renames every variable of q with the given suffix so
// that two CQs share no variables; used before combining queries (view
// unfolding, rewriting search).
func StandardizeApart(q *query.CQ, suffix string) *query.CQ {
	sub := make(query.Subst)
	for v := range q.BodyVars().Union(q.HeadVars()) {
		sub[v] = query.Var(v + suffix)
	}
	return q.Rename(sub)
}
