package query

import (
	"fmt"
	"strings"
)

// Formula is a first-order formula over a relational schema: relation
// atoms, equality atoms, boolean connectives and quantifiers. The concrete
// node types are Atom, Eq, Truth, Not, And, Or, Implies, Exists and Forall;
// the interface is closed (nodes embed no user types), and consumers switch
// exhaustively on the concrete type.
type Formula interface {
	fmt.Stringer
	// FreeVars returns the free variables of the formula.
	FreeVars() VarSet
	// precedence drives parenthesization in String.
	precedence() int
	isFormula()
}

// Atom is a relation atom R(t1, ..., tk).
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds a relation atom.
func NewAtom(rel string, args ...Term) *Atom { return &Atom{Rel: rel, Args: args} }

func (a *Atom) isFormula()      {}
func (a *Atom) precedence() int { return 100 }

// FreeVars returns the variables among the atom's arguments.
func (a *Atom) FreeVars() VarSet { return TermVars(a.Args) }

func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Eq is an equality atom t1 = t2.
type Eq struct {
	L, R Term
}

// NewEq builds an equality atom.
func NewEq(l, r Term) *Eq { return &Eq{L: l, R: r} }

func (e *Eq) isFormula()      {}
func (e *Eq) precedence() int { return 100 }

// FreeVars returns the variables among the two terms.
func (e *Eq) FreeVars() VarSet { return TermVars([]Term{e.L, e.R}) }

func (e *Eq) String() string { return e.L.String() + " = " + e.R.String() }

// Truth is the boolean constant true or false.
type Truth struct {
	Bool bool
}

// True and False are the boolean constants.
var (
	True  = &Truth{Bool: true}
	False = &Truth{Bool: false}
)

func (t *Truth) isFormula()      {}
func (t *Truth) precedence() int { return 100 }

// FreeVars returns the empty set.
func (t *Truth) FreeVars() VarSet { return VarSet{} }

func (t *Truth) String() string {
	if t.Bool {
		return "true"
	}
	return "false"
}

// Not is negation ¬F.
type Not struct {
	F Formula
}

// NewNot builds a negation.
func NewNot(f Formula) *Not { return &Not{F: f} }

func (n *Not) isFormula()      {}
func (n *Not) precedence() int { return 90 }

// FreeVars returns the free variables of the negated formula.
func (n *Not) FreeVars() VarSet { return n.F.FreeVars() }

func (n *Not) String() string { return "not " + paren(n.F, n.precedence()) }

// And is binary conjunction. The controllability rules of Section 4 are
// stated for binary conjunction, so the AST keeps it binary; AndAll folds.
type And struct {
	L, R Formula
}

// NewAnd builds a conjunction.
func NewAnd(l, r Formula) *And { return &And{L: l, R: r} }

// AndAll folds conjuncts left-associatively; it returns True for no
// arguments and the sole argument for one.
func AndAll(fs ...Formula) Formula {
	switch len(fs) {
	case 0:
		return True
	case 1:
		return fs[0]
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = NewAnd(out, f)
	}
	return out
}

func (a *And) isFormula()      {}
func (a *And) precedence() int { return 80 }

// FreeVars returns the union of the conjuncts' free variables.
func (a *And) FreeVars() VarSet { return a.L.FreeVars().Union(a.R.FreeVars()) }

func (a *And) String() string {
	return paren(a.L, a.precedence()-1) + " and " + paren(a.R, a.precedence())
}

// Or is binary disjunction.
type Or struct {
	L, R Formula
}

// NewOr builds a disjunction.
func NewOr(l, r Formula) *Or { return &Or{L: l, R: r} }

func (o *Or) isFormula()      {}
func (o *Or) precedence() int { return 70 }

// FreeVars returns the union of the disjuncts' free variables.
func (o *Or) FreeVars() VarSet { return o.L.FreeVars().Union(o.R.FreeVars()) }

func (o *Or) String() string {
	return paren(o.L, o.precedence()-1) + " or " + paren(o.R, o.precedence())
}

// Implies is implication F → G. Semantically ¬F ∨ G; kept as a node because
// the universal-quantification controllability rule matches the shape
// ∀ȳ (Q → Q′) syntactically.
type Implies struct {
	L, R Formula
}

// NewImplies builds an implication.
func NewImplies(l, r Formula) *Implies { return &Implies{L: l, R: r} }

func (im *Implies) isFormula()      {}
func (im *Implies) precedence() int { return 60 }

// FreeVars returns the union of both sides' free variables.
func (im *Implies) FreeVars() VarSet { return im.L.FreeVars().Union(im.R.FreeVars()) }

func (im *Implies) String() string {
	return paren(im.L, im.precedence()) + " implies " + paren(im.R, im.precedence()-1)
}

// Exists is existential quantification ∃ v1, ..., vk F.
type Exists struct {
	Vars []string
	Body Formula
}

// NewExists builds an existential quantification; it returns the body
// unchanged when vars is empty.
func NewExists(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	return &Exists{Vars: vars, Body: body}
}

func (e *Exists) isFormula()      {}
func (e *Exists) precedence() int { return 50 }

// FreeVars returns the body's free variables minus the quantified ones.
func (e *Exists) FreeVars() VarSet {
	return e.Body.FreeVars().Minus(NewVarSet(e.Vars...))
}

func (e *Exists) String() string {
	return "exists " + strings.Join(e.Vars, ", ") + " (" + e.Body.String() + ")"
}

// Forall is universal quantification ∀ v1, ..., vk F.
type Forall struct {
	Vars []string
	Body Formula
}

// NewForall builds a universal quantification; it returns the body
// unchanged when vars is empty.
func NewForall(vars []string, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	return &Forall{Vars: vars, Body: body}
}

func (f *Forall) isFormula()      {}
func (f *Forall) precedence() int { return 50 }

// FreeVars returns the body's free variables minus the quantified ones.
func (f *Forall) FreeVars() VarSet {
	return f.Body.FreeVars().Minus(NewVarSet(f.Vars...))
}

func (f *Forall) String() string {
	return "forall " + strings.Join(f.Vars, ", ") + " (" + f.Body.String() + ")"
}

func paren(f Formula, parentPrec int) string {
	if f.precedence() <= parentPrec {
		return "(" + f.String() + ")"
	}
	return f.String()
}

// Substitute applies a substitution to the free occurrences of variables in
// f, alpha-renaming bound variables where necessary to avoid capture. It
// returns a fresh formula; f is never mutated.
func Substitute(f Formula, s Subst) Formula {
	if len(s) == 0 {
		return f
	}
	fresh := newFreshNamer(f, s)
	return subst(f, s, fresh)
}

// Bind specializes f by fixing variables to constant values (the paper's
// Q(ā, ȳ) for a tuple ā of values for x̄).
func Bind(f Formula, b Bindings) Formula { return Substitute(f, b.Subst()) }

func subst(f Formula, s Subst, fresh *freshNamer) Formula {
	switch n := f.(type) {
	case *Atom:
		return &Atom{Rel: n.Rel, Args: s.ApplyTerms(n.Args)}
	case *Eq:
		return &Eq{L: s.ApplyTerm(n.L), R: s.ApplyTerm(n.R)}
	case *Truth:
		return n
	case *Not:
		return &Not{F: subst(n.F, s, fresh)}
	case *And:
		return &And{L: subst(n.L, s, fresh), R: subst(n.R, s, fresh)}
	case *Or:
		return &Or{L: subst(n.L, s, fresh), R: subst(n.R, s, fresh)}
	case *Implies:
		return &Implies{L: subst(n.L, s, fresh), R: subst(n.R, s, fresh)}
	case *Exists:
		vars, body := substQuant(n.Vars, n.Body, s, fresh)
		return &Exists{Vars: vars, Body: body}
	case *Forall:
		vars, body := substQuant(n.Vars, n.Body, s, fresh)
		return &Forall{Vars: vars, Body: body}
	default:
		panic(fmt.Sprintf("query: unknown formula node %T", f))
	}
}

func substQuant(vars []string, body Formula, s Subst, fresh *freshNamer) ([]string, Formula) {
	// Drop substitutions shadowed by the quantifier, and alpha-rename any
	// quantified variable that would capture a variable from the range of s.
	inner := make(Subst, len(s))
	captured := make(VarSet)
	for v, t := range s {
		if contains(vars, v) {
			continue
		}
		inner[v] = t
		if t.IsVar() {
			captured[t.Name()] = true
		}
	}
	newVars := append([]string(nil), vars...)
	for i, v := range newVars {
		if captured[v] {
			nv := fresh.fresh(v)
			inner[v] = Var(nv)
			newVars[i] = nv
		}
	}
	return newVars, subst(body, inner, fresh)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// freshNamer generates variable names unused anywhere in a formula or in
// the range of a substitution.
type freshNamer struct {
	used map[string]bool
	n    int
}

func newFreshNamer(f Formula, s Subst) *freshNamer {
	fn := &freshNamer{used: make(map[string]bool)}
	collectVars(f, fn.used)
	for v, t := range s {
		fn.used[v] = true
		if t.IsVar() {
			fn.used[t.Name()] = true
		}
	}
	return fn
}

func (fn *freshNamer) fresh(base string) string {
	for {
		fn.n++
		cand := fmt.Sprintf("%s_%d", base, fn.n)
		if !fn.used[cand] {
			fn.used[cand] = true
			return cand
		}
	}
}

// collectVars records every variable name (free or bound) in f.
func collectVars(f Formula, into map[string]bool) {
	switch n := f.(type) {
	case *Atom:
		for _, t := range n.Args {
			if t.IsVar() {
				into[t.Name()] = true
			}
		}
	case *Eq:
		for _, t := range []Term{n.L, n.R} {
			if t.IsVar() {
				into[t.Name()] = true
			}
		}
	case *Truth:
	case *Not:
		collectVars(n.F, into)
	case *And:
		collectVars(n.L, into)
		collectVars(n.R, into)
	case *Or:
		collectVars(n.L, into)
		collectVars(n.R, into)
	case *Implies:
		collectVars(n.L, into)
		collectVars(n.R, into)
	case *Exists:
		for _, v := range n.Vars {
			into[v] = true
		}
		collectVars(n.Body, into)
	case *Forall:
		for _, v := range n.Vars {
			into[v] = true
		}
		collectVars(n.Body, into)
	default:
		panic(fmt.Sprintf("query: unknown formula node %T", f))
	}
}

// Atoms returns every relation atom occurring in f, in syntactic order.
func Atoms(f Formula) []*Atom {
	var out []*Atom
	var walk func(Formula)
	walk = func(g Formula) {
		switch n := g.(type) {
		case *Atom:
			out = append(out, n)
		case *Eq, *Truth:
		case *Not:
			walk(n.F)
		case *And:
			walk(n.L)
			walk(n.R)
		case *Or:
			walk(n.L)
			walk(n.R)
		case *Implies:
			walk(n.L)
			walk(n.R)
		case *Exists:
			walk(n.Body)
		case *Forall:
			walk(n.Body)
		default:
			panic(fmt.Sprintf("query: unknown formula node %T", g))
		}
	}
	walk(f)
	return out
}

// Constants returns every constant value occurring in f.
func Constants(f Formula) []Term {
	var out []Term
	seen := make(map[string]bool)
	add := func(t Term) {
		if !t.IsVar() {
			k := t.Value().String()
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	var walk func(Formula)
	walk = func(g Formula) {
		switch n := g.(type) {
		case *Atom:
			for _, t := range n.Args {
				add(t)
			}
		case *Eq:
			add(n.L)
			add(n.R)
		case *Truth:
		case *Not:
			walk(n.F)
		case *And:
			walk(n.L)
			walk(n.R)
		case *Or:
			walk(n.L)
			walk(n.R)
		case *Implies:
			walk(n.L)
			walk(n.R)
		case *Exists:
			walk(n.Body)
		case *Forall:
			walk(n.Body)
		default:
			panic(fmt.Sprintf("query: unknown formula node %T", g))
		}
	}
	walk(f)
	return out
}

// Relations returns the set of relation names used in f.
func Relations(f Formula) map[string]bool {
	out := make(map[string]bool)
	for _, a := range Atoms(f) {
		out[a.Rel] = true
	}
	return out
}
