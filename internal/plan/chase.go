package plan

import (
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// ChaseStep is one bounded action of a ChaseExec operator: either a fetch
// through an access entry (Atom != nil) or a free equality-propagation
// step. It is the physical form of the chase of Proposition 4.5.
type ChaseStep struct {
	// Fetch step (Atom != nil): retrieve via Entry with values for the
	// variables/constants at OnPos; unify fetched tuples with ProjPos.
	Atom    *query.Atom
	AtomIdx int
	Entry   access.Entry
	OnPos   []int // positions (within the atom) of Entry.On
	ProjPos []int // positions of Entry's effective Y
	// Binds is the mask, over the plan's Vars, of the variables the step
	// binds first.
	Binds uint64
	// Verifies marks a fetch that fully verifies its atom (no membership
	// probe needed).
	Verifies bool
	// Route is the plan-time routing decision for the fetch.
	Route store.FetchRoute
	// Equality-propagation step (Atom == nil): bind/check L = R.
	EqL, EqR string
	// On and Proj are masks over the plan's Vars. A fetch runs once On,
	// the variables at OnPos, are bound, and binds Proj, those at ProjPos;
	// a propagation runs once one variable of Proj, {EqL, EqR}, is bound.
	On, Proj uint64
}

// Format renders the step for EXPLAIN output; vt is the Vars its masks
// are over.
func (s ChaseStep) Format(vt *Vars) string {
	if s.Atom == nil {
		return fmt.Sprintf("propagate %s = %s", s.EqL, s.EqR)
	}
	verb := "fetch"
	if s.Verifies {
		verb = "fetch+verify"
	}
	out := fmt.Sprintf("%s %s via %s (binds %s)", verb, s.Atom, s.Entry.String(), strings.Join(vt.Names(s.Binds), ","))
	switch s.Route.Kind {
	case store.RouteSingle:
		out += " [single-shard]"
	case store.RouteScatter:
		out += " [scatter]"
	}
	return out
}

// ChaseExec runs an embedded-controllability chase depth-first: a
// candidate is driven through the remaining steps (and the final
// equality/membership verification) before the next tuple of an earlier
// fetch is considered, so the first answer surfaces after one
// root-to-leaf pass instead of after every step has run over every
// candidate.
type ChaseExec struct {
	opID
	// Atoms of the (equality-free-by-substitution) conjunction.
	Atoms []*query.Atom
	// Steps in execution order.
	Steps []ChaseStep
	// MembershipAtoms indexes Atoms that require a final membership probe.
	MembershipAtoms []int
	// EqConsts binds variables equated to constants before execution.
	EqConsts map[string]relation.Value
	// EqVars are variable equalities checked on every candidate after the
	// steps run (propagation steps bind, these verify).
	EqVars [][2]string
	// EqBound is the mask of the variables EqConsts binds.
	EqBound uint64

	varSets       // Need: the controlling set; Out: the variables the chase outputs
	vars    *Vars // the numbering the masks are over, for EXPLAIN
}

// NewChaseExec wraps a compiled chase; ctrl is the controlling set the
// chase was built for and free the variables it outputs, both over vt.
func NewChaseExec(vt *Vars, ctrl, free uint64) *ChaseExec {
	return &ChaseExec{varSets: newVarSets(vt, ctrl, free), vars: vt}
}

// Bound implements Node.
func (n *ChaseExec) Bound() Cost {
	return chaseCost(n.Need()|n.EqBound, n.Steps, len(n.MembershipAtoms))
}

// chaseCost prices a chase that runs steps in order from the variables
// seed bound, then probes probes atoms for membership: each fetch is a
// step of the one Fetch rule, binding when its Proj holds a variable no
// earlier step bound, and equality propagation is free. It is the
// operator's Bound and the price the chase reorder compares.
func chaseCost(seed uint64, steps []ChaseStep, probes int) Cost {
	c, bound := Cost{Candidates: 1}, seed
	for _, s := range steps {
		if s.Atom != nil {
			c = Join(c, Fetch(EntryBound(s.Entry), s.Proj&^bound != 0))
		}
		bound |= s.Proj
	}
	return Join(c, Probe(probes))
}

// Describe implements Node.
func (n *ChaseExec) Describe() string {
	return fmt.Sprintf("ChaseExec (%d steps, %d membership probes)", len(n.Steps), len(n.MembershipAtoms))
}

// Stream implements Node. Every fetch step and membership probe of the
// chase is charged to the single ChaseExec operator.
func (n *ChaseExec) Stream(rt Runtime, env query.Bindings) Seq {
	return traced(rt, n.id, n.stream(rt, env))
}

func (n *ChaseExec) stream(rt Runtime, env query.Bindings) Seq {
	if err := rt.Check(); err != nil {
		return failSeq(err)
	}
	// Seed candidate: constants from equalities plus the caller's values
	// for the chase's variables.
	seed := make(query.Bindings)
	for v, val := range n.EqConsts {
		seed[v] = val
	}
	for v, val := range env {
		if prev, ok := seed[v]; ok && !prev.Equal(val) {
			return emptySeq
		}
		seed[v] = val
	}
	return dedupSeq(func(yield func(query.Bindings, error) bool) {
		// rec drives candidate c through Steps[i:]; it returns false when
		// the consumer stopped (or an error was yielded) and the whole
		// recursion must unwind.
		var rec func(i int, c query.Bindings) bool
		rec = func(i int, c query.Bindings) bool {
			if err := rt.Check(); err != nil {
				yield(nil, err)
				return false
			}
			if i == len(n.Steps) {
				return n.finish(rt, c, yield)
			}
			step := n.Steps[i]
			if step.Atom == nil {
				// Equality propagation: bind the unbound side or filter.
				lv, lok := c[step.EqL]
				rv, rok := c[step.EqR]
				switch {
				case lok && rok:
					if !lv.Equal(rv) {
						return true
					}
					return rec(i+1, c)
				case lok:
					c2 := c.Clone()
					c2[step.EqR] = lv
					return rec(i+1, c2)
				case rok:
					c2 := c.Clone()
					c2[step.EqL] = rv
					return rec(i+1, c2)
				default:
					yield(nil, fmt.Errorf("plan: equality %s = %s with both sides unbound", step.EqL, step.EqR))
					return false
				}
			}
			vals, err := TupleForPositions(step.Atom, step.OnPos, c)
			if err != nil {
				yield(nil, err)
				return false
			}
			fetched, err := rt.Fetch(n.id, step.Entry, vals, step.Route)
			if err != nil {
				yield(nil, err)
				return false
			}
			for _, tu := range fetched {
				c2, ok := unifyProjected(step, tu, c)
				if ok && !rec(i+1, c2) {
					return false
				}
			}
			return true
		}
		rec(0, seed)
	}, n.outNames)
}

// finish verifies one fully chased candidate — the equality checks and
// the membership probes of atoms not covered by a verifying fetch — and
// yields its restriction to the chase's free variables.
func (n *ChaseExec) finish(rt Runtime, c query.Bindings, yield func(query.Bindings, error) bool) bool {
	for _, ev := range n.EqVars {
		if !c[ev[0]].Equal(c[ev[1]]) {
			return true
		}
	}
	for _, ai := range n.MembershipAtoms {
		a := n.Atoms[ai]
		t := make(relation.Tuple, len(a.Args))
		for i, arg := range a.Args {
			if arg.IsVar() {
				v, bound := c[arg.Name()]
				if !bound {
					yield(nil, fmt.Errorf("plan: chase left %q unbound for membership of %s", arg.Name(), a))
					return false
				}
				t[i] = v
			} else {
				t[i] = arg.Value()
			}
		}
		present, err := rt.Member(n.id, a.Rel, t)
		if err != nil {
			yield(nil, err)
			return false
		}
		if !present {
			return true
		}
	}
	return yield(restrict(c, n.outNames), nil)
}

// unifyProjected matches a fetched (possibly projected) tuple against the
// atom positions of a chase fetch step.
func unifyProjected(step ChaseStep, tu relation.Tuple, c query.Bindings) (query.Bindings, bool) {
	out := c
	cloned := false
	for j, p := range step.ProjPos {
		arg := step.Atom.Args[p]
		if !arg.IsVar() {
			if arg.Value() != tu[j] {
				return nil, false
			}
			continue
		}
		name := arg.Name()
		if v, ok := out[name]; ok {
			if !v.Equal(tu[j]) {
				return nil, false
			}
			continue
		}
		if !cloned {
			out = c.Clone()
			cloned = true
		}
		out[name] = tu[j]
	}
	if !cloned {
		out = c.Clone()
	}
	return out, true
}
