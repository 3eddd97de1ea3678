package plan

import (
	"errors"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/query"
)

// ErrTooManyVars reports a formula with more than 64 distinct variables,
// which a Vars cannot number.
var ErrTooManyVars = errors.New("plan: more than 64 distinct variables")

// Vars numbers the variables of one query, free and bound, in sorted-name
// order: variable id is the bit 1<<id of a uint64, so a set of variables
// is one word (union is |, difference &^, and s ⊆ o is s&^o == 0), and
// ascending ids list the names sorted. One pre-order walk builds it (see
// NumberFormula); it records each formula node's free variables, as a
// mask and as sorted names, by the node's pre-order position, and each
// atom's argument ids.
//
// The controllability analysis reads its masks, and every operator
// compiled from the analysis keeps its variable sets as masks over the
// same numbering. A Vars is read-only once built.
type Vars struct {
	names []string  // by id
	nodes []varNode // by pre-order position
	args  []int8    // the argument ids of atoms and equalities; -1 for a constant
	// freeNames lists each node's free variables, sorted: the out-names
	// of every operator compiled 1:1 from the formula, in one slab.
	freeNames []string

	// Inline backing for typical queries: numbering one allocates the
	// Vars and one slab of names.
	nodeBuf [16]varNode
	argBuf  [48]int8
}

// varNode is one formula node of a numbered formula.
type varNode struct {
	free  uint64 // the node's free variables
	size  int32  // nodes in its subtree, itself included
	args  int32  // Atom, Eq: offset of its argument ids in Vars.args
	names int32  // offset of the free variables' names in Vars.freeNames
}

// NumberFormula numbers f's variables. Node 0 is f; a unary node's
// operand follows it, and a binary node's right operand follows its left
// operand's subtree (see Right).
func NumberFormula(f query.Formula) (*Vars, error) {
	var nb numbering
	nb.start()
	nb.add(f)
	return nb.done()
}

// NumberAtoms numbers a conjunction's atoms: atom i is node i.
func NumberAtoms(atoms []*query.Atom) (*Vars, error) {
	var nb numbering
	nb.start()
	for _, a := range atoms {
		nb.add(a)
	}
	return nb.done()
}

// Free returns the free variables of the node at pre-order position pos.
func (v *Vars) Free(pos int) uint64 { return v.nodes[pos].free }

// Right returns the position of the right operand of the binary node at
// pos (its left operand is at pos+1).
func (v *Vars) Right(pos int) int { return pos + 1 + int(v.nodes[pos+1].size) }

// Args returns the argument ids of the atom or equality at pos, -1 for a
// constant argument. The slice is shared: callers must not modify it.
func (v *Vars) Args(pos int) []int8 {
	n := &v.nodes[pos]
	end := len(v.args)
	if pos+1 < len(v.nodes) {
		end = int(v.nodes[pos+1].args)
	}
	return v.args[n.args:end:end]
}

// Names lists the variables of m in ascending id, that is sorted, order.
// The list of a formula node's free variables is shared: callers must not
// modify it.
func (v *Vars) Names(m uint64) []string {
	if m == 0 {
		return nil
	}
	k := bits.OnesCount64(m)
	for i := range v.nodes {
		if n := &v.nodes[i]; n.free == m {
			return v.freeNames[n.names : int(n.names)+k : int(n.names)+k]
		}
	}
	out := make([]string, 0, k)
	for ; m != 0; m &= m - 1 {
		out = append(out, v.names[bits.TrailingZeros64(m)])
	}
	return out
}

// Set returns the variables of m as a set.
func (v *Vars) Set(m uint64) query.VarSet {
	out := make(query.VarSet, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out[v.names[bits.TrailingZeros64(m)]] = true
	}
	return out
}

// Format renders m as query.VarSet.String renders the same set.
func (v *Vars) Format(m uint64) string {
	var b strings.Builder
	b.WriteByte('{')
	for first := true; m != 0; m &= m - 1 {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(v.names[bits.TrailingZeros64(m)])
	}
	b.WriteByte('}')
	return b.String()
}

// Mask returns the mask of the numbered variables of vs; names the
// numbering does not know are left out.
func (v *Vars) Mask(vs query.VarSet) (m uint64) {
	for name := range vs {
		if id, ok := slices.BinarySearch(v.names, name); ok {
			m |= 1 << id
		}
	}
	return m
}

// ArgMask returns the mask of the variables at the given argument
// positions.
func ArgMask(args []int8, positions []int) (m uint64) {
	for _, p := range positions {
		if id := args[p]; id >= 0 {
			m |= 1 << id
		}
	}
	return m
}

// ArgsMask returns the mask of every variable among args.
func ArgsMask(args []int8) (m uint64) {
	for _, id := range args {
		if id >= 0 {
			m |= 1 << id
		}
	}
	return m
}

// numbering is the walk that builds a Vars. It numbers variables in
// order of first occurrence while it walks, then renumbers them in
// sorted-name order, so the formula is walked once.
type numbering struct {
	v     *Vars
	seen  [64]string // by first-occurrence id
	n     int        // len of seen in use
	wide  bool       // a 65th distinct variable occurred
	nodes []varNode
	args  []int8
}

func (nb *numbering) start() {
	nb.v = new(Vars)
	nb.nodes, nb.args = nb.v.nodeBuf[:0], nb.v.argBuf[:0]
}

// id returns name's first-occurrence id, numbering it if it is new.
func (nb *numbering) id(name string) int8 {
	for i, s := range nb.seen[:nb.n] {
		if s == name {
			return int8(i)
		}
	}
	if nb.n == len(nb.seen) {
		nb.wide = true
		return -1
	}
	nb.seen[nb.n] = name
	nb.n++
	return int8(nb.n - 1)
}

// terms records the argument ids of an atom or equality and returns
// their mask.
func (nb *numbering) terms(ts ...query.Term) (m uint64) {
	for _, t := range ts {
		id := int8(-1)
		if t.IsVar() {
			if id = nb.id(t.Name()); id >= 0 {
				m |= 1 << id
			}
		}
		nb.args = append(nb.args, id)
	}
	return m
}

// mask returns the mask of the named variables, numbering new ones.
func (nb *numbering) mask(names []string) (m uint64) {
	for _, name := range names {
		if id := nb.id(name); id >= 0 {
			m |= 1 << id
		}
	}
	return m
}

// add walks f in pre-order, appending a node per formula node, and
// returns f's free variables.
func (nb *numbering) add(f query.Formula) uint64 {
	pos := len(nb.nodes)
	nb.nodes = append(nb.nodes, varNode{args: int32(len(nb.args))})
	var free uint64
	switch n := f.(type) {
	case *query.Atom:
		free = nb.terms(n.Args...)
	case *query.Eq:
		free = nb.terms(n.L, n.R)
	case *query.Not:
		free = nb.add(n.F)
	case *query.And:
		free = nb.add(n.L) | nb.add(n.R)
	case *query.Or:
		free = nb.add(n.L) | nb.add(n.R)
	case *query.Implies:
		free = nb.add(n.L) | nb.add(n.R)
	case *query.Exists:
		q := nb.mask(n.Vars)
		free = nb.add(n.Body) &^ q
	case *query.Forall:
		q := nb.mask(n.Vars)
		free = nb.add(n.Body) &^ q
	}
	nb.nodes[pos].free = free
	nb.nodes[pos].size = int32(len(nb.nodes) - pos)
	return free
}

// done renumbers the variables in sorted-name order, lists every node's
// free variables, and returns the numbering.
func (nb *numbering) done() (*Vars, error) {
	if nb.wide {
		return nil, ErrTooManyVars
	}
	v := nb.v
	v.nodes, v.args = nb.nodes, nb.args
	total := nb.n
	for i := range v.nodes {
		total += bits.OnesCount64(v.nodes[i].free)
	}
	slab := make([]string, nb.n, total)
	copy(slab, nb.seen[:nb.n])
	slices.Sort(slab)
	v.names = slab[:nb.n:nb.n]
	var perm [64]int8
	ident := true
	for i, name := range nb.seen[:nb.n] {
		id, _ := slices.BinarySearch(v.names, name)
		perm[i] = int8(id)
		ident = ident && id == i
	}
	for i := range v.nodes {
		n := &v.nodes[i]
		if !ident {
			var m uint64
			for f := n.free; f != 0; f &= f - 1 {
				m |= 1 << perm[bits.TrailingZeros64(f)]
			}
			n.free = m
		}
		n.names = int32(len(slab))
		for f := n.free; f != 0; f &= f - 1 {
			slab = append(slab, v.names[bits.TrailingZeros64(f)])
		}
	}
	v.freeNames = slab
	if !ident {
		for i, id := range v.args {
			if id >= 0 {
				v.args[i] = perm[id]
			}
		}
	}
	return v, nil
}
