package query

import "math/bits"

// VarBits numbers variables as the bits of a uint64, so that a set of them
// is one word: union is |, difference &^, and s ⊆ o is s&^o == 0. Ids are
// handed out in the order Bit first sees a name; numbering names in sorted
// order up front makes ascending bits list them sorted. A 65th variable
// gets no bit and marks the numbering Full.
type VarBits struct {
	ids   map[string]uint
	names []string // by id, built by the first Names or VarSet after a Bit
	full  bool
}

// NewVarBits returns an empty numbering with room for n variables.
func NewVarBits(n int) VarBits {
	return VarBits{ids: make(map[string]uint, n)}
}

// Bit returns v's bit, numbering v if it is new; 0 once 64 variables are
// numbered.
func (vb *VarBits) Bit(v string) uint64 {
	id, ok := vb.ids[v]
	if !ok {
		if len(vb.ids) == 64 {
			vb.full = true
			return 0
		}
		if vb.ids == nil {
			vb.ids = make(map[string]uint)
		}
		id = uint(len(vb.ids))
		vb.ids[v] = id
	}
	return 1 << id
}

// Full reports that a variable was left unnumbered: masks are incomplete.
func (vb *VarBits) Full() bool { return vb.full }

// Set returns the mask of vs.
func (vb *VarBits) Set(vs VarSet) (m uint64) {
	for v := range vs {
		m |= vb.Bit(v)
	}
	return m
}

// At returns the mask of the variables at the given atom positions.
func (vb *VarBits) At(a *Atom, positions []int) (m uint64) {
	for _, p := range positions {
		if t := a.Args[p]; t.IsVar() {
			m |= vb.Bit(t.Name())
		}
	}
	return m
}

// Names lists the variables of m in ascending bit order.
func (vb *VarBits) Names(m uint64) []string {
	if m == 0 {
		return nil
	}
	names := vb.byID()
	out := make([]string, 0, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, names[bits.TrailingZeros64(m)])
	}
	return out
}

// VarSet returns the variables of m as a set.
func (vb *VarBits) VarSet(m uint64) VarSet {
	names := vb.byID()
	out := make(VarSet, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out[names[bits.TrailingZeros64(m)]] = true
	}
	return out
}

// byID returns the numbered variables by id. A numbering used only for
// masks never builds the list.
func (vb *VarBits) byID() []string {
	if len(vb.names) != len(vb.ids) {
		vb.names = make([]string, len(vb.ids))
		for v, id := range vb.ids {
			vb.names[id] = v
		}
	}
	return vb.names
}
