package plan

// PeelGuards splits the leading membership probes off a join chain whose
// environment binds env: the probes that run first on the chain's spine
// and whose every variable env binds. Each yields the environment itself
// or nothing, so a caller holding the environment can evaluate them as
// one Member call each, in order, and open rest only when all hold. rest
// is the chain without them (nil when the chain was nothing but guards);
// a final restriction (a Project dropping nothing) is peeled too, since
// the environment supplies the variables it would keep. n itself is left
// as it was: the joins on the peeled spine are copied.
//
// The peeled plan reads and charges what the unpeeled one does, and
// prices the same: Join(Probe(len(guards)), rest.Bound()) equals n's
// Bound, since Join is associative and a probe passes at most its one
// candidate on.
func PeelGuards(n Node, env uint64) (guards []*MembershipProbe, rest Node) {
	if p, ok := n.(*Project); ok && len(p.Drop) == 0 {
		n = p.Child
	}
	rest = peel(n, env, &guards)
	if len(guards) == 0 {
		return nil, n
	}
	return guards, rest
}

// peel removes the guards leading n, appending them to guards, and
// returns what is left of n (nil when nothing is).
func peel(n Node, env uint64, guards *[]*MembershipProbe) Node {
	switch v := n.(type) {
	case *MembershipProbe:
		if v.Need()&^env != 0 {
			return n
		}
		*guards = append(*guards, v)
		return nil
	case *NLJoin:
		l := peel(v.L, env, guards)
		if l == nil {
			// The left side was all guards, so R runs first now.
			return peel(v.R, env, guards)
		}
		if l == v.L {
			return v
		}
		c := *v
		c.L = l
		return &c
	default:
		return n
	}
}
