package plan

import "eb/internal/access"

func Bad(e access.Entry, l access.Located, p *access.Located) int64 {
	n := int64(e.N)    // want "read of access.Entry.N outside plan/cost.go"
	n += int64(l.N)    // want "read of access.Entry.N"
	n += int64(p.N)    // want "read of access.Entry.N"
	if l.Entry.N > 1 { // want "read of access.Entry.N"
		n++
	}
	return n
}

// other has a field of the same name that is no entry's bound.
type other struct{ N int }

func Good(e access.Entry, l access.Located, o other) int64 {
	e.N = 3       // a write builds an entry
	l.Entry.N = 4 // so does this one
	_ = access.Entry{N: 5}
	return EntryBound(e) + EntryBound(l.Entry) + int64(o.N) + int64(e.T)
}
