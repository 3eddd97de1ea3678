package core

import "eb/internal/access"

func Price(l access.Located) int64 {
	return int64(l.N) // want "read of access.Entry.N"
}

func Conforms(e access.Entry, size int) bool {
	//sivet:ignore entrybound -- compares data with the declared N, not a price
	return size <= e.N
}
