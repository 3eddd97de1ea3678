package access

// Entry mirrors the access entry (R, X, N, T).
type Entry struct {
	Rel string
	N   int
	T   int
}

// Located embeds an Entry, as the real catalog does.
type Located struct {
	Entry
	OnPos []int
}
