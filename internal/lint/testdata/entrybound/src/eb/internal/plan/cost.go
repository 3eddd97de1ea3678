package plan

import "eb/internal/access"

// EntryBound is the one reader: cost.go in plan is exempt.
func EntryBound(e access.Entry) int64 { return int64(e.N) }
