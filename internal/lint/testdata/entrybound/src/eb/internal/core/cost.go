package core

import "eb/internal/access"

// Only plan's cost.go is exempt.
func cost(e access.Entry) int64 { return int64(e.N) } // want "read of access.Entry.N"
