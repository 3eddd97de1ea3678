package views

import "eb/internal/access"

// Outside plan and core, N is read freely.
func Bound(e access.Entry) int { return e.N }
