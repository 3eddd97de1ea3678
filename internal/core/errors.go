package core

import (
	"errors"

	"repro/internal/access"
	"repro/internal/store"
)

// The error taxonomy of the serving API. Every load-bearing failure of
// Prepare/Exec wraps one of these sentinels, so callers dispatch with
// errors.Is instead of string matching:
//
//	prep, err := eng.Prepare(q, x)
//	if errors.Is(err, core.ErrNotControllable) { ... rescue it with a view (CreateView) ... }
var (
	// ErrNotControllable: the query is not x̄-controlled under the access
	// schema for the requested x̄ — no bounded plan exists (or, when the
	// analysis family was truncated, none was found).
	ErrNotControllable = errors.New("query is not controllable under the access schema")

	// ErrBudgetExceeded: a WithMaxReads budget (or a caller-set
	// store.ExecStats.MaxReads) was crossed at runtime. Aliased from the
	// store, which enforces it on the read path.
	ErrBudgetExceeded = store.ErrBudgetExceeded

	// ErrCanceled: the execution context was canceled or its deadline
	// passed before evaluation finished. Errors wrapping it also wrap the
	// underlying ctx.Err(), so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) work too. Aliased from the
	// store, which checks it on every charged access.
	ErrCanceled = store.ErrCanceled

	// ErrUnboundHead: the plan produced a binding that misses a head
	// variable — the caller fixed a set that does not determine the head
	// (e.g. a Boolean sub-derivation was chosen for a non-Boolean query).
	ErrUnboundHead = errors.New("plan binding leaves a head variable unbound")

	// ErrNoRows: First was called on a query with an empty answer set —
	// the database/sql-style sentinel of the cursor API.
	ErrNoRows = errors.New("no answers in result set")

	// ErrWatchNotMaintainable: the query cannot be incrementally maintained
	// under updates — some maintenance remainder is not controllable under
	// the access schema (Proposition 5.5's condition fails), or the body is
	// not a conjunction of atoms. Watch with WithReexec to serve the live
	// query by bounded re-execution per commit instead.
	ErrWatchNotMaintainable = errors.New("query is not incrementally maintainable under the access schema")

	// ErrInvalidUpdate: Engine.Commit rejected ΔD before applying anything —
	// empty update, unknown relation, arity mismatch, deleting an absent
	// tuple or inserting a present one.
	ErrInvalidUpdate = errors.New("update rejected by commit validation")

	// ErrSlowConsumer: a consumer fell behind a bounded delta stream beyond
	// what coalescing can absorb. The engine's own Live queue no longer
	// raises it — a full WithDeltaBuffer queue folds its oldest deltas into
	// one net delta (Delta.Folded) instead of failing — but the sentinel
	// remains in the taxonomy for serving layers (e.g. a network watch
	// stream) that must shed consumers they cannot buffer for.
	ErrSlowConsumer = errors.New("consumer fell behind the commit stream")

	// ErrInvalidQuery: the request itself is malformed — the query is
	// outside the supported fragment for the operation, names an unknown
	// relation, or the caller's bindings miss a controlling variable.
	// Serving tiers map it to 400; it means "fix the request", where
	// ErrNotControllable means "fix the access schema".
	ErrInvalidQuery = errors.New("invalid query or bindings")

	// ErrViewExists: CreateView found the name taken — by another view or
	// by a base relation. DDL conflict, not a query error: maps to 409.
	ErrViewExists = errors.New("a view or relation with this name already exists")

	// ErrAccessViolation: the stored data breaks its access schema — a
	// group fetched on the read path holds more than its entry's N tuples.
	// A fault of the data, not of the request: serving tiers map it to
	// 500. Aliased from package access.
	ErrAccessViolation = access.ErrViolation

	// ErrUnknownView: DropView (or a view lookup) named a view that is not
	// registered on this engine. Maps to 404.
	ErrUnknownView = errors.New("no such view")
)
