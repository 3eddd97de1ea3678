package store

import (
	"repro/internal/access"
	"repro/internal/relation"
)

// Backend is the one storage interface the evaluators and the engine run
// against: the charged read path, the commit log, online relation DDL
// and the bookkeeping around them. The single-node *DB is the reference
// implementation; the hash-sharded store in internal/shard plugs into
// the same engine, counters, witness traces, read budgets and
// cancellation semantics. The only capability the two differ on, plan-
// time fetch routing, is the separate RoutePlanner.
//
// Contract, shared by every implementation:
//
//   - FetchInto returns exactly σ_X=ā(R) (or π_Y(σ_X=ā(R)) for an embedded
//     entry), charging |result| tuple reads and enforcing the entry's
//     cardinality bound N.
//   - MembershipInto is one probe: one membership charged, plus one tuple
//     read when present.
//   - ScanInto returns all of R, charging |R| tuple reads.
//   - All three charge the per-call *ExecStats (nil allowed: the read is
//     uncounted), honor its MaxReads budget (failing with
//     ErrBudgetExceeded) and its Ctx (failing with ErrCanceled), and
//     record touched base tuples in its Trace. The ExecStats is the only
//     record of the work: a Backend keeps no counters of its own.
//   - Returned slices are snapshots: they stay valid after concurrent
//     ApplyVersioned and ApplyDerived calls.
//   - TupleReads charged for the same logical access are identical across
//     backends; bookkeeping counters that reflect physical topology
//     (IndexLookups, Scans, TimeUnits under scatter-gather) may differ.
//     The conformance suite in internal/backendtest checks this.
//
// A Backend is safe for concurrent use.
type Backend interface {
	// Schema returns the relational schema.
	Schema() *relation.Schema
	// Access returns the access schema the backend realizes.
	Access() *access.Schema
	// Size returns |D|.
	Size() int

	// FetchInto performs the indexed retrieval licensed by entry e with
	// values for e.On, charging es.
	FetchInto(es *ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error)
	// MembershipInto probes t ∈ rel, charging es.
	MembershipInto(es *ExecStats, rel string, t relation.Tuple) (bool, error)
	// ScanInto returns every tuple of rel, charging a full scan to es.
	ScanInto(es *ExecStats, rel string) ([]relation.Tuple, error)
	// ChargeScanned charges the counters of a full scan of n tuples without
	// touching data — for memoized scan-snapshot replays (eval.ScanSnapshot).
	ChargeScanned(es *ExecStats, n int) error

	// ValidateUpdate checks ΔD against the current data without applying
	// it. With concurrent writers the check is advisory — the apply path
	// re-validates under its own locking — but it lets Engine.Commit
	// reject an invalid ΔD before charging any watcher maintenance work
	// (the commit pipeline's phase 0).
	ValidateUpdate(u *relation.Update) error
	// ApplyVersioned validates and applies ΔD, keeping indices in sync,
	// and returns the log sequence number (LSN) assigned to it: strictly
	// monotonic, starting at 1, advanced only by successful applies. It is
	// the one write path; Engine.Commit calls it and records the LSN in
	// its CommitResult. Atomicity with respect to concurrent readers is
	// per locking domain: the single-node DB applies ΔD under one
	// exclusive lock, while a partitioned backend applies per-shard pieces
	// under per-shard locks — a concurrent reader may observe an update to
	// several shards partially applied. Each individual read still sees a
	// coherent snapshot of every shard it touches.
	ApplyVersioned(u *relation.Update) (int64, error)
	// Version returns the LSN of the last applied update (0 before the
	// first). On a partitioned backend it is the merged (whole-backend)
	// commit number.
	Version() int64
	// ShardVersions returns each partition's own LSN, advanced only by
	// commits that touched it: at least one element, since a single-node
	// backend is one partition.
	ShardVersions() []int64
	// EnsureIndex builds (or reuses) a plain index on attrs of rel.
	EnsureIndex(rel string, attrs []string) error

	// AddRelation declares rs, seeds it with tuples, registers the given
	// access entries (each must name rs) and builds their indices. On a
	// partitioned backend the new relation is routed from its entries
	// like a base relation and the seed tuples are partitioned. The
	// engine's materialized-view registry creates the relation backing a
	// view through it.
	AddRelation(rs relation.RelSchema, entries []access.Entry, tuples []relation.Tuple) error
	// DropRelation removes the relation with its access entries and
	// indices; dropping an absent relation is not an error.
	DropRelation(name string) error
	// ApplyDerived validates and applies ΔD like ApplyVersioned but
	// WITHOUT advancing the LSN: a view delta is derived state of the base
	// commit that produced it, not a commit of its own, so the LSN keeps
	// counting base commits only.
	ApplyDerived(u *relation.Update) error
	// HasRelation reports whether THIS backend instance stores the named
	// relation. Instances may share one *relation.Schema (shards; test
	// harnesses opening reference and backend over one schema), so a
	// schema declaration alone does not answer existence here.
	HasRelation(name string) bool

	// EntriesFor returns the access entries available for rel, most
	// selective first (the planner consumes this).
	EntriesFor(rel string) []access.Entry
	// CloneData returns a consistent, synchronized snapshot copy of the
	// whole data set (merged across shards for a partitioned backend).
	// Uncounted: for conformance checks and offline precomputation, not
	// the query path.
	CloneData() *relation.Database
	// Conforms checks cardinality conformance of the data to the access
	// schema.
	Conforms() error
}

// RouteKind classifies how a planned fetch reaches the data. The planner
// resolves it once at plan-compile time; the per-call fetch path then
// skips the routing decision entirely.
type RouteKind uint8

const (
	// RouteLocal: nothing to route — a single-node backend, or a plan not
	// yet resolved, whose fetches go through FetchInto and let the backend
	// decide per call.
	RouteLocal RouteKind = iota
	// RouteSingle: the entry's bound attributes cover the relation's
	// partitioning key — every fetch touches exactly one shard.
	RouteSingle
	// RouteScatter: the fetch must be scatter-gathered across all shards.
	RouteScatter
)

// String renders the route for EXPLAIN output.
func (k RouteKind) String() string {
	switch k {
	case RouteSingle:
		return "single-shard"
	case RouteScatter:
		return "scatter"
	default:
		return "local"
	}
}

// FetchRoute is a plan-time routing decision for one access entry: the
// kind, plus — for RouteSingle — the positions within e.On holding the
// partitioning-key values (in key-attribute order), so the executing fetch
// derives the target shard without re-matching attribute names.
type FetchRoute struct {
	Kind   RouteKind
	KeyPos []int
}

// RoutePlanner is implemented by partitioned backends that can resolve
// the single-shard vs scatter decision per access entry at plan time
// (internal/plan asks during compilation). PlanFetch is a pure function
// of the entry and the backend's routing configuration; FetchPlanned
// executes a fetch under a previously planned route with the same
// observable counters as FetchInto.
type RoutePlanner interface {
	PlanFetch(e access.Entry) FetchRoute
	FetchPlanned(es *ExecStats, e access.Entry, vals []relation.Value, r FetchRoute) ([]relation.Tuple, error)
}

// The single-node DB is the reference Backend.
var _ Backend = (*DB)(nil)
