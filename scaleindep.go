// Package scaleindep is a from-scratch Go implementation of
//
//	Wenfei Fan, Floris Geerts, Leonid Libkin.
//	"On Scale Independence for Querying Big Data." PODS 2014.
//
// It provides bounded (scale-independent) query evaluation under access
// schemas, incremental maintenance of live queries (Watch + Commit), and
// views that rescue uncontrollable queries. The paper's definition-level
// decision procedures are internal: QDSI/QSI/∆QSI in internal/qdsi, VQSI
// in internal/views — see DESIGN.md for the full inventory and
// EXPERIMENTS.md for the experiment index.
//
// This file is the public facade: a small, stable API over the internal
// engine. The serving flow is modeled on database/sql: prepare once (the
// worst-case exponential controllability analysis runs a single time and
// compiles a bounded plan), then execute many times with fresh bindings.
// A shared Engine is safe for concurrent use; every call gets its own
// measured cost and witness set.
//
//	cat, _ := scaleindep.ParseCatalog(catalogText)     // schema + access schema
//	db := relation data loaded or generated
//	eng, _ := scaleindep.NewEngine(db, cat.Access)
//	q, _ := scaleindep.ParseQuery("Q1(p, name) := ...")
//
//	prep, err := eng.Prepare(q, scaleindep.NewVarSet("p"))
//	if errors.Is(err, scaleindep.ErrNotControllable) {
//		// no bounded plan exists for this controlling set
//	}
//	ans, _ := prep.Exec(ctx, scaleindep.Bindings{"p": scaleindep.Int(42)},
//		scaleindep.WithMaxReads(10_000))   // runtime enforcement of the bound
//
// ans carries the answers, the executed bounded plan with its static cost
// bound, this call's access counters, and its witness set D_Q. The
// one-shot eng.Answer / eng.AnswerContext path remains and benefits
// transparently from an engine-level LRU plan cache. Failures wrap the
// typed sentinels ErrNotControllable, ErrBudgetExceeded, ErrCanceled,
// ErrUnboundHead and ErrNoRows for errors.Is dispatch.
//
// Results also stream: prep.Query / eng.QueryContext open a pull-based
// Rows cursor (Next/Tuple/Err/Close, or range over rows.All()) behind
// which the bounded plan executes lazily — store reads are charged only
// as answers are pulled, so WithLimit(n), First, Close or a canceled
// context stop the reads (and the WithMaxReads budget) the moment the
// caller is satisfied, and time-to-first-answer no longer depends on the
// size of the full answer set:
//
//	rows, _ := prep.Query(ctx, scaleindep.Bindings{"p": scaleindep.Int(42)},
//		scaleindep.WithLimit(10))
//	for t, err := range rows.All() {
//		// first answers arrive while later fetches are still unissued
//	}
//
// Behind Prepare sits a physical plan compiler: the controllability
// derivation lowers to an operator IR (index lookups, membership probes,
// pipelined nested-loop joins, emptiness probes, streaming unions, chase
// steps) and a cost-based optimizer reorders conjuncts into their cheapest
// order (exact branch and bound), re-selects access entries as variables
// become bound, and — on a sharded backend — pins each fetch's
// single-shard vs scatter routing at plan time. Inspect the result with
// prep.Explain() (also rows.Explain(), sirun -explain):
//
//	fmt.Print(prep.Explain())
//	// Q1 controlled by {p}
//	// physical plan (≤5000 candidates, ≤10000 reads, optimizer on)
//	// order: friend(p, id), person(id, name, 'NYC')
//	// ...operator tree with per-operator bounds...
//
// Bounds and ordering both come from the access schema's N values, so
// measured reads stay within the plan's bound M on every backend. Every
// served answer has such a bound: a query that is not controllable for the
// fixed variables fails with ErrNotControllable unless a materialized
// view rescues it (Engine.CreateView, Theorem 6.1); it is never answered
// by full scans.
//
// The write path mirrors the read path's prepare-once discipline: mutate
// through the transactional eng.Commit rather than the raw backend, and
// subscribe to maintained answers with prep.Watch — the live-query
// counterpart of the paper's incremental scale independence result
// (ΔQSI): a bounded amount of maintenance work per commit keeps every
// subscription's answers exact, so readers never re-execute:
//
//	live, _ := prep.Watch(ctx, scaleindep.Bindings{"p": scaleindep.Int(42)})
//	defer live.Close()
//	go func() {
//	    for d, err := range live.Deltas() {   // blocks between commits
//	        // d.Ins / d.Del moved the answer set; d.Cost.TupleReads ≤ d.Bound
//	    }
//	}()
//	res, _ := eng.Commit(ctx, update)         // validate → apply → notify
//	_ = live.Snapshot()                       // current answers, any time
//
// Commit validates ΔD (failures wrap ErrInvalidUpdate and apply nothing),
// applies it through the backend's commit log (Backend.ApplyVersioned:
// one LSN per commit, per-shard LSNs plus a merged commit number on the
// sharded backend), assigns the engine-wide sequence number every Delta carries,
// and incrementally maintains each watched query through compiled
// maintenance plans — per-occurrence remainders ordered by the same
// cost-based optimizer, charged against an N-derived per-delta bound that
// is enforced as a runtime budget. Queries outside the maintainable class
// watch with WithReexec (bounded re-execution per commit); a watch of an
// unmaintainable query without it fails with ErrWatchNotMaintainable.
// Commit also tracks committed update volume per relation
// (EngineStats.CommittedVolume).
//
// The same lifecycle is served over the network by internal/server and
// cmd/siserve: POST /prepare returns a plan handle with the static bound
// M and EXPLAIN, POST /query streams a Rows cursor as NDJSON, POST
// /commit applies ΔD transactionally, GET /watch streams live deltas
// over SSE, and GET /statusz serves Engine.Stats. Because M is known at
// prepare time, the tier runs success-tolerant admission control: a
// query whose bound exceeds its tenant's SLA (per-query ceiling,
// windowed read budget, concurrency cap) is rejected up front with a
// typed, machine-readable error carrying the bound. The Go client in
// internal/server/client keeps this facade's shape (Prepare / Query /
// Exec / Watch / Commit) so engine code ports to the wire unchanged.
package scaleindep

import (
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
)

// Re-exported data model types.
type (
	// Value is a typed data value (int or string).
	Value = relation.Value
	// Tuple is an ordered list of values.
	Tuple = relation.Tuple
	// Database is an instance of a relational schema.
	Database = relation.Database
	// Schema is a relational schema.
	Schema = relation.Schema
	// RelSchema describes one relation.
	RelSchema = relation.RelSchema
	// Update is a set of insertions and deletions ΔD = (∇D, ΔD).
	Update = relation.Update
	// AccessSchema is a set of access constraints (R, X[Y], N, T).
	AccessSchema = access.Schema
	// AccessEntry is one access constraint.
	AccessEntry = access.Entry
	// Query is a named FO query.
	Query = query.Query
	// CQ is a conjunctive query in rule form.
	CQ = query.CQ
	// Bindings assigns values to variables (the ā for x̄).
	Bindings = query.Bindings
	// VarSet is a set of variable names.
	VarSet = query.VarSet
	// Engine answers controlled queries boundedly over an instrumented
	// store. Safe for concurrent use.
	Engine = core.Engine
	// PreparedQuery is a query analyzed and compiled once, executable many
	// times concurrently (Engine.Prepare).
	PreparedQuery = core.PreparedQuery
	// ExecOption configures one execution: WithMaxReads, WithLimit,
	// WithoutTrace, WithAnalyze, WithRequestID.
	ExecOption = core.ExecOption
	// Rows is a pull-based answer cursor (PreparedQuery.Query,
	// Engine.QueryContext): reads are charged only as answers are pulled.
	Rows = core.Rows
	// Answer is the result of one bounded evaluation: tuples, plan, this
	// call's measured cost and witness set D_Q.
	Answer = core.Answer
	// Derivation is a controllability proof, compilable to a bounded plan.
	Derivation = core.Derivation
	// ExecStats is a per-call execution context for direct store access,
	// and the only record of what that call read: its Counters, witness
	// trace and, under WithAnalyze, one record per plan operator. A
	// backend keeps no counters of its own; a nil *ExecStats is uncounted.
	ExecStats = store.ExecStats
	// Catalog is a parsed schema + access schema.
	Catalog = parser.Catalog
	// Store is an instrumented single-node database with indices and
	// access counters: the reference Backend.
	Store = store.DB
	// Backend is the storage interface the engine runs against; OpenSharded
	// and Open both return one. Custom backends plug in via NewEngineOn.
	Backend = store.Backend
	// ShardedStore is a hash-partitioned Backend: n independent shards,
	// single-shard fast paths for key accesses, parallel scatter-gather
	// reads, per-shard write locks.
	ShardedStore = shard.Store
	// ShardOption configures OpenSharded (e.g. WithRoute).
	ShardOption = shard.Option
	// Counters are the access-path work one call performed (tuple reads,
	// lookups, scans, probes, time units): ExecStats.Counters, Answer.Cost,
	// Rows.Cost. Sum them across calls with Add.
	Counters = store.Counters
	// OptimizerMode selects how Prepare compiles derivations into physical
	// plans: OptimizerOff (analysis order) or OptimizerOn (cost-based
	// reordering on access-constraint N bounds — the default). Set it per
	// engine with Engine.SetOptimizer.
	OptimizerMode = core.OptimizerMode
	// PlanCacheStats are the engine plan cache's hit/miss/evict counters
	// (Engine.PlanCacheStats).
	PlanCacheStats = core.PlanCacheStats
	// CommitResult describes one applied commit: engine sequence number,
	// backend log sequence number, watchers notified and the bounded
	// maintenance work charged (Engine.Commit).
	CommitResult = core.CommitResult
	// Live is a live-query handle (PreparedQuery.Watch,
	// Engine.WatchContext): a maintained answer Snapshot plus a Deltas
	// stream of per-commit changes, safe for concurrent use.
	Live = core.Live
	// Delta is one commit's effect on a live query's answers, with the
	// maintenance cost charged and the N-derived bound it ran under.
	// Delta.Folded > 0 marks a coalesced delta: the net effect of several
	// consecutive commits, produced when a WithDeltaBuffer queue overflows.
	Delta = core.Delta
	// EngineStats is the engine's unified observability snapshot
	// (Engine.Stats): backend size, plan-cache counters, commit sequence
	// numbers, committed volume, live watcher population. The HTTP serving
	// tier exposes it at GET /statusz.
	EngineStats = core.EngineStats
	// WatchOption configures a subscription: WithReexec, WithDeltaBuffer.
	WatchOption = core.WatchOption
)

// Plan optimizer modes for Engine.SetOptimizer.
const (
	// OptimizerOff compiles the analysis-emitted derivation 1:1.
	OptimizerOff = core.OptimizerOff
	// OptimizerOn (default) reorders conjuncts into their cheapest order
	// under the access schema's N bounds (exact branch and bound) and
	// re-selects access entries as variables become bound.
	OptimizerOn = core.OptimizerOn
)

// Typed error taxonomy: every load-bearing failure of Prepare/Exec wraps
// one of these sentinels — dispatch with errors.Is.
var (
	// ErrNotControllable: no bounded plan exists for the requested
	// controlling set.
	ErrNotControllable = core.ErrNotControllable
	// ErrBudgetExceeded: a WithMaxReads runtime budget was crossed.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrCanceled: the context was canceled or timed out mid-evaluation
	// (also matches context.Canceled / context.DeadlineExceeded).
	ErrCanceled = core.ErrCanceled
	// ErrUnboundHead: the plan left a head variable unbound.
	ErrUnboundHead = core.ErrUnboundHead
	// ErrNoRows: First found no answers.
	ErrNoRows = core.ErrNoRows
	// ErrWatchNotMaintainable: the query cannot be incrementally
	// maintained (watch with WithReexec for bounded re-execution instead).
	ErrWatchNotMaintainable = core.ErrWatchNotMaintainable
	// ErrInvalidUpdate: Engine.Commit rejected ΔD before applying anything.
	ErrInvalidUpdate = core.ErrInvalidUpdate
	// ErrSlowConsumer: a consumer fell behind a bounded delta stream
	// beyond what coalescing can absorb. Engine-level WithDeltaBuffer
	// subscriptions no longer raise it (overflow folds the oldest queued
	// deltas into one net delta instead — see Delta.Folded); the sentinel
	// remains for serving layers that must shed consumers.
	ErrSlowConsumer = core.ErrSlowConsumer
)

// Execution options for PreparedQuery.Exec and Engine.AnswerContext.
var (
	// WithMaxReads enforces a runtime budget of n tuple reads on the call.
	WithMaxReads = core.WithMaxReads
	// WithoutTrace skips witness-set (D_Q) bookkeeping on the hot path.
	WithoutTrace = core.WithoutTrace
	// WithAnalyze records one entry per plan operator (rows, reads, wall
	// time, scatter branches) in the call's ExecStats, which Rows.OpCharges
	// returns and Rows.Analyze renders as EXPLAIN ANALYZE.
	WithAnalyze = core.WithAnalyze
	// WithRequestID tags the execution for slow-query log lines; the
	// serving tier propagates it from the X-SI-Request-ID header.
	WithRequestID = core.WithRequestID
	// WithLimit stops the evaluation — and its read charges — after n
	// distinct answers: the LIMIT of the serving API.
	WithLimit = core.WithLimit
)

// Subscription options for PreparedQuery.Watch and Engine.WatchContext.
var (
	// WithReexec maintains non-maintainable queries by bounded
	// re-execution per relevant commit instead of failing the watch.
	WithReexec = core.WithReexec
	// WithDeltaBuffer bounds the pending-delta queue; on overflow the
	// oldest queued deltas are folded into one net delta (Delta.Folded
	// counts the absorbed commits), so a lagging consumer sees coarser
	// deltas instead of a failed handle.
	WithDeltaBuffer = core.WithDeltaBuffer
)

// Int builds an integer value.
func Int(v int64) Value { return relation.Int(v) }

// Str builds a string value.
func Str(s string) Value { return relation.Str(s) }

// NewVarSet builds a variable set.
func NewVarSet(names ...string) VarSet { return query.NewVarSet(names...) }

// ParseCatalog parses relation/access/fd declarations; see package
// internal/parser for the syntax.
func ParseCatalog(src string) (*Catalog, error) { return parser.ParseCatalog(src) }

// ParseQuery parses "Name(x, y) := formula".
func ParseQuery(src string) (*Query, error) { return parser.ParseQuery(src) }

// ParseCQ parses "Name(x, y) :- atom, atom, ..." (or a conjunctive := body).
func ParseCQ(src string) (*CQ, error) { return parser.ParseCQ(src) }

// NewDatabase returns an empty instance of the schema.
func NewDatabase(s *Schema) *Database { return relation.NewDatabase(s) }

// NewUpdate returns an empty update ΔD; fill it with Insert/Delete.
func NewUpdate() *Update { return relation.NewUpdate() }

// Open wraps a database with an access schema, building the indices the
// schema calls for.
func Open(data *Database, acc *AccessSchema) (*Store, error) { return store.Open(data, acc) }

// OpenSharded hash-partitions the data across n independent shards under
// the access schema. Tuples are routed by each relation's
// access-constraint key attributes (overridable with WithRoute), so key
// fetches and membership probes touch one shard, other reads
// scatter-gather in parallel, and updates to different shards apply
// concurrently. The result is a Backend: pass it to NewEngineOn.
func OpenSharded(data *Database, acc *AccessSchema, n int, opts ...ShardOption) (*ShardedStore, error) {
	return shard.Open(data, acc, n, opts...)
}

// WithRoute overrides the routing key of one relation for OpenSharded.
func WithRoute(rel string, attrs ...string) ShardOption { return shard.WithRoute(rel, attrs...) }

// NewEngine opens the data under the access schema on the single-node
// backend and returns a bounded evaluation engine.
func NewEngine(data *Database, acc *AccessSchema) (*Engine, error) {
	st, err := store.Open(data, acc)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(st), nil
}

// NewShardedEngine opens the data hash-partitioned across n shards and
// returns a bounded evaluation engine over the sharded backend.
func NewShardedEngine(data *Database, acc *AccessSchema, n int, opts ...ShardOption) (*Engine, error) {
	st, err := shard.Open(data, acc, n, opts...)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(st), nil
}

// NewEngineOn returns a bounded evaluation engine over any storage
// backend (single-node, sharded, or custom).
func NewEngineOn(b Backend) *Engine { return core.NewEngine(b) }

// NaiveAnswers evaluates a query by scans — the unbounded baseline.
func NaiveAnswers(data *Database, q *Query, fixed Bindings) (*relation.TupleSet, error) {
	return eval.Answers(eval.DBSource{DB: data}, q, fixed)
}

// Controllable reports whether q is x̄-controlled under the engine's access
// schema for x̄ = the given variables, returning the witnessing derivation.
// Failure wraps ErrNotControllable.
func Controllable(eng *Engine, q *Query, x VarSet) (*Derivation, error) {
	return eng.Controllable(q, x)
}
