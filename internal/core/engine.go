package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Engine ties the analyzer and executor to an instrumented store: the
// public face of scale-independent query answering.
//
// The serving lifecycle is modeled on database/sql: Prepare runs the
// (worst-case exponential) controllability analysis once and compiles a
// bounded plan; PreparedQuery.Exec then executes it many times with fresh
// bindings, each call getting its own counters and witness set. An
// engine-level LRU plan cache keyed by (query name, controlling set) makes
// the one-shot Answer/AnswerContext path benefit transparently. A single
// Engine is safe for concurrent use.
//
// Build engines with NewEngine. A zero-value/struct-literal Engine still
// answers queries, but with plan caching permanently disabled (every call
// re-runs the analysis).
type Engine struct {
	// DB is the storage backend queries execute against: the single-node
	// store.DB or any other store.Backend (e.g. the hash-sharded
	// shard.Store).
	DB store.Backend
	An *Analyzer

	plans *planCache
	mode  atomic.Int32 // OptimizerMode; atomic so SetOptimizer is safe mid-serving

	// Commit pipeline state (commit.go): commitMu serializes the
	// validate→apply→notify pipeline and totally orders commit sequence
	// numbers, and guards the scratch the pipeline reuses. watchReg is the
	// registered Live subscriptions, grouped by plan set: an immutable
	// snapshot that watchMu serializes the replacing of.
	commitMu  sync.Mutex
	commitSeq atomic.Int64
	scratch   commitScratch // guarded by commitMu
	watchMu   sync.Mutex
	watchReg  atomic.Pointer[watchRegistry]
	watchID   int64 // guarded by watchMu

	// Committed update volume per relation (commit.go), reported as
	// EngineStats.CommittedVolume.
	volumeMu sync.Mutex
	volume   map[string]int64 // guarded by volumeMu

	// Materialized-view registry (views.go): viewMu guards the map, the
	// list of active views in registration order (replaced, never
	// mutated, so a reader keeps what it read) and each view's seq/broken
	// fields; maintainers themselves run only under commitMu. viewEpoch
	// is part of every plan-cache key, so CreateView, DropView and a
	// maintenance failure atomically invalidate all cached plans (and
	// cached ErrNotControllable outcomes).
	viewMu    sync.RWMutex
	viewReg   map[string]*matView // guarded by viewMu
	viewList  []*matView          // guarded by viewMu
	viewID    int64               // guarded by viewMu
	viewEpoch atomic.Int64

	// Telemetry sinks (observe.go): a snapshot of observer, structured
	// logger and slow thresholds, swapped atomically so serving goroutines
	// read it without locking. Nil means telemetry is off and the query
	// path skips even the clock reads.
	obs atomic.Pointer[engineObs]
}

// OptimizerMode selects how Prepare turns a derivation into a physical
// plan.
type OptimizerMode int

const (
	// OptimizerOff compiles the analysis-emitted derivation 1:1: conjunct
	// order and access entries exactly as analysis chose them. The
	// baseline the backendtest planequiv lane holds cost order against.
	OptimizerOff OptimizerMode = iota
	// OptimizerOn (the default) reorders conjunct operators into the
	// cheapest order under the access schema's N bounds (exact branch and
	// bound, plan.Optimizer), re-selects access entries as variables
	// become bound, and upgrades fully bound atoms to membership probes —
	// so Q2/Q3 run the N=1 person filter before the visit expansion.
	// Deterministic across backends.
	OptimizerOn
)

// String renders the mode for EXPLAIN output.
func (m OptimizerMode) String() string {
	if m == OptimizerOn {
		return "on"
	}
	return "off"
}

// DefaultPlanCacheSize is the number of (query name, controlling set)
// plans an engine retains by default.
const DefaultPlanCacheSize = 128

// NewEngine builds an engine over a storage backend, analyzing under its
// access schema. The cost-based plan optimizer is on (OptimizerOn).
func NewEngine(db store.Backend) *Engine {
	e := &Engine{
		DB:    db,
		An:    NewAnalyzer(db.Access()),
		plans: newPlanCache(DefaultPlanCacheSize),
	}
	e.mode.Store(int32(OptimizerOn))
	return e
}

// SetOptimizer selects the plan optimizer mode for subsequent Prepare
// calls. Safe to call while other goroutines are serving: the mode is
// read atomically, and cached plans are keyed per mode, so in-flight
// calls use whichever mode they observed consistently.
func (e *Engine) SetOptimizer(m OptimizerMode) { e.mode.Store(int32(m)) }

// Optimizer reports the engine's current optimizer mode.
func (e *Engine) Optimizer() OptimizerMode { return OptimizerMode(e.mode.Load()) }

// SetPlanCacheSize resizes the plan cache; n <= 0 disables caching (every
// Answer re-runs the analysis — useful for benchmarking the analysis
// cost). Existing cached plans are dropped.
func (e *Engine) SetPlanCacheSize(n int) { e.plans.resize(n) }

// PlanCacheLen reports how many prepared plans the engine holds.
func (e *Engine) PlanCacheLen() int { return e.plans.len() }

// ExecOption configures one execution (PreparedQuery.Exec or
// Engine.AnswerContext).
type ExecOption func(*execOpts)

type execOpts struct {
	maxReads  int64
	noTrace   bool
	limit     int
	analyze   bool
	requestID string
}

// WithLimit stops the evaluation after n distinct answers have been
// produced — and, because execution is a lazy cursor pipeline, stops
// charging TupleReads and the WithMaxReads budget at that point too (the
// LIMIT of the serving API). On the cursor path (Query/QueryContext) Next
// returns false after the n-th answer; on the drain path (Exec/
// AnswerContext) the Answer holds the first n answers found. n <= 0 means
// unlimited.
func WithLimit(n int) ExecOption { return func(o *execOpts) { o.limit = n } }

// WithMaxReads enforces a runtime budget of n tuple reads on the call:
// the read that crosses it fails with ErrBudgetExceeded. This is the
// PIQL-style runtime check backing the static bound; a plan executed
// within its static Plan.Bound.Reads never trips it.
func WithMaxReads(n int64) ExecOption { return func(o *execOpts) { o.maxReads = n } }

// WithoutTrace skips witness-set (D_Q) bookkeeping for the call: the
// returned Answer has a nil DQ. Use on hot paths that only need answers.
func WithoutTrace() ExecOption { return func(o *execOpts) { o.noTrace = true } }

// WithAnalyze enables per-operator runtime tracing for the call: each
// plan operator accumulates rows produced, tuple reads charged, wall
// time and scatter branches in its slot of the call's ExecStats.Ops,
// rendered by Rows.Analyze (EXPLAIN ANALYZE). Tracing costs one
// per-operator array per call plus a timestamp per pulled row; without
// this option the trace machinery allocates nothing.
func WithAnalyze() ExecOption { return func(o *execOpts) { o.analyze = true } }

// WithRequestID tags the call with an end-to-end request identifier: it
// rides on the per-call ExecStats (surviving shard forks) and appears in
// slow-query log lines and observer events, tying a wire request to the
// store work it caused.
func WithRequestID(id string) ExecOption { return func(o *execOpts) { o.requestID = id } }

// Answer is the result of one bounded evaluation.
type Answer struct {
	// Tuples are the answers over RemainingHead (head variables not fixed
	// by the caller, in head order). For Boolean queries a single empty
	// tuple means true.
	Tuples        *relation.TupleSet
	RemainingHead []string
	// Plan is the bounded plan that was executed; never nil.
	Plan *Plan
	// Cost is the work measured for this call alone.
	Cost store.Counters
	// DQ is the witness set: the distinct base tuples this call touched.
	// Q(ā, D) = Q(ā, DQ) and |DQ| ≤ Plan.Bound.Reads. Nil under
	// WithoutTrace. Under WithLimit(n) the evaluation stops early, so DQ
	// witnesses only the answers actually produced: evaluating Q over DQ
	// yields (at least) those n answers, not the full Q(ā, D).
	DQ *store.Trace
}

// Controllable checks whether q is x̄-controlled for x̄ = the variables of
// fixed, returning the witnessing derivation. Failure wraps
// ErrNotControllable.
func (e *Engine) Controllable(q *query.Query, x query.VarSet) (*Derivation, error) {
	res, err := e.An.AnalyzeQuery(q)
	if err != nil {
		return nil, err
	}
	d := res.Controls(x)
	if d == nil {
		if res.Truncated {
			return nil, fmt.Errorf("core: %s is not derivably %s-controlled (analysis truncated; a controlling set may have been missed): %w", q.Name, x, ErrNotControllable)
		}
		return nil, fmt.Errorf("core: %s is not %s-controlled: %w", q.Name, x, ErrNotControllable)
	}
	return d, nil
}

// Prepare runs the controllability analysis for x̄-controlled evaluation of
// q once and compiles the bounded plan. The result may be executed
// concurrently and repeatedly with different bindings for x̄. Prepared
// plans are cached on the engine keyed by (q.Name, x̄), so re-preparing —
// or answering via Answer/AnswerContext — skips re-analysis.
//
// Preparation is view-aware. When materialized views are registered
// (CreateView), Prepare additionally searches view rewritings of q:
//
//   - a controllable base query switches to a rewriting plan only when
//     its static read bound is strictly smaller (ties keep the base
//     plan). The base plan's bound is the incumbent every rewriting is
//     priced against before it is built: a rewriting whose lower bound
//     (plan.PriceBelow) cannot get below it is never expanded, analysed
//     or compiled, so the bound a caller gets back costs no work on
//     rewritings that cannot win;
//   - a query that is NOT controllable over the base relations is
//     rescued through a rewriting whose body is x̄-controlled under the
//     view-extended access schema (Theorem 6.1), instead of failing with
//     ErrNotControllable.
//
// Either way the resulting Plan names the views it reads (Plan.Views) and
// marks the rescue case (Plan.Rescued); cache keys embed the view epoch,
// so view DDL transparently re-plans.
//
// q must not be modified after Prepare. The plan cache keeps q: a later
// Prepare with the same pointer hits without looking at the query, and
// one with a different query object of the same name is compared with q,
// node by node, as it is then.
func (e *Engine) Prepare(q *query.Query, x query.VarSet) (*PreparedQuery, error) {
	mode := e.Optimizer() // one atomic read: key and compiled plan agree
	key := e.planKey(q, x, mode)
	if p, err, ok := e.plans.get(key, q); ok {
		return p, err
	}
	d, err := e.Controllable(q, x)
	if err != nil {
		if errors.Is(err, ErrNotControllable) {
			if p, ok := e.viewRewritePlan(q, x, mode, nil); ok {
				e.plans.put(key, q, p, nil)
				return p, nil
			}
			// Cache the negative outcome too: a client retrying a
			// non-controllable query must not re-run the analysis every call.
			// The view epoch in the key un-caches it when a view appears.
			e.plans.put(key, q, nil, err)
		}
		return nil, err
	}
	p := &PreparedQuery{eng: e, q: q, ctrl: x.Clone(), d: d, plan: compilePlan(d, e.DB, mode, nil)}
	if vp, ok := e.viewRewritePlan(q, x, mode, p.plan); ok {
		p = vp
	}
	e.plans.put(key, q, p, nil)
	return p, nil
}

// Answer evaluates Q(ā, D) scale-independently: fixed supplies ā for a
// controlling set x̄ of the query body. It fails (wrapping
// ErrNotControllable) if the query is not x̄-controlled. The returned
// Answer carries the measured cost and the witness set D_Q.
func (e *Engine) Answer(q *query.Query, fixed query.Bindings) (*Answer, error) {
	return e.AnswerContext(context.Background(), q, fixed)
}

// AnswerContext is Answer with a cancellation context and per-call
// options. It prepares (or reuses a cached plan for) the controlling set
// fixed.Vars() and executes it once.
func (e *Engine) AnswerContext(ctx context.Context, q *query.Query, fixed query.Bindings, opts ...ExecOption) (*Answer, error) {
	var o execOpts
	for _, f := range opts {
		f(&o)
	}
	p, err := e.Prepare(q, fixed.Vars())
	if err != nil {
		return nil, err
	}
	return p.exec(ctx, fixed, o)
}

// QCntl decides the problem of Theorem 4.4: is there x̄ with |x̄| ≤ K such
// that Q is x̄-controlled? It returns the smallest witnessing set.
func QCntl(an *Analyzer, q *query.Query, k int) (query.VarSet, bool, error) {
	res, err := an.AnalyzeQuery(q)
	if err != nil {
		return nil, false, err
	}
	fam := res.Family()
	if len(fam) == 0 {
		return nil, false, nil
	}
	best := fam[0]
	for _, s := range fam[1:] {
		if s.Len() < best.Len() {
			best = s
		}
	}
	if best.Len() <= k {
		return best, true, nil
	}
	return nil, false, nil
}

// QCntlMin decides: is Q minimally controlled by some x̄ containing the
// variable v (QCntl_min of Theorem 4.4)? It returns a witnessing minimal
// set.
func QCntlMin(an *Analyzer, q *query.Query, v string) (query.VarSet, bool, error) {
	res, err := an.AnalyzeQuery(q)
	if err != nil {
		return nil, false, err
	}
	for _, s := range res.Family() {
		if s.Contains(v) {
			return s, true, nil
		}
	}
	return nil, false, nil
}
