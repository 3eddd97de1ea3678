package core

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// PreparedQuery is a query analyzed and compiled once, executable many
// times: the prepare-once / execute-many half of the serving API. It is
// immutable after Prepare and safe for concurrent Exec calls — each call
// gets fresh per-call stats, so traces and counters never cross between
// goroutines sharing one prepared query. Its watches share their
// maintenance plans, compiled by the first Watch per fixed-variable set.
type PreparedQuery struct {
	eng  *Engine
	q    *query.Query
	ctrl query.VarSet
	d    *Derivation
	plan *Plan

	maintMu sync.Mutex
	maint   map[string]compiledMaint // guarded by maintMu
}

// Stmt returns the underlying query statement. (The Query method is the
// cursor-opening executor, as in database/sql.)
func (p *PreparedQuery) Stmt() *query.Query { return p.q }

// Ctrl returns (a copy of) the controlling set the plan was prepared
// for; Exec needs a value for each of its variables.
func (p *PreparedQuery) Ctrl() query.VarSet { return p.ctrl.Clone() }

// Derivation returns the controllability proof backing the plan.
func (p *PreparedQuery) Derivation() *Derivation { return p.d }

// Plan returns the compiled bounded plan with its static cost bound.
func (p *PreparedQuery) Plan() *Plan { return p.plan }

// Exec runs the prepared plan under ctx with values for the controlling
// set (and optionally more of the head), skipping re-analysis entirely.
// It is a full drain of the cursor Query opens: identical answers,
// counters and witness set, materialized into one Answer.
func (p *PreparedQuery) Exec(ctx context.Context, fixed query.Bindings, opts ...ExecOption) (*Answer, error) {
	var o execOpts
	for _, f := range opts {
		f(&o)
	}
	return p.exec(ctx, fixed, o)
}

func (p *PreparedQuery) exec(ctx context.Context, fixed query.Bindings, o execOpts) (*Answer, error) {
	rows, err := p.query(ctx, fixed, o)
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// Explain renders the prepared physical plan: operator tree, per-operator
// static bounds, and the chosen access order — plus, for a view-serving
// plan, which views it reads and the commit seq each extent is fresh as
// of. The EXPLAIN of the serving API (also surfaced by Rows.Explain and
// sirun -explain).
func (p *PreparedQuery) Explain() string {
	s := fmt.Sprintf("%s controlled by %s\n%s", p.q.Name, p.ctrl, p.plan.Explain())
	if fr := p.eng.viewFreshness(p.plan.Views); fr != "" {
		s += fr + "\n"
	}
	return s
}

// Analyze executes the prepared plan once with per-operator runtime
// tracing (WithAnalyze implied) and returns the EXPLAIN ANALYZE
// rendering alongside the answer: static bound vs measured rows, reads,
// wall time and scatter branches per operator. The EXPLAIN ANALYZE of
// the serving API (surfaced by sirun -analyze).
func (p *PreparedQuery) Analyze(ctx context.Context, fixed query.Bindings, opts ...ExecOption) (string, *Answer, error) {
	var o execOpts
	for _, f := range opts {
		f(&o)
	}
	o.analyze = true
	rows, err := p.query(ctx, fixed, o)
	if err != nil {
		return "", nil, err
	}
	ans, err := rows.drain()
	if err != nil {
		return "", nil, err
	}
	s := fmt.Sprintf("%s controlled by %s\n%s", p.q.Name, p.ctrl, rows.Analyze())
	if fr := p.eng.viewFreshness(p.plan.Views); fr != "" {
		s += fr + "\n"
	}
	return s, ans, nil
}

// planKey builds the cache key (query name, controlling set, optimizer
// mode — plans compiled under different modes are distinct entries).
// The view epoch is part of every key: any plan may read a view (or be a
// cached ErrNotControllable outcome a new view could rescue), so
// CreateView/DropView/a frozen view must age the whole cache.
func (e *Engine) planKey(q *query.Query, x query.VarSet, mode OptimizerMode) string {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(mode), 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, e.viewEpoch.Load(), 10)
	b = append(b, 0)
	b = append(b, q.Name...)
	b = append(b, 0)
	b = append(b, x.Key()...)
	return string(b)
}

// PlanCacheStats are the engine plan cache's lifetime counters: cache
// observability for serving dashboards (sibm reports them as
// core.plan_cache_hit_rate and core.plan_cache_evictions).
// Hits include negative entries (cached ErrNotControllable outcomes);
// evictions count both LRU pressure and invalidations by a different
// query of the same name.
type PlanCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// PlanCacheStats reports the engine's plan-cache counters. Zero for an
// engine without a cache.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.plans.stats() }

// planCache is a small LRU of analysis outcomes, keyed by (query name,
// controlling set, optimizer mode): successful entries hold the prepared
// query, negative entries the ErrNotControllable result, so a repeated
// non-controllable request does not re-run the exponential analysis
// either. Safe for concurrent use.
type planCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element

	hits, misses, evictions atomic.Int64
}

type planEntry struct {
	key string
	q   *query.Query   // the exact query object last validated
	p   *PreparedQuery // nil for a negative entry
	err error          // non-nil for a negative entry

}

func newPlanCache(capacity int) *planCache {
	c := &planCache{}
	c.init(capacity)
	return c
}

func (c *planCache) init(capacity int) {
	c.cap = capacity
	c.ll = list.New()
	c.m = make(map[string]*list.Element)
}

func (c *planCache) resize(capacity int) {
	if c == nil { // zero-value Engine: caching stays disabled
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.init(capacity)
}

func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// get returns the cached outcome for the key, with ok = false on a miss.
// Hits are validated against q: pointer identity is the fast path; a
// different object with the same name and controlling set is compared
// with the entry's query node by node (query.Query.Equal, which renders
// nothing), and a mismatch evicts the stale entry. A nil cache (an Engine
// built as a struct literal rather than via NewEngine) always misses.
func (c *planCache) get(key string, q *query.Query) (p *PreparedQuery, err error, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[key]
	if !found {
		c.misses.Add(1)
		return nil, nil, false
	}
	en := el.Value.(*planEntry)
	if en.q != q {
		if !en.q.Equal(q) {
			c.ll.Remove(el)
			delete(c.m, key)
			c.evictions.Add(1)
			c.misses.Add(1)
			return nil, nil, false
		}
		en.q = q // structurally equal: adopt the pointer for future fast hits
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return en.p, en.err, true
}

// stats snapshots the cache counters (nil-safe).
func (c *planCache) stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// put caches an analysis outcome: a prepared query, or (p == nil) the
// error the analysis ended in.
func (c *planCache) put(key string, q *query.Query, p *PreparedQuery, err error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	en := &planEntry{key: key, q: q, p: p, err: err}
	if el, ok := c.m[key]; ok {
		el.Value = en
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(en)
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}
