package core

import (
	"context"
	"fmt"
	"iter"
	"strconv"
	"sync"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Delta is one commit's effect on a live query's answer set: the answers
// that appeared (Ins, disjoint from the previous snapshot) and disappeared
// (Del, contained in it), both over the remaining head, in Seq order.
type Delta struct {
	// Seq is the commit sequence number this delta reflects; folding every
	// delta ≤ Seq into the initial snapshot reproduces Snapshot at Seq.
	Seq int64
	// Ins and Del are the appeared and disappeared answers.
	Ins, Del []relation.Tuple
	// Cost is the maintenance work this commit charged for this
	// subscription — every tuple read counted, Cost.TupleReads ≤ Bound.
	Cost store.Counters
	// Bound is the N-derived static bound maintenance ran under (the
	// enforced MaxReads): per-delta-tuple remainder plan bounds, or the
	// prepared plan's full bound M when Reexec.
	Bound int64
	// Reexec reports whether this commit was maintained by bounded
	// re-execution (pure re-exec mode, or the deletion fallback of a
	// maintainer without re-derivation support) rather than delta plans.
	Reexec bool
	// Folded counts the additional commits coalesced into this delta by a
	// bounded buffer (WithDeltaBuffer) under consumer lag: 0 for a single
	// commit's delta; k > 0 means this delta carries the net effect of k+1
	// consecutive commits ending at Seq (matching Ins/Del pairs per tuple
	// cancel). Cost and Bound accumulate across the folded commits, so
	// Cost.TupleReads ≤ Bound still holds.
	Folded int
}

// WatchOption configures one Watch subscription.
type WatchOption func(*watchOpts)

type watchOpts struct {
	reexec bool
	buffer int
}

// WithReexec lets Watch serve queries that are not incrementally
// maintainable (body not a conjunction of atoms, or some maintenance
// remainder not controllable) by bounded re-execution of the prepared
// plan on every relevant commit instead of failing with
// ErrWatchNotMaintainable. Reads per commit are then bounded by the
// plan's static bound M rather than the (usually much smaller) delta
// maintenance bound.
func WithReexec() WatchOption { return func(o *watchOpts) { o.reexec = true } }

// WithDeltaBuffer bounds the subscription's pending-delta queue at n: a
// consumer that falls more than n deltas behind the commit stream has its
// oldest pending deltas coalesced into one net delta (matching Ins/Del
// pairs per tuple folded away, Delta.Folded counting the absorbed
// commits) instead of growing the buffer without bound — a lagging
// dashboard degrades to coarser deltas rather than failing with
// ErrSlowConsumer. Replaying the folded stream over the initial snapshot
// still reproduces the maintained answer set exactly. n <= 0 (the
// default) means unbounded.
func WithDeltaBuffer(n int) WatchOption { return func(o *watchOpts) { o.buffer = n } }

// Live is a handle on a live query: a maintained answer set plus the
// stream of per-commit deltas, produced by PreparedQuery.Watch or
// Engine.WatchContext. The engine's Commit pipeline keeps it fresh — the
// initial answer set is computed through the prepared physical plan, and
// every subsequent commit touching the query's relations moves the
// snapshot by bounded maintenance work instead of re-execution.
//
// A Live is safe for concurrent use: Snapshot, Deltas, Err and Close may
// race each other and the engine's commits — internal locking serializes
// maintenance against readers (the concurrency contract the single-writer
// Maintainer does not give). Deltas is intended for a single consumer;
// concurrent consumers are safe but split the stream between them.
//
// Close releases the subscription: the engine stops maintaining the
// handle, already-queued deltas remain consumable, and Snapshot keeps
// answering from the last maintained state. A canceled watch context
// fails the handle with ErrCanceled instead.
type Live struct {
	eng  *Engine
	m    *Maintainer
	ctx  context.Context
	stop func() bool // cancels the context.AfterFunc watcher
	head []string

	id     int64
	bufCap int

	mu   sync.Mutex
	cond sync.Cond
	// The pending deltas are queue[next:]. Consumed slots are cleared and
	// the array reused, so a consumer keeping up allocates no queue.
	queue  []Delta        // guarded by mu
	next   int            // guarded by mu
	err    error          // guarded by mu
	closed bool           // guarded by mu
	seq    int64          // guarded by mu
	cost   store.Counters // guarded by mu
}

// Watch subscribes to the prepared query's answers for the given
// controlling values: the returned Live holds the current answer set
// (computed through the prepared plan, bounded) and is incrementally
// maintained by every subsequent Engine.Commit. Registration is atomic
// with respect to commits: the initial snapshot reflects exactly the
// commits sequenced before the watch.
//
// The first watch of p for a set of fixed variables compiles the
// maintenance plans; later watches with the same variables share them, so
// a watch costs the initial execution and its registration. The engine
// registers watchers in groups that share a plan set: a commit decides
// once per group whether it touches the query, how it is maintained and
// under what read bound, and each member only unifies the delta with its
// fixed values, probes its guards, runs what they let through and takes
// its delta. Closing a handle, or its failing, takes it out of its group.
//
// The query must be incrementally maintainable (each per-occurrence
// maintenance remainder controllable under the access schema) or the
// watch fails with ErrWatchNotMaintainable — unless WithReexec, which
// falls back to bounded re-execution per commit. A maintainable query
// whose deletion re-verification condition fails (SupportsDeletions
// false) is still watched: insert-only commits use delta maintenance and
// deletion commits resync by one bounded re-execution.
//
// ctx scopes the subscription: when it is canceled the handle fails with
// ErrCanceled and detaches from the engine.
func (p *PreparedQuery) Watch(ctx context.Context, fixed query.Bindings, opts ...WatchOption) (*Live, error) {
	var o watchOpts
	for _, f := range opts {
		f(&o)
	}
	if missing := p.d.Ctrl.Minus(fixed.Vars()); !missing.IsEmpty() {
		return nil, fmt.Errorf("core: %w: watch needs values for controlling variables %s", ErrInvalidQuery, missing)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := newLiveMaintainer(p, fixed, o.reexec)
	if err != nil {
		return nil, err
	}
	l := &Live{
		eng:    p.eng,
		m:      m,
		ctx:    ctx,
		head:   remainingHead(p.q.Head, fixed),
		bufCap: o.buffer,
	}
	l.cond.L = &l.mu
	e := p.eng
	// Initial snapshot and registration under the commit lock: every
	// commit is either fully reflected in the snapshot or will be
	// delivered as a delta — none is lost or double-counted.
	e.commitMu.Lock()
	ans, err := p.exec(ctx, fixed, execOpts{noTrace: true})
	if err != nil {
		e.commitMu.Unlock()
		return nil, err
	}
	m.seed(ans.Tuples)
	l.mu.Lock()
	l.seq = e.commitSeq.Load()
	l.mu.Unlock()
	e.register(l)
	e.commitMu.Unlock()
	l.stop = context.AfterFunc(ctx, func() {
		l.fail(fmt.Errorf("core: watch context done: %w: %w", ErrCanceled, context.Cause(ctx)))
	})
	return l, nil
}

// newLiveMaintainer builds the maintainer of a watch: the prepared
// query's shared delta plans for this fixed-variable set when the query
// is a maintainable conjunction, with the prepared plan attached as the
// deletion fallback; pure re-execution under WithReexec otherwise.
func newLiveMaintainer(p *PreparedQuery, fixed query.Bindings, allowReexec bool) (*Maintainer, error) {
	cq, ok := query.AsCQ(p.q)
	if !ok {
		if !allowReexec {
			return nil, fmt.Errorf("core: %s: body is not a conjunction of atoms (watch with WithReexec to maintain by re-execution): %w",
				p.q.Name, ErrWatchNotMaintainable)
		}
		return newReexecMaintainer(p, fixed), nil
	}
	ps, err := p.maintPlans(cq, fixed.Vars())
	if err != nil {
		if allowReexec {
			return newReexecMaintainer(p, fixed), nil
		}
		return nil, err
	}
	m := newMaintainer(p.eng, ps, fixed)
	m.reexec = p // deletion fallback per SupportsDeletions
	return m, nil
}

// maintPlans returns the maintenance plan set of p's body cq for the
// fixed variables x under the engine's optimizer mode, compiling it on
// the first watch and sharing it with every later one: watchers of one
// prepared query differ only in their fixed values. A failure is
// remembered too. A view registered or dropped since (the view epoch)
// makes the next watch compile afresh.
func (p *PreparedQuery) maintPlans(cq *query.CQ, x query.VarSet) (*maintPlans, error) {
	key := strconv.Itoa(int(p.eng.Optimizer())) + "\x00" + x.Key()
	epoch := p.eng.viewEpoch.Load()
	p.maintMu.Lock()
	defer p.maintMu.Unlock()
	if c, ok := p.maint[key]; ok && c.epoch == epoch {
		return c.ps, c.err
	}
	ps, err := buildMaintPlans(p.eng, cq, x)
	if p.maint == nil {
		p.maint = make(map[string]compiledMaint)
	}
	p.maint[key] = compiledMaint{ps: ps, err: err, epoch: epoch}
	return ps, err
}

// compiledMaint is a PreparedQuery's cached maintenance plan set, or why
// there is none, as of a view epoch.
type compiledMaint struct {
	ps    *maintPlans
	err   error
	epoch int64
}

// WatchContext prepares q for the controlling set fixed.Vars() (or reuses
// the cached plan) and subscribes: Engine-level Watch.
func (e *Engine) WatchContext(ctx context.Context, q *query.Query, fixed query.Bindings, opts ...WatchOption) (*Live, error) {
	p, err := e.Prepare(q, fixed.Vars())
	if err != nil {
		return nil, err
	}
	return p.Watch(ctx, fixed, opts...)
}

// Snapshot returns the current maintained answer set over Head(), as of
// the last commit folded in (Seq). The copy is the caller's to keep: it
// stays stable while commits move the live set on.
func (l *Live) Snapshot() *relation.TupleSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Answers()
}

// Head returns the answer attributes: head variables not fixed by the
// watch bindings, in head order — the same shape Exec and Query produce.
func (l *Live) Head() []string { return append([]string(nil), l.head...) }

// Seq returns the sequence number of the last commit folded into the
// snapshot.
func (l *Live) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Cost returns the cumulative maintenance work charged to this
// subscription since the watch began (the initial snapshot execution not
// included).
func (l *Live) Cost() store.Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cost
}

// SupportsDeletions reports whether deletion commits are maintained by
// per-tuple re-verification (true) or by the bounded re-execution
// fallback (false).
func (l *Live) SupportsDeletions() bool { return l.m.SupportsDeletions() }

// Maintained reports whether the subscription runs on compiled delta
// maintenance plans; false means every relevant commit resyncs by
// bounded re-execution (the WithReexec mode).
func (l *Live) Maintained() bool { return l.m.Maintained() }

// Err returns the error that failed the subscription, if any: typed per
// the serving taxonomy (ErrCanceled for a done watch context,
// ErrBudgetExceeded if maintenance ever crossed its bound). Nil while
// healthy and after a plain Close. A bounded delta buffer no longer fails
// the handle — overflow coalesces the queue (WithDeltaBuffer) instead of
// raising ErrSlowConsumer.
func (l *Live) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close detaches the subscription from the engine. Idempotent and always
// safe: queued deltas remain consumable (Deltas drains, then stops),
// Snapshot keeps serving the final maintained state, and no further
// maintenance work is charged.
func (l *Live) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.stop != nil {
		l.stop()
	}
	l.eng.unregister(l)
	return nil
}

// Deltas streams the per-commit answer deltas in commit order, blocking
// between commits:
//
//	for d, err := range live.Deltas() {
//	    if err != nil { ... } // terminal: canceled, over budget, slow consumer
//	    apply(d.Ins, d.Del)
//	}
//
// The stream ends after a Close (remaining queued deltas are delivered
// first) or yields one terminal error and stops. Breaking out of the loop
// leaves the subscription live — resume by ranging again.
func (l *Live) Deltas() iter.Seq2[Delta, error] {
	return func(yield func(Delta, error) bool) {
		for {
			l.mu.Lock()
			for l.next == len(l.queue) && l.err == nil && !l.closed {
				l.cond.Wait()
			}
			if l.next < len(l.queue) {
				d := l.popLocked()
				l.mu.Unlock()
				if !yield(d, nil) {
					return
				}
				continue
			}
			err := l.err
			l.mu.Unlock()
			if err != nil {
				yield(Delta{}, err)
			}
			return
		}
	}
}

// deliverLocked queues a delta (caller holds l.mu). When a bounded buffer
// is full, the oldest two pending entries are folded into one net delta
// (the incoming delta itself when the cap is 1), so a lagging consumer
// sees coarser net deltas instead of an unbounded queue or a failed
// handle; the newest entries keep per-commit granularity.
//
//sivet:holds mu
func (l *Live) deliverLocked(d Delta) {
	if pending := len(l.queue) - l.next; l.bufCap > 0 && pending >= l.bufCap {
		if pending >= 2 {
			l.queue[l.next+1] = foldDeltas(l.queue[l.next], l.queue[l.next+1])
			l.popLocked()
		} else {
			d = foldDeltas(l.popLocked(), d)
		}
	}
	if len(l.queue) == cap(l.queue) && l.next > 0 {
		// Slide the pending deltas down instead of growing the array.
		n := copy(l.queue, l.queue[l.next:])
		clear(l.queue[n:])
		l.queue, l.next = l.queue[:n], 0
	}
	l.queue = append(l.queue, d)
	l.cond.Broadcast()
}

// popLocked dequeues the oldest pending delta (caller holds l.mu; one is
// pending).
//
//sivet:holds mu
func (l *Live) popLocked() Delta {
	d := l.queue[l.next]
	l.queue[l.next] = Delta{}
	if l.next++; l.next == len(l.queue) {
		l.queue, l.next = l.queue[:0], 0
	}
	return d
}

// foldDeltas merges two consecutive deltas into their net effect: a tuple
// inserted by a and deleted by b (or vice versa) cancels; Cost and Bound
// accumulate, Seq is the later commit's, and Folded counts the commits
// absorbed. Folding commutes with replay — applying the folded delta to a
// snapshot equals applying a then b.
func foldDeltas(a, b Delta) Delta {
	out := Delta{
		Seq:    b.Seq,
		Cost:   a.Cost,
		Bound:  plan.SatAdd(a.Bound, b.Bound),
		Reexec: a.Reexec || b.Reexec,
		Folded: a.Folded + b.Folded + 1,
	}
	out.Cost.Add(b.Cost)
	// Net change per tuple, in first-appearance order. Answer sets hold no
	// duplicates and deltas are snapshot-consistent (Ins disjoint from the
	// pre-state, Del contained in it), so the net count stays in {-1,0,+1}.
	type entry struct {
		t   relation.Tuple
		net int
	}
	var order []string
	net := make(map[string]*entry, len(a.Ins)+len(a.Del)+len(b.Ins)+len(b.Del))
	fold := func(ts []relation.Tuple, sign int) {
		for _, t := range ts {
			k := t.Key()
			e, ok := net[k]
			if !ok {
				e = &entry{t: t}
				net[k] = e
				order = append(order, k)
			}
			e.net += sign
		}
	}
	fold(a.Ins, +1)
	fold(a.Del, -1)
	fold(b.Ins, +1)
	fold(b.Del, -1)
	for _, k := range order {
		switch e := net[k]; {
		case e.net > 0:
			out.Ins = append(out.Ins, e.t)
		case e.net < 0:
			out.Del = append(out.Del, e.t)
		}
	}
	return out
}

// failLocked marks the subscription failed (first error wins) and wakes
// consumers. The caller has taken the handle off the registry first
// (fail).
//
//sivet:holds mu
func (l *Live) failLocked(err error) {
	if l.err == nil && !l.closed {
		l.err = err
	}
	l.cond.Broadcast()
}

// fail unregisters the handle and marks it failed: by the time a
// consumer sees the error the handle is out of the registry, and a commit
// that read the registry before skips it at delivery.
func (l *Live) fail(err error) {
	l.eng.unregister(l)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failLocked(err)
}
