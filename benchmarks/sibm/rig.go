package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// viewSet says which of the repo's two showcase views a rig materializes.
// CreateView computes a view's initial extent with the reference
// evaluator, which for VNYC's join takes time quadratic in the data (11 s
// at |D| ≈ 150k, 3 min at ≈ 600k on the calibration box): only write_live,
// whose subject is view maintenance, pays for it, and nothing creates it
// at the large size.
type viewSet int

const (
	viewsNone   viewSet = iota
	viewsRescue         // VFol: makes Q6 answerable (Thm 6.1)
	viewsBoth           // VFol and VNYC
)

// rigOpts says what one engine instance must carry.
type rigOpts struct {
	persons int
	seed    int64
	views   viewSet // which materialized views to create
	commits int     // length of the mixed commit stream to generate
	tr      *tracer // non-nil: the engine runs on a tracedBackend
}

// rig is one generated data set opened on the single-node store with an
// engine on top, plus the commit stream generated against its initial
// state. Everything in it derives from (persons, seed).
type rig struct {
	cfg    workload.Config
	st     *store.DB
	eng    *core.Engine
	oracle *oracle // over the initial data: stale after the first commit
	hot    []int64 // ids the watchers sit on and half the writes target
	stream []*relation.Update
	next   int // first commit of stream not yet replayed
	// engineHeap is what the data, the store's indexes, the engine and its
	// views hold on the heap: HeapAlloc after a forced GC once they are
	// built, less the same before. The harness's own structures (oracle,
	// commit stream) are built afterwards and are not in it.
	heapBefore, engineHeap int64
}

func buildRig(o rigOpts) (*rig, error) {
	cfg := workload.DefaultConfig()
	cfg.Persons = o.persons
	cfg.Seed = o.seed
	r := &rig{cfg: cfg, heapBefore: int64(heapAfterGC())}
	db, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if r.st, err = store.Open(db, workload.Access(cfg)); err != nil {
		return nil, err
	}
	var b store.Backend = r.st
	if o.tr != nil {
		b = tracedBackend{DB: r.st, tr: o.tr}
	}
	r.eng = core.NewEngine(b)
	if o.views >= viewsRescue {
		vfol, err := parser.ParseCQ(backendtest.VFolSrc)
		if err != nil {
			return nil, err
		}
		// friend gives no bound on in-degree; the entry that makes the Q6
		// rescue plan possible is the caller's (sibench -views uses the same).
		if _, err := r.eng.CreateView(vfol, access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
			return nil, err
		}
	}
	if o.views >= viewsBoth {
		vnyc, err := parser.ParseCQ(backendtest.VNYCSrc)
		if err != nil {
			return nil, err
		}
		if _, err := r.eng.CreateView(vnyc); err != nil {
			return nil, err
		}
	}
	r.engineHeap = int64(heapAfterGC()) - r.heapBefore

	// The harness's side, all read off the initial state: nothing has been
	// committed yet, and MixedCommits works on its own clone.
	r.oracle = newOracle(db)
	rng := rand.New(rand.NewSource(o.seed ^ 0x5157))
	for _, i := range rng.Perm(cfg.Persons)[:min(numWatchers, cfg.Persons)] {
		r.hot = append(r.hot, int64(i))
	}
	if o.commits > 0 {
		r.stream = workload.MixedCommits(db, cfg, o.commits, r.hot, o.seed+1)
	}
	return r, nil
}

// prepareAll prepares the queries m uses.
func (r *rig) prepareAll(m mix) ([numQueries]*core.PreparedQuery, error) {
	var preps [numQueries]*core.PreparedQuery
	for q, w := range m {
		if w == 0 {
			continue
		}
		parsed, err := parseServing(queryPack[q].src)
		if err != nil {
			return preps, err
		}
		if preps[q], err = r.eng.Prepare(parsed, query.NewVarSet(queryPack[q].ctrl...)); err != nil {
			return preps, fmt.Errorf("prepare %s: %w", queryPack[q].name, err)
		}
	}
	return preps, nil
}

// takeCommits hands out the next n commits of the stream. Each commit is
// valid only on the state its predecessors produced, so every phase that
// writes replays a consecutive slice.
func (r *rig) takeCommits(n int) ([]*relation.Update, error) {
	if r.next+n > len(r.stream) {
		return nil, fmt.Errorf("sibm: commit stream exhausted: want %d more, %d of %d used", n, r.next, len(r.stream))
	}
	s := r.stream[r.next : r.next+n]
	r.next += n
	return s, nil
}

// received is one delta as a watcher saw it.
type received struct {
	seq int64
	at  time.Time
}

// watchRig is the set of live Q2 subscriptions of write_live (and of the
// other workloads' mixed phase): numWatchers handles on the hot ids, each
// drained by a passive goroutine that notes when every delta arrived.
type watchRig struct {
	prep  *core.PreparedQuery
	lives []*core.Live
	fixed []query.Bindings
	wg    sync.WaitGroup

	mu        sync.Mutex
	got       []received // guarded by mu
	deltas    int        // guarded by mu
	folded    int        // guarded by mu: commits absorbed into coarser deltas
	reads     int64      // guarded by mu: maintenance reads over all deltas
	bounds    int64      // guarded by mu: their static bounds
	overBound int        // guarded by mu: deltas with Cost.TupleReads > Bound
	errs      []error    // guarded by mu
}

func attachWatchers(ctx context.Context, r *rig) (*watchRig, error) {
	q, err := parseServing(queryPack[q2].src)
	if err != nil {
		return nil, err
	}
	prep, err := r.eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		return nil, err
	}
	w := &watchRig{prep: prep}
	for _, p := range r.hot {
		fixed := query.Bindings{"p": relation.Int(p)}
		l, err := prep.Watch(ctx, fixed, core.WithDeltaBuffer(deltaBuffer))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("watch p=%d: %w", p, err)
		}
		w.lives = append(w.lives, l)
		w.fixed = append(w.fixed, fixed)
		w.wg.Add(1)
		go w.drain(l)
	}
	return w, nil
}

// drain consumes one subscription until it is closed.
func (w *watchRig) drain(l *core.Live) {
	defer w.wg.Done()
	for d, err := range l.Deltas() {
		now := time.Now()
		w.mu.Lock()
		if err != nil {
			w.errs = append(w.errs, err)
			w.mu.Unlock()
			return
		}
		w.got = append(w.got, received{seq: d.Seq, at: now})
		w.deltas++
		w.folded += d.Folded
		w.reads += d.Cost.TupleReads
		w.bounds += d.Bound
		if d.Cost.TupleReads > d.Bound {
			w.overBound++
		}
		w.mu.Unlock()
	}
}

// close detaches every subscription and waits for the drainers to finish
// the deltas already queued.
func (w *watchRig) close() {
	for _, l := range w.lives {
		l.Close()
	}
	w.wg.Wait()
}

// verify checks, on a quiescent engine, that every maintained snapshot
// equals a fresh execution and that no delta overran its bound. It returns
// the number of checks made and the failures among them.
func (w *watchRig) verify(ctx context.Context) (checked int, failures []error) {
	for i, l := range w.lives {
		checked++
		ans, err := w.prep.Exec(ctx, w.fixed[i], core.WithoutTrace())
		if err != nil {
			failures = append(failures, err)
			continue
		}
		if err := l.Err(); err != nil {
			failures = append(failures, fmt.Errorf("watcher %v failed: %w", w.fixed[i], err))
		} else if !l.Snapshot().Equal(ans.Tuples) {
			failures = append(failures, fmt.Errorf("watcher %v: snapshot diverged from a fresh Exec", w.fixed[i]))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	checked++
	if w.overBound > 0 {
		failures = append(failures, fmt.Errorf("%d deltas charged more reads than their bound", w.overBound))
	}
	failures = append(failures, w.errs...)
	return checked, failures
}

// lags is, per commit, how long after the Commit call began the first
// watcher had that commit's delta in hand (commits are identified by the
// engine's sequence number). The first, not every one: a commit of the
// mixed stream notifies all the subscriptions, and how long the last of
// sixteen drainer goroutines waits for one of two busy Ps is the Go
// scheduler's number, not the engine's.
func (w *watchRig) lags(startOf map[int64]time.Time) []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	first := make(map[int64]time.Time, len(startOf))
	for _, g := range w.got {
		if at, ok := first[g.seq]; !ok || g.at.Before(at) {
			first[g.seq] = g.at
		}
	}
	out := make([]time.Duration, 0, len(first))
	for seq, at := range first {
		if s, ok := startOf[seq]; ok {
			out = append(out, at.Sub(s))
		}
	}
	return out
}
