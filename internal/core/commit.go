package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/relation"
	"repro/internal/store"
)

// CommitResult describes one applied commit. JSON tags are snake_case
// throughout (as everywhere on the observability surface), so marshaling
// a result — or any struct nesting one — matches /statusz conventions.
type CommitResult struct {
	// Seq is the engine's commit sequence number: the total notification
	// order every Live delta carries. Strictly monotonic, starting at 1.
	Seq int64 `json:"seq"`
	// StoreSeq is the storage backend's own log sequence number for this
	// ΔD (Backend.ApplyVersioned). On a sharded backend this is the merged
	// commit number; per-shard LSNs advance underneath where the tuples
	// land.
	StoreSeq int64 `json:"store_seq"`
	// Size is |ΔD|.
	Size int `json:"size"`
	// Watchers is the number of Live subscriptions this commit notified
	// (those whose query body the update touches).
	Watchers int `json:"watchers"`
	// Maintenance is the total work charged maintaining those watchers'
	// answer sets — every read counted, each watcher's share bounded by
	// its N-derived per-delta bound.
	Maintenance store.Counters `json:"maintenance"`
	// ViewsMaintained is the number of materialized views whose extents
	// this commit's base ΔD touched and that were maintained in-pipeline;
	// ViewReads the tuple reads charged doing so (each view's share
	// bounded by its N-derived per-delta bound). Scalars so a view-less
	// commit marshals exactly as before.
	ViewsMaintained int   `json:"views_maintained,omitempty"`
	ViewReads       int64 `json:"view_reads,omitempty"`
	// Phases is the wall-time breakdown of the pipeline: validation, live
	// maintenance against the pre-state, the store apply, and watcher
	// notification. Phases.Total() is the commit's time under the lock.
	Phases CommitPhases `json:"phases"`
}

// Commit is the engine's write path: it validates ΔD, applies it to the
// storage backend through the backend's versioned commit log, assigns the
// commit a sequence number, tracks per-relation committed update volume,
// and incrementally maintains every registered Live subscription —
// deletion candidates are probed against the pre-commit state, insertion
// candidates and re-verification against the post-commit state, and each
// watcher receives one Delta carrying the commit's sequence number.
//
// Commits are serialized: the pipeline runs under the engine's commit
// lock, so sequence numbers, maintained answer sets and delta streams
// agree on one total order. Readers are not excluded — prepared
// executions and open cursors proceed concurrently under the backend's
// own locking — and maintenance work is bounded (reads ≤ each watcher's
// DeltaBound), so the write path stays scale-independent: commit latency
// grows with |ΔD| and the number of touched watchers, never with |D|. A
// watcher a delta tuple cannot reach costs a positional comparison or one
// guard probe and no allocation (see Maintainer).
//
// Validation failures wrap ErrInvalidUpdate and apply nothing. A
// maintenance failure fails that watcher only (its Err reports the cause;
// the commit itself stands). Writing through Backend.ApplyVersioned
// directly bypasses this pipeline and leaves Live handles permanently
// stale — mutate through Commit.
func (e *Engine) Commit(ctx context.Context, u *relation.Update) (*CommitResult, error) {
	if u == nil || u.Size() == 0 {
		return nil, fmt.Errorf("core: empty ΔD: %w", ErrInvalidUpdate)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrCanceled, err)
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()

	// Phase timing is always on: a handful of clock reads per commit is
	// noise next to the apply, and CommitResult.Phases is part of the
	// result contract. Telemetry sinks additionally get a CommitEvent.
	var phases CommitPhases
	phaseStart := time.Now()
	mark := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(phaseStart)
		phaseStart = now
	}

	// Phase 0 — validate before charging anyone: when watchers or
	// materialized views will do maintenance work for this update, the
	// backend pre-checks ΔD (Backend.ValidateUpdate) and an invalid commit
	// is rejected here, before any maintenance reads run or a watcher can
	// be failed — or a view frozen — on behalf of an update that will
	// never apply. Maintenance-less commits skip straight to the apply,
	// whose own validation is authoritative either way.
	var touched []*Live
	for _, l := range e.liveWatchers() {
		if l.m.Touches(u) {
			touched = append(touched, l)
		}
	}
	var touchedViews []*matView
	for _, mv := range e.activeViews() {
		if mv.m.Touches(u) {
			touchedViews = append(touchedViews, mv)
		}
	}
	if len(touched) > 0 || len(touchedViews) > 0 {
		if err := e.DB.ValidateUpdate(u); err != nil {
			err = fmt.Errorf("core: %w: %w", ErrInvalidUpdate, err)
			mark(&phases.Validate)
			if o := e.telemetry(); o != nil {
				o.observeCommit(CommitEvent{Size: u.Size(), Phases: phases, Err: err})
			}
			return nil, err
		}
	}
	mark(&phases.Validate)

	// Phase 1 — pre-apply: deletion candidates for every touched watcher
	// are computed against the OLD state. Each watcher charges its own
	// ExecStats, budgeted at its N-derived per-delta bound and canceled by
	// its own watch context, so one watcher cannot starve another.
	// The work slice is allocated once, at its final size, so each
	// watcher's stats live in it.
	type pending struct {
		l       *Live
		es      store.ExecStats
		bound   int64
		delCand *relation.TupleSet
	}
	work := make([]pending, 0, len(touched))
	for _, l := range touched {
		if err := l.m.canMaintain(u); err != nil {
			l.fail(err)
			continue
		}
		work = append(work, pending{l: l, bound: l.m.DeltaBound(u)})
		w := &work[len(work)-1]
		w.es = store.ExecStats{Ctx: l.ctx, MaxReads: w.bound}
		delCand, err := l.m.preDelete(l.ctx, &w.es, u)
		if err != nil {
			l.fail(err)
			work = work[:len(work)-1]
			continue
		}
		w.delCand = delCand
	}
	// Touched materialized views run the same pre-apply step: deletion
	// candidates against the OLD extent, each view charging its own
	// ExecStats budgeted at its N-derived per-delta bound. A failure here
	// freezes the view (stale, unplannable, epoch bumped) but never fails
	// the commit — view maintenance is derived work, the base write wins.
	type viewPending struct {
		mv      *matView
		es      *store.ExecStats
		delCand *relation.TupleSet
	}
	var vwork []viewPending
	for _, mv := range touchedViews {
		if err := mv.m.canMaintain(u); err != nil {
			e.breakView(mv, err)
			continue
		}
		es := &store.ExecStats{Ctx: ctx, MaxReads: mv.m.DeltaBound(u)}
		delCand, err := mv.m.preDelete(ctx, es, u)
		if err != nil {
			e.breakView(mv, err)
			continue
		}
		vwork = append(vwork, viewPending{mv: mv, es: es, delCand: delCand})
	}
	mark(&phases.Maintain)

	// Phase 2 — apply, through the backend's commit log.
	storeSeq, err := e.DB.ApplyVersioned(u)
	if err != nil {
		err = fmt.Errorf("core: %w: %w", ErrInvalidUpdate, err)
		mark(&phases.Apply)
		if o := e.telemetry(); o != nil {
			o.observeCommit(CommitEvent{Size: u.Size(), Phases: phases, Err: err})
		}
		return nil, err
	}
	seq := e.commitSeq.Add(1)
	e.trackVolume(u)
	res := &CommitResult{Seq: seq, StoreSeq: storeSeq, Size: u.Size()}
	mark(&phases.Apply)

	// Phase 3a — view post-apply: insertion candidates and deletion
	// re-verification against the NEW base state, the resulting view delta
	// written through the backend's derived-state path (ApplyDerived: no
	// LSN advance — the view extent is state of THIS commit, not a commit
	// of its own). Views go first so watchers whose queries read views
	// observe extents consistent with the commit they are notified for.
	for _, w := range vwork {
		ins, del, err := w.mv.m.postApply(ctx, w.es, u, w.delCand)
		if err != nil {
			e.breakView(w.mv, err)
			continue
		}
		if len(ins)+len(del) > 0 {
			vu := relation.NewUpdate()
			vname := w.mv.view.Name()
			for _, t := range ins {
				vu.Insert(vname, t)
			}
			for _, t := range del {
				vu.Delete(vname, t)
			}
			if err := e.DB.ApplyDerived(vu); err != nil {
				e.breakView(w.mv, err)
				continue
			}
		}
		res.ViewsMaintained++
		res.ViewReads += w.es.Counters.TupleReads
	}
	// Every surviving view is fresh as of this commit: maintained extents
	// after the delta above, untouched ones trivially.
	e.viewMu.Lock()
	for _, mv := range e.viewReg {
		if mv.broken == nil {
			mv.seq = seq
		}
	}
	e.viewMu.Unlock()

	// Phase 3 — post-apply: insertion candidates and deletion
	// re-verification against the NEW state; each watcher's answer set
	// moves and its delta is queued under that watcher's own lock, so
	// Snapshot and Deltas readers serialize against maintenance without
	// blocking each other or the backend.
	for i := range work {
		w := &work[i]
		w.l.mu.Lock()
		if w.l.closed || w.l.err != nil {
			w.l.mu.Unlock()
			continue
		}
		ins, del, err := w.l.m.postApply(w.l.ctx, &w.es, u, w.delCand)
		if err != nil {
			w.l.failLocked(err)
			w.l.mu.Unlock()
			continue
		}
		w.l.seq = seq
		w.l.cost.Add(w.es.Counters)
		w.l.deliverLocked(Delta{
			Seq:    seq,
			Ins:    ins,
			Del:    del,
			Cost:   w.es.Counters,
			Bound:  w.bound,
			Reexec: w.l.m.useReexec(u),
		})
		w.l.mu.Unlock()
		res.Watchers++
		res.Maintenance.Add(w.es.Counters)
	}
	mark(&phases.Notify)
	res.Phases = phases
	if o := e.telemetry(); o != nil {
		o.observeCommit(CommitEvent{
			Seq:         res.Seq,
			Size:        res.Size,
			Watchers:    res.Watchers,
			Maintenance: res.Maintenance,
			Views:       res.ViewsMaintained,
			ViewReads:   res.ViewReads,
			Phases:      phases,
		})
	}
	return res, nil
}

// CommitSeq returns the sequence number of the last commit (0 before the
// first).
func (e *Engine) CommitSeq() int64 { return e.commitSeq.Load() }

// CommittedVolume returns the cumulative committed tuple volume
// (insertions + deletions) per relation since the engine was built.
func (e *Engine) CommittedVolume() map[string]int64 {
	e.volumeMu.Lock()
	defer e.volumeMu.Unlock()
	out := make(map[string]int64, len(e.volume))
	for rel, n := range e.volume {
		out[rel] = n
	}
	return out
}

// trackVolume accumulates u's per-relation volume.
func (e *Engine) trackVolume(u *relation.Update) {
	e.volumeMu.Lock()
	defer e.volumeMu.Unlock()
	if e.volume == nil {
		e.volume = make(map[string]int64)
	}
	for rel, ts := range u.Ins {
		e.volume[rel] += int64(len(ts))
	}
	for rel, ts := range u.Del {
		e.volume[rel] += int64(len(ts))
	}
}

// register appends a Live subscription to the engine's watcher list,
// assigning its id. Ids are handed out monotonically, so the list stays
// in registration order without sorting. Called under the commit lock
// (Watch), so a handle is either notified of a commit or its initial
// snapshot already includes it.
func (e *Engine) register(l *Live) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	e.watchID++
	l.id = e.watchID
	e.watchers = append(e.watchers, l)
}

// unregister removes a subscription (Close).
func (e *Engine) unregister(id int64) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	if i, ok := slices.BinarySearchFunc(e.watchers, id, func(l *Live, id int64) int { return cmp.Compare(l.id, id) }); ok {
		e.watchers = slices.Delete(e.watchers, i, i+1)
	}
}

// liveWatchers snapshots the registered subscriptions in registration
// order, pruning dead ones: notification (and delta delivery) order is
// deterministic.
func (e *Engine) liveWatchers() []*Live {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	e.watchers = slices.DeleteFunc(e.watchers, (*Live).dead)
	return slices.Clone(e.watchers)
}

// Watchers reports the number of registered live subscriptions.
func (e *Engine) Watchers() int {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	return len(e.watchers)
}
