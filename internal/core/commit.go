package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
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
// and incrementally maintains every registered Live subscription and
// materialized view — deletion candidates are probed against the
// pre-commit state, insertion candidates and re-verification against the
// post-commit state, and each watcher receives one Delta carrying the
// commit's sequence number, in registration order.
//
// ΔD is read once per commit, into a digest of the touched relations (in
// name order, each with its inserted and deleted tuples), the insert-only
// flag and |ΔD|; nothing after that ranges over the update's maps again.
// What depends only on a plan set and ΔD — whether the commit touches the
// body, whether it is maintained by re-execution, its read bound, or why
// it cannot be maintained (maintStep) — is decided once per group of
// watchers sharing a plan set, not per watcher. Per watcher only the
// positional unification, the guard probes, the rest plans and the
// delivery remain. A view is a group of one.
//
// Commits are serialized: the pipeline runs under the engine's commit
// lock, so sequence numbers, maintained answer sets and delta streams
// agree on one total order. Readers are not excluded — prepared
// executions and open cursors proceed concurrently under the backend's
// own locking — and maintenance work is bounded (reads ≤ each watcher's
// delta bound), so the write path stays scale-independent: commit latency
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
	sc := &e.scratch
	defer sc.reset()

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

	// Phase 0 — read ΔD once, decide per group, validate. The registry
	// snapshot is immutable (Watch, Close and failing handles publish a
	// new one), so it is read as is.
	d := &sc.digest
	d.read(u)
	reg := e.registry()
	touched := false
	for _, g := range reg.groups {
		s := g.ps.step(d, g.reexec)
		sc.steps = append(sc.steps, s)
		touched = touched || s.touched
	}
	views := e.activeViews()
	for _, mv := range views {
		s := mv.m.ps.step(d, nil)
		sc.vsteps = append(sc.vsteps, s)
		touched = touched || s.touched
	}
	// Deletion candidates are computed against the OLD state before the
	// apply, so when watchers or views will maintain a ΔD that deletes,
	// the backend pre-checks it (Backend.ValidateUpdate) and an invalid
	// commit is rejected here, before any maintenance reads run or a
	// watcher can be failed — or a view frozen — on behalf of an update
	// that will never apply. An insert-only ΔD reads nothing and can fail
	// no one before the apply, whose own validation is authoritative
	// either way.
	if touched && !d.insertOnly {
		if err := e.DB.ValidateUpdate(u); err != nil {
			err = fmt.Errorf("core: %w: %w", ErrInvalidUpdate, err)
			mark(&phases.Validate)
			if o := e.telemetry(); o != nil {
				o.observeCommit(CommitEvent{Size: d.size, Phases: phases, Err: err})
			}
			return nil, err
		}
	}
	mark(&phases.Validate)

	// Phase 1 — pre-apply: deletion candidates for every touched watcher
	// are computed against the OLD state. Each watcher is charged to the
	// one reused ExecStats, budgeted at its group's N-derived per-delta
	// bound and canceled by its own watch context, so one watcher cannot
	// starve another; its Counters are carried to phase 3, so the budget
	// covers both phases.
	for _, mem := range reg.members {
		s := &sc.steps[mem.g]
		if !s.touched {
			continue
		}
		l := mem.l
		if s.err != nil {
			l.fail(s.err)
			continue
		}
		sc.es = store.ExecStats{Ctx: l.ctx, MaxReads: s.bound}
		delCand, err := l.m.preDelete(l.ctx, &sc.es, d, s.reexec)
		if err != nil {
			l.fail(err)
			continue
		}
		sc.work = append(sc.work, pending[*Live]{of: l, s: s, cnt: sc.es.Counters, delCand: delCand})
	}
	// Touched materialized views run the same pre-apply step: deletion
	// candidates against the OLD extent, each view charged under its own
	// N-derived per-delta bound. A failure here freezes the view (stale,
	// unplannable, epoch bumped) but never fails the commit — view
	// maintenance is derived work, the base write wins.
	for i, mv := range views {
		s := &sc.vsteps[i]
		if !s.touched {
			continue
		}
		if s.err != nil {
			e.breakView(mv, s.err)
			continue
		}
		sc.es = store.ExecStats{Ctx: ctx, MaxReads: s.bound}
		delCand, err := mv.m.preDelete(ctx, &sc.es, d, s.reexec)
		if err != nil {
			e.breakView(mv, err)
			continue
		}
		sc.vwork = append(sc.vwork, pending[*matView]{of: mv, s: s, cnt: sc.es.Counters, delCand: delCand})
	}
	mark(&phases.Maintain)

	// Phase 2 — apply, through the backend's commit log.
	storeSeq, err := e.DB.ApplyVersioned(u)
	if err != nil {
		err = fmt.Errorf("core: %w: %w", ErrInvalidUpdate, err)
		mark(&phases.Apply)
		if o := e.telemetry(); o != nil {
			o.observeCommit(CommitEvent{Size: d.size, Phases: phases, Err: err})
		}
		return nil, err
	}
	seq := e.commitSeq.Add(1)
	e.trackVolume(d)
	res := &CommitResult{Seq: seq, StoreSeq: storeSeq, Size: d.size}
	mark(&phases.Apply)

	// Phase 3a — view post-apply: insertion candidates and deletion
	// re-verification against the NEW base state, the resulting view delta
	// written through the backend's derived-state path (ApplyDerived: no
	// LSN advance — the view extent is state of THIS commit, not a commit
	// of its own). Views go first so watchers whose queries read views
	// observe extents consistent with the commit they are notified for.
	for i := range sc.vwork {
		w := &sc.vwork[i]
		sc.es = store.ExecStats{Ctx: ctx, MaxReads: w.s.bound, Counters: w.cnt}
		ins, del, err := w.of.m.postApply(ctx, &sc.es, d, w.s.reexec, w.delCand)
		if err != nil {
			e.breakView(w.of, err)
			continue
		}
		if len(ins)+len(del) > 0 {
			vu := relation.NewUpdate()
			vname := w.of.view.Name()
			for _, t := range ins {
				vu.Insert(vname, t)
			}
			for _, t := range del {
				vu.Delete(vname, t)
			}
			if err := e.DB.ApplyDerived(vu); err != nil {
				e.breakView(w.of, err)
				continue
			}
		}
		res.ViewsMaintained++
		res.ViewReads += sc.es.Counters.TupleReads
	}
	// Every surviving view is fresh as of this commit: maintained extents
	// after the delta above, untouched ones trivially. No view registers
	// or drops under the commit lock, so the snapshot is all of them.
	e.viewMu.Lock()
	for _, mv := range views {
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
	for i := range sc.work {
		w := &sc.work[i]
		l := w.of
		l.mu.Lock()
		if l.closed || l.err != nil {
			l.mu.Unlock()
			continue
		}
		sc.es = store.ExecStats{Ctx: l.ctx, MaxReads: w.s.bound, Counters: w.cnt}
		ins, del, err := l.m.postApply(l.ctx, &sc.es, d, w.s.reexec, w.delCand)
		if err != nil {
			l.mu.Unlock()
			l.fail(err)
			continue
		}
		l.seq = seq
		l.cost.Add(sc.es.Counters)
		l.deliverLocked(Delta{
			Seq:    seq,
			Ins:    ins,
			Del:    del,
			Cost:   sc.es.Counters,
			Bound:  w.s.bound,
			Reexec: w.s.reexec,
		})
		l.mu.Unlock()
		res.Watchers++
		res.Maintenance.Add(sc.es.Counters)
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

// commitScratch is the commit pipeline's state reused across commits, so
// the pipeline's own bookkeeping allocates nothing per commit. Guarded by
// Engine.commitMu.
type commitScratch struct {
	digest deltaDigest
	// steps holds the maintStep of each group of the registry snapshot,
	// vsteps that of each active view.
	steps, vsteps []maintStep
	// es is the one ExecStats every maintenance call is charged to, reset
	// per watcher or view; the Counters each one ran up before the apply
	// are carried in its pending entry.
	es    store.ExecStats
	work  []pending[*Live]
	vwork []pending[*matView]
}

// pending is a watcher or view between its pre-apply and post-apply
// steps: its group's decision, the Counters charged so far and the
// deletion candidates.
type pending[T any] struct {
	of      T
	s       *maintStep
	cnt     store.Counters
	delCand *relation.TupleSet
}

// reset empties the scratch, dropping its references to this commit's
// update, watchers and candidates but keeping the arrays.
func (sc *commitScratch) reset() {
	sc.digest.reset()
	clear(sc.steps)
	clear(sc.vsteps)
	clear(sc.work)
	clear(sc.vwork)
	sc.steps, sc.vsteps, sc.work, sc.vwork = sc.steps[:0], sc.vsteps[:0], sc.work[:0], sc.vwork[:0]
	sc.es = store.ExecStats{}
}

// deltaDigest is ΔD read once: the relations it touches, in name order,
// each with its inserted and deleted tuples (the update's own slices, not
// copies), whether it only inserts, and |ΔD|. The commit pipeline and
// every maintenance step range over it instead of the update's maps.
type deltaDigest struct {
	rels       []relDelta
	insertOnly bool
	size       int
}

// relDelta is one relation's share of ΔD.
type relDelta struct {
	rel      string
	ins, del []relation.Tuple
}

// read fills d from u, reusing d's array.
func (d *deltaDigest) read(u *relation.Update) {
	d.reset()
	for rel, ts := range u.Ins {
		if len(ts) > 0 {
			d.rels = append(d.rels, relDelta{rel: rel, ins: ts})
			d.size += len(ts)
		}
	}
	nIns := len(d.rels)
	for rel, ts := range u.Del {
		if len(ts) == 0 {
			continue
		}
		d.size += len(ts)
		d.insertOnly = false
		if i := slices.IndexFunc(d.rels[:nIns], func(r relDelta) bool { return r.rel == rel }); i >= 0 {
			d.rels[i].del = ts
			continue
		}
		d.rels = append(d.rels, relDelta{rel: rel, del: ts})
	}
	slices.SortFunc(d.rels, func(a, b relDelta) int { return strings.Compare(a.rel, b.rel) })
}

// reset empties d, keeping its array.
func (d *deltaDigest) reset() {
	clear(d.rels)
	d.rels, d.insertOnly, d.size = d.rels[:0], true, 0
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

// trackVolume accumulates ΔD's per-relation volume.
func (e *Engine) trackVolume(d *deltaDigest) {
	e.volumeMu.Lock()
	defer e.volumeMu.Unlock()
	if e.volume == nil {
		e.volume = make(map[string]int64)
	}
	for _, r := range d.rels {
		e.volume[r.rel] += int64(len(r.ins) + len(r.del))
	}
}

// watchRegistry is the registered Live subscriptions, grouped by what
// maintains them. It is immutable once published: Watch, Close and a
// failing handle publish a new one under watchMu, and a commit reads the
// current one as it is, without copying it or locking any handle.
type watchRegistry struct {
	// groups are keyed by (plan set, re-execution plan): every member of
	// a group gets the same maintStep from a commit.
	groups []watchGroup
	// members are the handles in registration (id) order, the order
	// deltas are delivered in.
	members []watchMember
}

// watchGroup is the shared maintenance of the watchers of one prepared
// query and fixed-variable set, and how many members it has.
type watchGroup struct {
	ps     *maintPlans
	reexec *PreparedQuery
	n      int
}

// watchMember is one registered handle and the index of its group.
type watchMember struct {
	l *Live
	g int
}

// noWatchers is the registry of an engine nobody has watched yet.
var noWatchers watchRegistry

// registry returns the current registry snapshot.
func (e *Engine) registry() *watchRegistry {
	if r := e.watchReg.Load(); r != nil {
		return r
	}
	return &noWatchers
}

// register adds a Live subscription to the registry, assigning its id and
// joining the group of its plan set and re-execution plan. Ids are handed
// out monotonically, so members stay in registration order without
// sorting. Called under the commit lock (Watch), so a handle is either
// notified of a commit or its initial snapshot already includes it.
func (e *Engine) register(l *Live) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	e.watchID++
	l.id = e.watchID
	old := e.registry()
	r := &watchRegistry{
		groups:  slices.Clone(old.groups),
		members: slices.Grow(slices.Clone(old.members), 1),
	}
	g := slices.IndexFunc(r.groups, func(g watchGroup) bool { return g.ps == l.m.ps && g.reexec == l.m.reexec })
	if g < 0 {
		g = len(r.groups)
		r.groups = append(r.groups, watchGroup{ps: l.m.ps, reexec: l.m.reexec})
	}
	r.groups[g].n++
	r.members = append(r.members, watchMember{l: l, g: g})
	e.watchReg.Store(r)
}

// unregister removes a subscription (Close, or a failed handle), dropping
// its group when it was the last member. Idempotent.
func (e *Engine) unregister(l *Live) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	old := e.registry()
	i, ok := slices.BinarySearchFunc(old.members, l.id, func(m watchMember, id int64) int { return cmp.Compare(m.l.id, id) })
	if !ok {
		return
	}
	g := old.members[i].g
	r := &watchRegistry{groups: slices.Clone(old.groups), members: make([]watchMember, 0, len(old.members)-1)}
	r.groups[g].n--
	drop := r.groups[g].n == 0
	if drop {
		r.groups = slices.Delete(r.groups, g, g+1)
	}
	for j, m := range old.members {
		if j == i {
			continue
		}
		if drop && m.g > g {
			m.g--
		}
		r.members = append(r.members, m)
	}
	e.watchReg.Store(r)
}

// Watchers reports the number of registered live subscriptions.
func (e *Engine) Watchers() int { return len(e.registry().members) }
