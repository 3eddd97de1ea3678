package backendtest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// liveMaintenance is the conformance subtest for the commit-and-notify
// write path: Q1–Q5 are watched on the reference engine and the engine
// under test, a randomized 200-commit mixed insert/delete workload is
// committed to both, and after EVERY prefix
//
//   - each Live snapshot is bit-identical to a fresh PreparedQuery.Exec
//     on its own backend (maintenance is exact at every commit), and
//     identical across backends;
//   - every delivered delta charged TupleReads within its N-derived bound
//     (also enforced at runtime via MaxReads during the commit);
//   - per-commit maintenance TupleReads are identical across backends,
//     so sharding does not change what bounded maintenance pays;
//   - over the whole stream, maintenance reads on each engine sum to
//     strictly less than re-executing, after each commit, every watcher
//     whose body the commit touches: maintaining answers is cheaper than
//     recomputing them (Q5's re-execution pays the same on both sides).
//
// Q5's safe negation is not a maintainable conjunction: it rides the
// WithReexec fallback, pinning the bounded re-execution path under the
// same exactness and bound checks.
//
// Q1 and Q2 are watched several times over through the same prepared
// query, so the watchers share one compiled plan set: a second watcher on
// the same person, three on other persons, one that joins mid-stream and
// one that closes mid-stream. Each is checked like the rest while it is
// watched.
func liveMaintenance(t *testing.T, cfg workload.Config, engRef, engB *core.Engine) {
	ctx := context.Background()
	qcs := append(cases(cfg), queryCase{"Q5", Q5Src, []string{"p"}, func(i int) query.Bindings {
		return query.Bindings{"p": relation.Int(int64(i % cfg.Persons))}
	}})

	type watched struct {
		name     string
		fixed    query.Bindings
		rels     map[string]bool
		prepRef  *core.PreparedQuery
		prepB    *core.PreparedQuery
		lRef, lB *core.Live
		closed   bool // closed mid-stream: no longer checked
	}
	var ws []*watched
	var hot []int64
	for i, qc := range qcs {
		q := mustQuery(t, qc.src)
		fixed := qc.bind(3 + i) // distinct hot persons across queries
		if p, ok := fixed["p"]; ok {
			hot = append(hot, p.AsInt())
		}
		w := &watched{name: qc.name, fixed: fixed, rels: query.Relations(q.Body),
			prepRef: mustPrepare(t, engRef, q, qc.ctrl),
			prepB:   mustPrepare(t, engB, q, qc.ctrl),
		}
		var err error
		if w.lRef, err = w.prepRef.Watch(ctx, fixed, core.WithReexec()); err != nil {
			t.Fatalf("watch %s on reference: %v", qc.name, err)
		}
		if w.lB, err = w.prepB.Watch(ctx, fixed, core.WithReexec()); err != nil {
			t.Fatalf("watch %s on backend: %v", qc.name, err)
		}
		if w.lRef.SupportsDeletions() != w.lB.SupportsDeletions() {
			t.Fatalf("%s: SupportsDeletions differs across backends", qc.name)
		}
		ws = append(ws, w)
	}

	share := func(base *watched, p int64, label string) *watched {
		fixed := query.Bindings{"p": relation.Int(p)}
		w := &watched{name: fmt.Sprintf("%s %s p=%d", base.name, label, p), fixed: fixed, rels: base.rels, prepRef: base.prepRef, prepB: base.prepB}
		var err error
		if w.lRef, err = w.prepRef.Watch(ctx, fixed); err != nil {
			t.Fatalf("watch %s on reference: %v", w.name, err)
		}
		if w.lB, err = w.prepB.Watch(ctx, fixed); err != nil {
			t.Fatalf("watch %s on backend: %v", w.name, err)
		}
		return w
	}
	q1, q2 := ws[0], ws[1]
	var leaver *watched
	for _, base := range []*watched{q1, q2} {
		p := base.fixed["p"].AsInt()
		ws = append(ws, share(base, p, "twin"))
		for k := int64(1); k <= 3; k++ {
			other := (p + 17*k) % int64(cfg.Persons)
			hot = append(hot, other)
			ws = append(ws, share(base, other, "shared"))
		}
		leaver = ws[len(ws)-1]
	}
	lateP := (q2.fixed["p"].AsInt() + 71) % int64(cfg.Persons)
	hot = append(hot, lateP)
	const joinAt, leaveAt = 80, 120

	commits := workload.MixedCommits(engRef.DB.CloneData(), cfg, 200, hot, 41)
	baseRef, baseB := engRef.CommitSeq(), engB.CommitSeq()
	sawDeletion := false
	var maintRef, maintB, reexecRef, reexecB int64
	for ci, u := range commits {
		if !u.IsInsertOnly() {
			sawDeletion = true
		}
		switch ci {
		case joinAt:
			ws = append(ws, share(q2, lateP, "joined"))
		case leaveAt:
			leaver.closed = true
			leaver.lRef.Close()
			leaver.lB.Close()
		}
		resRef, err := engRef.Commit(ctx, u)
		if err != nil {
			t.Fatalf("commit %d on reference: %v", ci, err)
		}
		resB, err := engB.Commit(ctx, u)
		if err != nil {
			t.Fatalf("commit %d on backend: %v", ci, err)
		}
		if resRef.Seq != baseRef+int64(ci+1) || resB.Seq != baseB+int64(ci+1) {
			t.Fatalf("commit %d: seq %d on reference (base %d), %d on backend (base %d) — commits are not densely sequenced",
				ci, resRef.Seq, baseRef, resB.Seq, baseB)
		}
		if resB.Maintenance.TupleReads != resRef.Maintenance.TupleReads {
			t.Fatalf("commit %d: maintenance charged %d tuple reads on backend, %d on reference",
				ci, resB.Maintenance.TupleReads, resRef.Maintenance.TupleReads)
		}
		maintRef += resRef.Maintenance.TupleReads
		maintB += resB.Maintenance.TupleReads
		for _, w := range ws {
			if w.closed {
				continue
			}
			ansRef, err := w.prepRef.Exec(ctx, w.fixed)
			if err != nil {
				t.Fatalf("commit %d: %s fresh exec on reference: %v", ci, w.name, err)
			}
			ansB, err := w.prepB.Exec(ctx, w.fixed)
			if err != nil {
				t.Fatalf("commit %d: %s fresh exec on backend: %v", ci, w.name, err)
			}
			if touches(u, w.rels) {
				reexecRef += ansRef.Cost.TupleReads
				reexecB += ansB.Cost.TupleReads
			}
			snapRef, snapB := w.lRef.Snapshot(), w.lB.Snapshot()
			if !snapRef.Equal(ansRef.Tuples) {
				t.Fatalf("commit %d: %s reference snapshot (%d answers) diverged from fresh Exec (%d)",
					ci, w.name, snapRef.Len(), ansRef.Tuples.Len())
			}
			if !snapB.Equal(ansB.Tuples) {
				t.Fatalf("commit %d: %s backend snapshot (%d answers) diverged from fresh Exec (%d)",
					ci, w.name, snapB.Len(), ansB.Tuples.Len())
			}
			if !snapB.Equal(snapRef) {
				t.Fatalf("commit %d: %s snapshots diverge across backends", ci, w.name)
			}
			if err := w.lRef.Err(); err != nil {
				t.Fatalf("commit %d: %s reference watch failed: %v", ci, w.name, err)
			}
			if err := w.lB.Err(); err != nil {
				t.Fatalf("commit %d: %s backend watch failed: %v", ci, w.name, err)
			}
		}
	}
	if !sawDeletion {
		t.Fatal("randomized workload produced no deletions; widen the op mix")
	}
	if maintRef >= reexecRef || maintB >= reexecB {
		t.Fatalf("maintenance is not strictly cheaper than re-execution over %d commits: %d vs %d reads on reference, %d vs %d on backend",
			len(commits), maintRef, reexecRef, maintB, reexecB)
	}
	t.Logf("maintenance %d reads vs re-execution %d over %d commits", maintB, reexecB, len(commits))

	// Drain the delta streams (Close keeps queued deltas consumable) and
	// pin the per-delta contract.
	for _, w := range ws {
		w.lRef.Close()
		w.lB.Close()
		dRef := collectDeltas(t, w.name+" reference", w.lRef)
		dB := collectDeltas(t, w.name+" backend", w.lB)
		if len(dRef) != len(dB) {
			t.Fatalf("%s: %d deltas on reference, %d on backend", w.name, len(dRef), len(dB))
		}
		if len(dRef) == 0 {
			t.Fatalf("%s: watched query saw no deltas over 200 hot commits", w.name)
		}
		for i := range dRef {
			r, b := dRef[i], dB[i]
			if r.Seq-baseRef != b.Seq-baseB {
				t.Fatalf("%s delta %d: seq %d on reference, %d on backend", w.name, i, r.Seq-baseRef, b.Seq-baseB)
			}
			if r.Cost.TupleReads > r.Bound {
				t.Fatalf("%s delta %d (seq %d): reference maintenance charged %d reads, bound %d",
					w.name, i, r.Seq, r.Cost.TupleReads, r.Bound)
			}
			if b.Cost.TupleReads > b.Bound {
				t.Fatalf("%s delta %d (seq %d): backend maintenance charged %d reads, bound %d",
					w.name, i, b.Seq, b.Cost.TupleReads, b.Bound)
			}
			if b.Bound != r.Bound {
				t.Fatalf("%s delta %d: bound %d on backend, %d on reference (the bound is a property of the plans, not the backend)",
					w.name, i, b.Bound, r.Bound)
			}
			if b.Cost.TupleReads != r.Cost.TupleReads {
				t.Fatalf("%s delta %d (seq %d): backend charged %d maintenance reads, reference %d",
					w.name, i, b.Seq, b.Cost.TupleReads, r.Cost.TupleReads)
			}
			if !sameTuples(r.Ins, b.Ins) || !sameTuples(r.Del, b.Del) {
				t.Fatalf("%s delta %d (seq %d): ins/del diverge across backends", w.name, i, r.Seq)
			}
		}
	}
}

// touches reports whether u inserts or deletes a tuple of a relation in
// rels: whether a commit of u notifies a watcher whose body reads rels.
func touches(u *relation.Update, rels map[string]bool) bool {
	for rel, ts := range u.Ins {
		if len(ts) > 0 && rels[rel] {
			return true
		}
	}
	for rel, ts := range u.Del {
		if len(ts) > 0 && rels[rel] {
			return true
		}
	}
	return false
}

// collectDeltas drains a closed Live's queued deltas.
func collectDeltas(t *testing.T, label string, l *core.Live) []core.Delta {
	t.Helper()
	var out []core.Delta
	for d, err := range l.Deltas() {
		if err != nil {
			t.Fatalf("%s: delta stream failed: %v", label, err)
		}
		out = append(out, d)
	}
	return out
}

// sameTuples compares two tuple slices as sets.
func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	s := relation.NewTupleSet(len(a))
	s.AddAll(a)
	for _, t := range b {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}
