package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// committed is what one Engine.Commit returned, kept for the per-layer
// numbers.
type committed struct {
	phases core.CommitPhases
	// wait is the commit's span minus Phases.Total(): time spent queued for
	// the pipeline lock (and in the call's own prologue).
	wait                  time.Duration
	watchers, views       int
	maintReads, viewReads int64
}

// committer replays a commit stream through Engine.Commit from one
// goroutine and remembers when each commit was started, by the sequence
// number the engine gave it, so delta arrivals can be timed from it.
type committer struct {
	eng     *core.Engine
	tr      *tracer
	startOf map[int64]time.Time
	done    []committed
}

func newCommitter(eng *core.Engine, tr *tracer) *committer {
	return &committer{eng: eng, tr: tr, startOf: map[int64]time.Time{}}
}

// over adapts a slice of the stream to an opFunc. Commit i of the slice is
// operation base+i of the run.
func (c *committer) over(ctx context.Context, stream []*relation.Update, base int64) opFunc {
	return func(_, i int) (time.Duration, time.Duration, error) {
		root := c.tr.beginOp(base + int64(i))
		defer c.tr.end(root)
		sp := c.tr.begin(spCommit)
		start := time.Now()
		res, err := c.eng.Commit(ctx, stream[i])
		lat := time.Since(start)
		c.tr.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("commit %d: %w", base+int64(i), err)
		}
		c.startOf[res.Seq] = start
		c.done = append(c.done, committed{
			phases:     res.Phases,
			wait:       lat - res.Phases.Total(),
			watchers:   res.Watchers,
			views:      res.ViewsMaintained,
			maintReads: res.Maintenance.TupleReads,
			viewReads:  res.ViewReads,
		})
		// The commit made the watchers' drainers runnable on this P, behind
		// this goroutine. A committer that goes straight on to its next
		// commit keeps them there until the scheduler's 10 ms time slice
		// runs out, and delta lag would measure that. Yield, as a client
		// that has to fetch its next update would.
		runtime.Gosched()
		return lat, 0, nil
	}
}

// viewsIntact checks, on a quiescent engine, that no materialized view was
// frozen by a failed maintenance and that both extents are what their
// definitions give on the current data.
func viewsIntact(r *rig) (checked int, failures []error) {
	infos := r.eng.Views()
	if len(infos) == 0 {
		return 0, nil
	}
	now := newOracle(r.st.CloneData())
	want := map[string]*relation.TupleSet{"VNYC": now.vnyc(), "VFol": now.vfol()}
	data := r.st.CloneData()
	for _, v := range infos {
		checked++
		if v.Broken != "" {
			failures = append(failures, fmt.Errorf("view %s is broken: %s", v.Name, v.Broken))
			continue
		}
		got := relation.NewTupleSet(0)
		got.AddAll(data.Rel(v.Name).Tuples())
		if !got.Equal(want[v.Name]) {
			failures = append(failures, fmt.Errorf("view %s: extent of %d rows, its definition gives %d", v.Name, got.Len(), want[v.Name].Len()))
		}
	}
	return checked, failures
}
