package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// errAborted is what an operation returns once the run was told to stop
// (signal or internal deadline). It is not a failed op: the run itself is
// over.
var errAborted = errors.New("sibm: run aborted")

// opFunc executes operation i of a stream on load generator `worker`. It
// returns the operation's latency — call to last row, or to the commit's
// return — and how long after the call its first row was available (0 when
// the notion does not apply). A non-nil error is a failed op: it counts as
// attempted and yields no latency.
type opFunc func(worker, i int) (lat, ttfr time.Duration, err error)

// segment is the outcome of a contiguous share of a phase's operations.
type segment struct {
	wall   time.Duration
	lat    []time.Duration // one per succeeded op
	ttfr   []time.Duration
	late   []time.Duration // open loop: how long after it was due each op began
	failed int
	firstE error
}

// phaseResult is what a phase of one load shape produced.
type phaseResult struct {
	name string
	segs []segment
}

func (p phaseResult) attempted() (n int) {
	for _, s := range p.segs {
		n += len(s.lat) + s.failed
	}
	return n
}

func (p phaseResult) failed() (n int) {
	for _, s := range p.segs {
		n += s.failed
	}
	return n
}

func (p phaseResult) firstErr() error {
	for _, s := range p.segs {
		if s.firstE != nil {
			return s.firstE
		}
	}
	return nil
}

func (p phaseResult) lats() [][]time.Duration {
	out := make([][]time.Duration, len(p.segs))
	for i, s := range p.segs {
		out[i] = s.lat
	}
	return out
}

func (p phaseResult) ttfrs() [][]time.Duration {
	out := make([][]time.Duration, len(p.segs))
	for i, s := range p.segs {
		out[i] = s.ttfr
	}
	return out
}

func (p phaseResult) allLat() []time.Duration {
	var out []time.Duration
	for _, s := range p.segs {
		out = append(out, s.lat...)
	}
	return out
}

func (p phaseResult) allLate() []time.Duration {
	var out []time.Duration
	for _, s := range p.segs {
		out = append(out, s.late...)
	}
	return out
}

// opsPerSecond is the per-segment completion rate, summarized.
func (p phaseResult) opsPerSecond() summary {
	var vals []float64
	n := 0
	for _, s := range p.segs {
		if s.wall > 0 {
			vals = append(vals, float64(len(s.lat))/s.wall.Seconds())
			n += len(s.lat)
		}
	}
	return summarize(vals, n)
}

// loop runs operations on a fixed number of load-generating goroutines.
type loop struct {
	aborted *atomic.Bool // set when the run must stop
	workers int
	segs    int
	// seg, when non-nil, is kept at the index of the segment in progress,
	// so work running beside the loop can file its samples by segment.
	seg *atomic.Int32
}

// workerOut is one goroutine's share of the samples, filed by segment.
type workerOut []segment

func (o workerOut) record(seg int, lat, ttfr, late time.Duration, open bool, err error) {
	s := &o[seg]
	if err != nil {
		s.failed++
		if s.firstE == nil {
			s.firstE = err
		}
		return
	}
	s.lat = append(s.lat, lat)
	s.ttfr = append(s.ttfr, ttfr)
	if open {
		s.late = append(s.late, late)
	}
}

func merge(name string, segs int, outs []workerOut, walls []time.Duration) phaseResult {
	res := phaseResult{name: name, segs: make([]segment, segs)}
	for s := range res.segs {
		res.segs[s].wall = walls[s]
		for _, o := range outs {
			res.segs[s].lat = append(res.segs[s].lat, o[s].lat...)
			res.segs[s].ttfr = append(res.segs[s].ttfr, o[s].ttfr...)
			res.segs[s].late = append(res.segs[s].late, o[s].late...)
			res.segs[s].failed += o[s].failed
			if res.segs[s].firstE == nil {
				res.segs[s].firstE = o[s].firstE
			}
		}
	}
	return res
}

// closed runs ops [0,n) as a closed loop: each goroutine starts its next
// operation when its previous one completed. The ops are split into
// l.segs equal segments run back to back.
func (l loop) closed(name string, n int, do opFunc) (phaseResult, error) {
	outs := make([]workerOut, l.workers)
	for w := range outs {
		outs[w] = make(workerOut, l.segs)
	}
	walls := make([]time.Duration, l.segs)
	for s := 0; s < l.segs; s++ {
		lo, hi := n*s/l.segs, n*(s+1)/l.segs
		if l.seg != nil {
			l.seg.Store(int32(s))
		}
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for !l.aborted.Load() {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					lat, ttfr, err := do(w, i)
					outs[w].record(s, lat, ttfr, 0, false, err)
				}
			}(w)
		}
		wg.Wait()
		walls[s] = time.Since(start)
		if l.aborted.Load() {
			return phaseResult{}, errAborted
		}
	}
	return merge(name, l.segs, outs, walls), nil
}

// schedule draws n arrival times of a Poisson process of the given rate
// (per second), as offsets from the start of the phase.
func schedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	return due
}

// open runs ops [0,n) as an open loop: operation i is due at due[i]
// whatever happened to the ones before it, is sent by whichever of the
// l.workers senders is free first, and is timed from when it was due —
// so the wait a stall imposes on the operations behind it counts. The
// samples are filed into l.segs segments by op index.
func (l loop) open(name string, due []time.Duration, do opFunc) (phaseResult, error) {
	n := len(due)
	outs := make([]workerOut, l.workers)
	for w := range outs {
		outs[w] = make(workerOut, l.segs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !l.aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if l.seg != nil {
					l.seg.Store(int32(i * l.segs / n))
				}
				dueAt := start.Add(due[i])
				if d := time.Until(dueAt); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(dueAt)
				lat, ttfr, err := do(w, i)
				outs[w].record(i*l.segs/n, late+lat, ttfr, late, true, err)
			}
		}(w)
	}
	wg.Wait()
	if l.aborted.Load() {
		return phaseResult{}, errAborted
	}
	// The arrivals are spread evenly, so are the segments.
	wall := time.Since(start) / time.Duration(l.segs)
	walls := make([]time.Duration, l.segs)
	for s := range walls {
		walls[s] = wall
	}
	return merge(name, l.segs, outs, walls), nil
}

// beside runs do in one more goroutine, as a closed loop over ops [0,n)
// that wraps around, from now until stop is called with the result of the
// primary loop it ran beside. Its samples are filed under the segment the
// primary loop was in, and each segment lasted what the primary's did.
// This is the reader next to the committer.
func beside(aborted *atomic.Bool, seg *atomic.Int32, segs, n int, do opFunc) (stop func(primary phaseResult) phaseResult) {
	var halt atomic.Bool
	out := make(workerOut, segs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !halt.Load() && !aborted.Load(); i++ {
			s := int(seg.Load())
			lat, ttfr, err := do(0, i%n)
			if halt.Load() {
				return // the phase ended while this op ran: it is not part of it
			}
			out.record(s, lat, ttfr, 0, false, err)
		}
	}()
	return func(primary phaseResult) phaseResult {
		halt.Store(true)
		<-done
		walls := make([]time.Duration, segs)
		for s := range primary.segs {
			walls[s] = primary.segs[s].wall
		}
		return merge(primary.name+"/beside", segs, []workerOut{out}, walls)
	}
}
