package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

// env is what one run of one workload is given.
type env struct {
	ctx     context.Context
	aborted *atomic.Bool // set when ctx is done: loops poll it between ops
	seed    int64
	seconds float64
	smoke   bool
	nextOp  int64 // run-wide operation numbering; request ids carry it
}

// ids reserves n consecutive operation numbers. Numbering starts at 1.
func (e *env) ids(n int) int64 {
	base := e.nextOp + 1
	e.nextOp += int64(n)
	return base
}

func (e *env) loop(workers, segs int, seg *atomic.Int32) loop {
	return loop{aborted: e.aborted, workers: workers, segs: segs, seg: seg}
}

// outcome is what a run reports.
type outcome struct {
	metrics   map[string]float64
	summaries map[string]summary // where a metric is a median over segments
	phases    []phaseResult
	// checks made outside the op streams (snapshots, view extents, hygiene)
	// count as operations too: one attempted each, failed if wrong.
	checks, checkFails int
	errs               []error
	// checksum folds what every deterministic read returned (answers and
	// tuple reads per op number): two runs of one seed agree on it.
	checksum uint64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, summaries: map[string]summary{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) setSummary(name string, s summary) {
	o.metrics[name] = s.Median
	o.summaries[name] = s
}

func (o *outcome) phase(p phaseResult) phaseResult {
	o.phases = append(o.phases, p)
	if err := p.firstErr(); err != nil {
		o.errs = append(o.errs, fmt.Errorf("%s: %w", p.name, err))
	}
	return p
}

func (o *outcome) check(n int, failures []error) {
	o.checks += n
	o.checkFails += len(failures)
	o.errs = append(o.errs, failures...)
}

func (o *outcome) attempted() int {
	n := o.checks
	for _, p := range o.phases {
		n += p.attempted()
	}
	return n
}

func (o *outcome) failed() int {
	n := o.checkFails
	for _, p := range o.phases {
		n += p.failed()
	}
	return n
}

// heapAfterGC is HeapAlloc after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// served is a rig with whatever a workload needs in front of it to take
// reads: nothing, or the serving tier and its clients.
type served struct {
	*rig
	rd   reader
	wire *wireRig
}

// close takes the serving tier down, once.
func (s *served) close() error {
	if s.wire == nil {
		return nil
	}
	w := s.wire
	s.wire = nil
	return w.close()
}

// readWorkload describes one of the three read workloads. They share every
// phase; they differ in what takes the reads.
type readWorkload struct {
	name  string
	views viewSet
	// serve puts a reader for `workers` load generators in front of r.
	serve func(e *env, r *rig, workers int, check *oracle, tr *tracer) (*served, error)
	// ops generates n operations of the workload's stream.
	ops func(rng *rand.Rand, n int, r *rig) []readOp
}

var readWorkloads = map[string]readWorkload{
	"read_local": {
		name: "read_local",
		serve: func(e *env, r *rig, workers int, check *oracle, tr *tracer) (*served, error) {
			rd, err := newLocalReader(r, mixRead, workers, check, tr)
			return &served{rig: r, rd: rd}, err
		},
		ops: func(rng *rand.Rand, n int, r *rig) []readOp { return genReadOps(rng, n, mixRead, r.cfg) },
	},
	"read_wire": {
		name: "read_wire",
		serve: func(e *env, r *rig, workers int, check *oracle, tr *tracer) (*served, error) {
			w, err := startWire(r, workers, tr)
			if err != nil {
				return nil, err
			}
			rd, err := w.newReader(e.ctx, mixRead, check, tr)
			if err != nil {
				w.close()
				return nil, err
			}
			if tr != nil {
				if rd.local, err = newLocalReader(r, mixRead, 1, nil, tr); err != nil {
					w.close()
					return nil, err
				}
			}
			return &served{rig: r, rd: rd, wire: w}, nil
		},
		ops: func(rng *rand.Rand, n int, r *rig) []readOp { return genReadOps(rng, n, mixRead, r.cfg) },
	},
	"adhoc_cold": {
		name:  "adhoc_cold",
		views: viewsRescue, // Q6 is answerable only through VFol (Thm 6.1)
		serve: func(e *env, r *rig, workers int, check *oracle, tr *tracer) (*served, error) {
			return &served{rig: r, rd: newAdhocReader(r, variantsCold, check, tr)}, nil
		},
		ops: func(rng *rand.Rand, n int, r *rig) []readOp { return genAdhocOps(rng, n, variantsCold, r.cfg) },
	},
}

// setUp builds a rig of the given size, puts the workload's reader in
// front of it and warms it up: generate + open + views + prepare + a short
// untimed stretch of the op stream, so caches fill and lazy set-up is done.
func (w readWorkload) setUp(e *env, persons, workers, commits int, tr *tracer) (*served, error) {
	r, err := buildRig(rigOpts{persons: scaled(persons, e.smoke), seed: e.seed, views: w.views, commits: commits, tr: tr})
	if err != nil {
		return nil, err
	}
	s, err := w.serve(e, r, workers, r.oracle, tr)
	if err != nil {
		return nil, err
	}
	n := scaled(warmupOps, e.smoke)
	ops := w.ops(rand.New(rand.NewSource(e.seed^0x77)), n, r)
	warm, err := e.loop(workers, 1, nil).closed("warmup", n, opsOver(e.ctx, s.rd, ops, e.ids(n)))
	if err == nil && warm.failed() > 0 {
		err = fmt.Errorf("warm-up: %w", warm.firstErr())
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runReads is the untraced run of a read workload: the phases that give
// its end-to-end metrics.
func (w readWorkload) run(e *env) (*outcome, error) {
	out := newOutcome()
	sz := sizings[w.name]
	rng := rand.New(rand.NewSource(e.seed))

	// Scale: the same closed loop at |D| ≈ 30k and ≈ 600k, medians only.
	var scaleP50 [2]float64
	for i, sc := range []struct {
		name    string
		persons int
		share   float64
	}{{"small", personsSmall, shareSmall}, {"large", personsLarge, shareLarge}} {
		s, err := w.setUp(e, sc.persons, sz.workers, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		n := count(sz.closed, e.seconds, sc.share)
		ops := w.ops(rng, n, s.rig)
		res, err := e.loop(sz.workers, 1, nil).closed(sc.name, n, opsOver(e.ctx, s.rd, ops, e.ids(n)))
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		scaleP50[i] = medianMicros(out.phase(res).allLat())
	}
	out.set("scale_ratio", ratio(scaleP50[1], scaleP50[0]))

	// Set-up, several times over; the last one is the instance measured.
	nMixed := count(sz.commits, e.seconds, shareMixed)
	var s *served
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil // so the heap baseline of the next one does not hold this one
		}
		t0 := time.Now()
		var err error
		if s, err = w.setUp(e, personsMain, sz.workers, nMixed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer s.close()
	out.setSummary("setup_s", summarize(setupTimes, len(setupTimes)))
	out.set("heap_bytes_per_tuple", ratio(float64(s.engineHeap), float64(s.st.Size())))

	// Main: closed loop, five segments.
	n := count(sz.closed, e.seconds, shareMain)
	ops := w.ops(rng, n, s.rig)
	main, err := e.loop(sz.workers, segments, nil).closed("main", n, opsOver(e.ctx, s.rd, ops, e.ids(n)))
	if err != nil {
		return nil, err
	}
	out.phase(main)
	out.setSummary("ops_per_s", main.opsPerSecond())
	out.setSummary("p50_us", overSegments(main.lats(), p50))
	out.setSummary("p99_us", overSegments(main.lats(), p99))
	out.setSummary("ttfr_p50_us", overSegments(main.ttfrs(), p50))
	out.checksum = sumTallies(s.rd.tallies()).sum

	// Mixed: a committer replays the mixed stream, watched by the live
	// subscriptions, while one load generator keeps reading.
	side := w.ops(rng, scaled(20_000, e.smoke), s.rig)
	beside, lags, err := mixedPhase(e, out, s.rig, s.rd.unchecked(), side, nMixed)
	if err != nil {
		return nil, err
	}
	out.set("delta_lag_p50_us", medianMicros(lags))
	out.set("side_read_p50_us", medianMicros(beside.allLat()))
	out.setSummary("side_read_ops_per_s", beside.opsPerSecond())
	return out, s.close()
}

// mixedPhase replays the next n commits of r's stream through the engine,
// as a closed loop of one committer, with the live subscriptions attached
// and rd reading beside it. Afterwards, with the engine quiescent, it
// verifies the subscriptions and the views. It returns the reads' samples
// and the delta lags.
func mixedPhase(e *env, out *outcome, r *rig, rd reader, side []readOp, n int) (reads phaseResult, lags []time.Duration, err error) {
	wr, err := attachWatchers(e.ctx, r)
	if err != nil {
		return reads, nil, err
	}
	defer wr.close()
	cm := newCommitter(r.eng, nil)
	commits, reads, err := commitPhase(e, "mixed", r, cm, rd, side, n, 1, nil)
	if err != nil {
		return reads, nil, err
	}
	out.phase(commits)
	out.phase(reads)
	wr.close()
	out.check(wr.verify(e.ctx))
	out.check(viewsIntact(r))
	return reads, wr.lags(cm.startOf), nil
}

// commitPhase is one stretch of commits through cm — closed loop, or due
// on a schedule — with rd (if any) reading beside them.
func commitPhase(e *env, name string, r *rig, cm *committer, rd reader, side []readOp, n, segs int, due []time.Duration) (commits, reads phaseResult, err error) {
	stream, err := r.takeCommits(n)
	if err != nil {
		return commits, reads, err
	}
	var seg atomic.Int32
	var stop func(phaseResult) phaseResult
	if rd != nil {
		stop = beside(e.aborted, &seg, segs, len(side), opsOver(e.ctx, rd, side, e.ids(len(side))))
	}
	l := e.loop(1, segs, &seg)
	if due != nil {
		commits, err = l.open(name, due, cm.over(e.ctx, stream, e.ids(n)))
	} else {
		commits, err = l.closed(name, n, cm.over(e.ctx, stream, e.ids(n)))
	}
	if stop != nil {
		reads = stop(commits)
	}
	return commits, reads, err
}
