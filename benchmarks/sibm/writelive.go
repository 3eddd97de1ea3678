package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

const warmupCommits = 200

// liveRig is write_live's instance: a rig with both views, the live
// subscriptions attached, a committer, and the reader that runs beside it.
type liveRig struct {
	*rig
	wr   *watchRig
	cm   *committer
	rd   *localReader
	side []readOp
}

// liveSetUp is write_live's set-up: generate + open + views + prepare +
// watchers + a warm-up stretch of commits with the reader beside them.
func liveSetUp(e *env, persons, commits int, tr *tracer) (*liveRig, error) {
	warm := scaled(warmupCommits, e.smoke)
	r, err := buildRig(rigOpts{persons: scaled(persons, e.smoke), seed: e.seed, views: viewsBoth, commits: warm + commits, tr: tr})
	if err != nil {
		return nil, err
	}
	l := &liveRig{rig: r, cm: newCommitter(r.eng, tr)}
	if l.rd, err = newLocalReader(r, mixLive, 1, nil, nil); err != nil {
		return nil, err
	}
	l.side = genReadOps(rand.New(rand.NewSource(e.seed^0x51de)), scaled(20_000, e.smoke), mixLive, r.cfg)
	if l.wr, err = attachWatchers(e.ctx, r); err != nil {
		return nil, err
	}
	var beside reader // nothing in a traced run, which has one client
	if tr == nil {
		beside = l.rd
	}
	res, _, err := commitPhase(e, "warmup", r, l.cm, beside, l.side, warm, 1, nil)
	if err == nil && res.failed() > 0 {
		err = fmt.Errorf("warm-up: %w", res.firstErr())
	}
	if err != nil {
		l.wr.close()
		return nil, err
	}
	l.cm = newCommitter(r.eng, tr) // the warm-up's commits are not samples
	return l, nil
}

// tearDown detaches the subscriptions and, on the now quiescent engine,
// checks everything write_live promises: snapshots equal fresh executions,
// no delta overran its bound, both view extents are what their definitions
// give, and the view-served queries agree with the base plan and the
// oracle.
func (l *liveRig) tearDown(e *env, out *outcome) viewService {
	l.wr.close()
	out.check(l.wr.verify(e.ctx))
	out.check(viewsIntact(l.rig))
	vs, n, failures := viewServing(e, l.rig)
	out.check(n, failures)
	return vs
}

// viewService is what serving Q6 and Q7 through the views cost.
type viewService struct {
	q7BaseReads, q7ViewReads int64
	q6Answered, q6Attempted  int
}

// viewServing runs Q7 for a sample of persons through the engine's view
// plan and through the base plan of a second, view-free engine on the same
// store, and Q6 (answerable only through VFol) against the oracle.
func viewServing(e *env, r *rig) (vs viewService, checked int, failures []error) {
	now := newOracle(r.st.CloneData())
	base := core.NewEngine(r.st)
	prep := func(eng *core.Engine, q int) *core.PreparedQuery {
		parsed, err := parseServing(queryPack[q].src)
		if err == nil {
			var p *core.PreparedQuery
			if p, err = eng.Prepare(parsed, query.NewVarSet("p")); err == nil {
				return p
			}
		}
		failures = append(failures, fmt.Errorf("prepare %s: %w", queryPack[q].name, err))
		return nil
	}
	q7View, q7Base, q6View := prep(r.eng, q7), prep(base, q7), prep(r.eng, q6)
	if len(failures) > 0 {
		return vs, 3, failures
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x0707))
	persons := append([]int64(nil), r.hot...)
	for len(persons) < scaled(400, e.smoke) {
		persons = append(persons, int64(rng.Intn(r.cfg.Persons)))
	}
	for _, p := range persons {
		op := readOp{q: q7, p: p}
		checked += 2
		view, err := q7View.Exec(e.ctx, op.bindings(), core.WithoutTrace())
		if err != nil {
			failures = append(failures, err)
			continue
		}
		plain, err := q7Base.Exec(e.ctx, op.bindings(), core.WithoutTrace())
		if err != nil {
			failures = append(failures, err)
			continue
		}
		vs.q7ViewReads += view.Cost.TupleReads
		vs.q7BaseReads += plain.Cost.TupleReads
		if !view.Tuples.Equal(plain.Tuples) || !view.Tuples.Equal(now.answers(op)) {
			failures = append(failures, fmt.Errorf("Q7 p=%d: view plan, base plan and oracle disagree", p))
		}
		op.q = q6
		vs.q6Attempted++
		ans, err := q6View.Exec(e.ctx, op.bindings(), core.WithoutTrace())
		switch {
		case err != nil:
			failures = append(failures, err)
		case ans.Cost.TupleReads > q6View.Plan().Bound.Reads:
			failures = append(failures, errOverBound(op, ans.Cost.TupleReads, q6View.Plan().Bound.Reads))
		case !ans.Tuples.Equal(now.answers(op)):
			failures = append(failures, errOracle(op, ans.Tuples, now.answers(op)))
		default:
			vs.q6Answered++
		}
	}
	return vs, checked, failures
}

// runWriteLive is the untraced run of write_live. The primary operation is
// the commit; the reads beside it are reported as side reads.
func runWriteLive(e *env) (*outcome, error) {
	out := newOutcome()
	sz := sizings["write_live"]

	// Scale: the same commits at |D| ≈ 30k, to set against the main
	// size's. The sizes are the ones sibench -flat compares; there is no
	// ≈ 600k instance, because materializing VNYC on one takes minutes.
	n := count(sz.closed, e.seconds, shareLiveSmall)
	l, err := liveSetUp(e, personsSmall, n, nil)
	if err != nil {
		return nil, fmt.Errorf("small: %w", err)
	}
	commits, reads, err := commitPhase(e, "small", l.rig, l.cm, l.rd, l.side, n, 1, nil)
	if err != nil {
		l.wr.close()
		return nil, fmt.Errorf("small: %w", err)
	}
	out.phase(reads)
	smallP50 := medianMicros(out.phase(commits).allLat())
	l.tearDown(e, out)
	l = nil // so the heap baseline of the next one does not hold this one

	// Set-up, once: it takes seconds (the views), so one reading is steady.
	n = count(sz.closed, e.seconds, 1-shareLiveSmall)
	t0 := time.Now()
	if l, err = liveSetUp(e, personsMain, n, nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer l.wr.close()
	out.set("setup_s", time.Since(t0).Seconds())

	commits, reads, err = commitPhase(e, "main", l.rig, l.cm, l.rd, l.side, n, segments, nil)
	if err != nil {
		return nil, err
	}
	out.phase(commits)
	out.phase(reads)
	out.set("scale_ratio", ratio(medianMicros(commits.allLat()), smallP50))
	out.setSummary("ops_per_s", commits.opsPerSecond())
	out.setSummary("p50_us", overSegments(commits.lats(), p50))
	out.setSummary("p99_us", overSegments(commits.lats(), p99))
	out.setSummary("ttfr_p50_us", overSegments(reads.ttfrs(), p50))
	out.setSummary("side_read_p50_us", overSegments(reads.lats(), p50))
	out.setSummary("side_read_ops_per_s", reads.opsPerSecond())
	out.set("delta_lag_p50_us", medianMicros(l.wr.lags(l.cm.startOf)))

	l.tearDown(e, out)
	// What the engine holds at the end of the run, after every commit: the
	// stream and the oracle are the harness's, not the engine's.
	size := l.st.Size()
	l.stream, l.oracle, l.side = nil, nil, nil
	out.set("heap_bytes_per_tuple", ratio(float64(int64(heapAfterGC())-l.heapBefore), float64(size)))
	return out, nil
}
