package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/index"
	"repro/internal/relation"
)

// The traced run of a workload: one instance whose engine sits on the
// tracedBackend, one client, a fifth of the main phase's ops, twice. Pass A
// has the tracer switched off and gives the latency tracing is compared
// with, the allocation and GC numbers, and the open phase. Pass B runs the
// same ops with it on: the backend records a span per store call, the
// harness one around every call it makes, and the per-layer numbers come
// from those. End-to-end metrics are never taken from here.

// runtimeDelta is what the Go runtime did between two points.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// into reports allocations per op (meaningful with a single goroutine at
// work) and the collector's activity.
func (d *runtimeDelta) into(out *outcome, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.set("plan.allocs_per_op", ratio(float64(after.Mallocs-d.before.Mallocs), float64(ops)))
	out.set("plan.bytes_per_op", ratio(float64(after.TotalAlloc-d.before.TotalAlloc), float64(ops)))
	out.set("rt.gc_cycles", float64(after.NumGC-d.before.NumGC))
	out.set("rt.gc_pause_total_ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
	out.set("rt.heap_peak_mb", float64(after.HeapSys)/(1<<20))
}

// spanMetrics derives the per-layer numbers every workload shares from the
// spans of the operations keep selects and the reads those operations
// counted.
func spanMetrics(out *outcome, all []span, keep func(op int64) bool, reads tally) {
	var spans []span
	var prepares []time.Duration // set-up's: they belong to no measured op
	remap := make(map[int32]int32, len(all))
	for i, s := range all {
		if s.name == spHandlerPrepare {
			prepares = append(prepares, s.dur())
		}
		if keep(s.op) {
			remap[int32(i)] = int32(len(spans))
			spans = append(spans, s)
		}
	}
	for i := range spans {
		if p, ok := remap[spans[i].parent]; ok {
			spans[i].parent = p
		} else {
			spans[i].parent = noSpan
		}
	}
	dur, self := byName(spans, false), byName(spans, true)
	sum := func(ds []time.Duration) (t float64) {
		for _, d := range ds {
			t += float64(d)
		}
		return t / float64(time.Microsecond)
	}
	ops := float64(len(dur[spOp]))
	storeCalls := len(dur[spFetch]) + len(dur[spMember]) + len(dur[spScan])
	storeBusy := sum(dur[spFetch]) + sum(dur[spMember]) + sum(dur[spScan])

	out.set("parser.parse_us", medianMicros(dur[spParse]))
	out.set("parser.share", ratio(sum(dur[spParse]), sum(dur[spOp])))
	out.set("core.exec_us", medianMicros(dur[spExec]))
	// Exec's only children are the store's spans, so its self time is the
	// plan interpreter's (and the cursor's) own.
	out.set("plan.self_us", medianMicros(self[spExec]))
	out.set("plan.self_share", ratio(sum(self[spExec]), sum(dur[spExec])))
	out.set("plan.us_per_read", ratio(sum(self[spExec]), float64(reads.reads)))
	out.set("store.fetch_us", medianMicros(dur[spFetch]))
	out.set("store.membership_us", medianMicros(dur[spMember]))
	out.set("store.calls_per_op", ratio(float64(storeCalls), ops))
	out.set("store.busy_share", ratio(storeBusy, sum(dur[spExec])+sum(dur[spCommit])))
	out.set("store.apply_us", medianMicros(dur[spApply]))
	out.set("store.apply_derived_us", medianMicros(dur[spApplyDerived]))
	out.set("store.reads_per_op", ratio(float64(reads.reads), float64(reads.ops)))
	out.set("store.reads_per_answer", ratio(float64(reads.reads), float64(reads.answers)))
	out.set("store.bound_use", ratio(float64(reads.reads), float64(reads.bound)))
	out.set("server.handler_us", medianMicros(dur[spHandler]))
	out.set("server.prepare_us", medianMicros(prepares))
	out.set("client.self_us", medianMicros(self[spClient]))
	out.set("gen.self_share", ratio(sum(self[spOp]), sum(dur[spOp])))
}

// selfSumCheck verifies the trace's own arithmetic: within every operation
// the self times must add up to the root span, within 1 %.
func selfSumCheck(all []span, keep func(op int64) bool) (checked int, failures []error) {
	self := selfTimes(all)
	sums := map[int64]time.Duration{}
	roots := map[int64]time.Duration{}
	rootOf := make([]int32, len(all))
	for i, s := range all {
		if s.parent == noSpan {
			rootOf[i] = int32(i)
		} else {
			rootOf[i] = rootOf[s.parent]
		}
		if all[rootOf[i]].name != spOp || !keep(s.op) {
			continue // set-up calls outside any operation, and the warm-up
		}
		sums[s.op] += self[i]
		if s.parent == noSpan {
			roots[s.op] += s.dur()
		}
	}
	bad := 0
	for op, root := range roots {
		if diff := float64(sums[op] - root); diff > 0.01*float64(root) || -diff > 0.01*float64(root) {
			bad++
		}
	}
	if bad > 0 {
		failures = append(failures, fmt.Errorf("%d of %d traced operations have self times that do not sum to their root span within 1%%", bad, len(roots)))
	}
	return 1, failures
}

// openMetrics reports an open phase: the p99 from due time over the whole
// phase, and how late the generator itself ran. It is one p99, not a
// median of segment p99s: what lifts an open loop's tail here is the
// collector's mark phase, which comes round a few times a second, so a
// segment either has one or does not.
func openMetrics(out *outcome, open phaseResult) {
	out.phase(open)
	out.set("open_p99_us", p99(micros(open.allLat())))
	out.set("gen.late_p99_us", p99(micros(open.allLate())))
}

// traceOverhead is the share of a traced operation's latency that tracing
// added: the same one client ran the same kind of ops both times.
func traceOverhead(untraced, traced phaseResult) float64 {
	mean := func(p phaseResult) float64 {
		var sum time.Duration
		for _, d := range p.allLat() {
			sum += d
		}
		return ratio(float64(sum), float64(len(p.allLat())))
	}
	return 1 - ratio(mean(untraced), mean(traced))
}

// runTraced is the traced run of a read workload.
func (w readWorkload) runTraced(e *env) (*outcome, error) {
	out := newOutcome()
	sz := sizings[w.name]
	n := count(sz.closed, e.seconds, shareMain) / traceShare
	nOpen := count(sz.open, e.seconds, shareOpen)

	// Set-up is traced too: its spans carry the numbers of operations that
	// are not measured, except the prepare calls', which have no others. The
	// instance has the workload's usual clients; the closed passes use one.
	tr := newTracer(40 * n)
	tr.on.Store(true)
	s, err := w.setUp(e, personsMain, sz.workers, 0, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Pass A: tracing off.
	tr.on.Store(false)
	rng := rand.New(rand.NewSource(e.seed))
	ops := w.ops(rng, n, s.rig)
	rt := startRuntimeDelta()
	plain, err := e.loop(1, 1, nil).closed("untraced", n, opsOver(e.ctx, s.rd, ops, e.ids(n)))
	if err != nil {
		return nil, err
	}
	rt.into(out, n)
	out.phase(plain)
	// Open: arrivals on a seeded schedule at the workload's fixed rate,
	// from the workload's usual number of senders.
	openOps := w.ops(rng, nOpen, s.rig)
	open, err := e.loop(sz.workers, 1, nil).open("open", schedule(rng, nOpen, sz.open), opsOver(e.ctx, s.rd, openOps, e.ids(nOpen)))
	if err != nil {
		return nil, err
	}
	openMetrics(out, open)

	// Pass B: tracing on, the same ops.
	tr.on.Store(true)
	untraced := sumTallies(s.rd.tallies())
	firstOp := e.ids(n)
	traced, err := e.loop(1, 1, nil).closed("traced", n, opsOver(e.ctx, s.rd, ops, firstOp))
	if err != nil {
		return nil, err
	}
	out.phase(traced)
	acct := sumTallies(s.rd.tallies()).minus(untraced)
	out.checksum = acct.sum
	before := s.eng.PlanCacheStats()

	if w.name == "adhoc_cold" {
		// Warm: a quarter as many variants as the cold phase has and half
		// what the plan cache holds, so after one pass every op hits.
		warm := newAdhocReader(s.rig, variantsWarm, s.oracle, tr)
		warmOps := genAdhocOps(rng, n, variantsWarm, s.cfg)
		firstWarm := e.ids(n)
		res, err := e.loop(1, 1, nil).closed("warm", n, opsOver(e.ctx, warm, warmOps, firstWarm))
		if err != nil {
			return nil, err
		}
		out.phase(res)
		after := s.eng.PlanCacheStats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		out.set("core.plan_cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
		var hit []time.Duration
		for _, sp := range tr.snapshot() {
			// skip the first pass, which fills the cache
			if sp.name == spPrepare && sp.op >= firstWarm+int64(variantsWarm) {
				hit = append(hit, sp.dur())
			}
		}
		out.set("core.prepare_hit_us", medianMicros(hit))
	}

	spans := tr.snapshot()
	spanMetrics(out, spans, func(op int64) bool { return op >= firstOp && op < firstOp+int64(n) }, acct)
	out.check(selfSumCheck(spans, func(op int64) bool { return op >= firstOp || -op-1 >= firstOp }))
	out.set("trace.overhead_share", traceOverhead(plain, traced))
	if w.name == "adhoc_cold" {
		var cold []time.Duration
		for _, sp := range spans {
			if sp.name == spPrepare && sp.op >= firstOp && sp.op < firstOp+int64(n) {
				cold = append(cold, sp.dur())
			}
		}
		out.set("core.prepare_cold_us", medianMicros(cold))
		out.set("core.plan_cache_evictions", float64(before.Evictions))
	}
	if s.wire != nil {
		if err := wireMetrics(e, out, s, spans, firstOp, acct); err != nil {
			return nil, err
		}
	}
	if w.name == "read_local" {
		microMetrics(out, s.rig, ops)
	}
	if _, err := writeTrace(w.name, spans); err != nil {
		return nil, err
	}
	return out, s.close()
}

// wireMetrics adds what only the serving tier shows.
func wireMetrics(e *env, out *outcome, s *served, spans []span, firstOp int64, acct tally) error {
	// The handler's span of operation id, less the in-process execution of
	// the same op on the same engine (the shadow, numbered -id-1): what the
	// serving tier itself cost — decode, admission, NDJSON, flushes.
	handler, shadow := perOp(spans, spHandler), perOp(spans, spExec)
	var own []time.Duration
	var ownSum, handlerSum time.Duration
	for id, h := range handler {
		if x, ok := shadow[-id-1]; ok && id >= firstOp {
			own = append(own, h-x)
			ownSum += h - x
			handlerSum += h
		}
	}
	// What the engine did for these ops is inside the handler, where the
	// harness cannot see it; the shadows show the same work in the open.
	sh := newOutcome()
	spanMetrics(sh, spans, func(op int64) bool { return op < 0 && -op-1 >= firstOp }, acct)
	for _, name := range []string{"core.exec_us", "plan.self_us", "plan.self_share", "plan.us_per_read", "store.busy_share"} {
		out.set(name, sh.metrics[name])
	}
	out.set("server.self_us", medianMicros(own))
	out.set("server.self_share", ratio(float64(ownSum), float64(handlerSum)))
	out.set("server.resp_bytes_per_op", ratio(float64(s.wire.respBytes.Load()), float64(s.wire.queries.Load())))
	out.set("client.conns_opened", float64(s.wire.conns.Load()))
	st, err := s.wire.clients[0].Status(e.ctx)
	if err != nil {
		return fmt.Errorf("statusz: %w", err)
	}
	var admitted, rejected, measured int64
	for _, t := range st.Tenants {
		admitted += t.Admitted
		rejected += t.RejectedBound + t.RejectedBudget + t.RejectedConcurrency
		measured += t.MeasuredReads
	}
	out.set("server.admit_reject_share", ratio(float64(rejected), float64(admitted+rejected)))
	// Admission reserved every op's bound and refunded what it did not
	// read. The tenants' ledgers cover the warm-up too, so the share is
	// taken over the measured ops' own reservations.
	out.set("server.refund_share", 1-ratio(float64(acct.reads), float64(acct.bound)))
	if measured < acct.reads {
		return fmt.Errorf("statusz ledger measured %d reads, the clients were told of %d", measured, acct.reads)
	}
	return nil
}

// microMetrics times direct calls into the layers below the store, on keys
// replayed from the op stream: an index lookup, a tuple-key encoding, and
// a TupleSet add + remove.
func microMetrics(out *outcome, r *rig, ops []readOp) {
	data := r.st.CloneData()
	ix, err := index.Build(data.Rel("friend"), []string{"id1"})
	if err != nil {
		return
	}
	const rounds = 200_000
	vals := make([][]relation.Value, len(ops))
	for i, op := range ops {
		vals[i] = []relation.Value{relation.Int(op.p)}
	}
	found := 0
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		ts, _ := ix.Lookup(vals[i%len(vals)])
		found += len(ts)
	}
	out.set("index.lookup_ns", float64(time.Since(t0))/rounds)

	tuples := data.Rel("visit").Tuples()
	var buf [128]byte
	keyed := 0
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		keyed += len(tuples[i%len(tuples)].AppendKey(buf[:0]))
	}
	out.set("relation.appendkey_ns", float64(time.Since(t0))/rounds)
	if found == 0 || keyed == 0 {
		out.errs = append(out.errs, fmt.Errorf("micro: nothing looked up"))
	}
}

// churnMetric times TupleSet.Add + Remove on the tuples a commit stream
// inserts.
func churnMetric(out *outcome, r *rig) {
	set := relation.NewTupleSet(0)
	set.AddAll(r.st.CloneData().Rel("friend").Tuples())
	var fresh []relation.Tuple
	for _, u := range r.stream {
		fresh = append(fresh, u.Ins["friend"]...)
	}
	if len(fresh) == 0 {
		return
	}
	const rounds = 200_000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		t := fresh[i%len(fresh)]
		if set.Add(t) {
			set.Remove(t)
		}
	}
	out.set("relation.tupleset_churn_ns", float64(time.Since(t0))/rounds)
}

// runWriteLiveTraced is the traced run of write_live: the committer alone
// (one client), first untraced, then on the traced backend.
func runWriteLiveTraced(e *env) (*outcome, error) {
	out := newOutcome()
	sz := sizings["write_live"]
	n := count(sz.closed, e.seconds, 1-shareLiveSmall) / traceShare
	nOpen := count(sz.open, e.seconds, shareOpen)
	rng := rand.New(rand.NewSource(e.seed))

	tr := newTracer(60 * n)
	l, err := liveSetUp(e, personsMain, 2*n+nOpen, tr)
	if err != nil {
		return nil, err
	}
	defer l.wr.close()

	// Pass A: tracing off.
	rt := startRuntimeDelta()
	plain, _, err := commitPhase(e, "untraced", l.rig, l.cm, nil, nil, n, 1, nil)
	if err != nil {
		return nil, err
	}
	rt.into(out, n)
	out.phase(plain)
	// Open: commits due on a seeded schedule at the fixed rate, with the
	// reader beside them as in the untraced run.
	open, reads, err := commitPhase(e, "open", l.rig, l.cm, l.rd, l.side, nOpen, 1, schedule(rng, nOpen, sz.open))
	if err != nil {
		return nil, err
	}
	openMetrics(out, open)
	out.phase(reads)

	// Pass B: tracing on, the next commits of the same stream.
	l.cm = newCommitter(l.eng, tr)
	tr.on.Store(true)
	firstOp := e.nextOp + 1
	traced, _, err := commitPhase(e, "traced", l.rig, l.cm, nil, nil, n, 1, nil)
	if err != nil {
		return nil, err
	}
	out.phase(traced)
	tr.on.Store(false) // the final checks read through the traced backend
	spans := tr.snapshot()
	vs := l.tearDown(e, out)

	var maintReads, viewReads int64
	var watchers, views int
	phase := map[string][]time.Duration{}
	for _, c := range l.cm.done {
		maintReads += c.maintReads
		viewReads += c.viewReads
		watchers += c.watchers
		views += c.views
		phase["validate"] = append(phase["validate"], c.phases.Validate)
		phase["maintain"] = append(phase["maintain"], c.phases.Maintain)
		phase["apply"] = append(phase["apply"], c.phases.Apply)
		phase["notify"] = append(phase["notify"], c.phases.Notify)
		phase["wait"] = append(phase["wait"], c.wait)
	}
	for name, ds := range phase {
		out.set("core.commit_"+name+"_us", medianMicros(ds))
	}
	commits := float64(len(l.cm.done))
	out.set("core.maint_reads_per_commit", ratio(float64(maintReads), commits))
	out.set("core.watchers_per_commit", ratio(float64(watchers), commits))
	out.set("views.reads_per_commit", ratio(float64(viewReads), commits))
	out.set("views.maintained_per_commit", ratio(float64(views), commits))
	l.wr.mu.Lock()
	out.set("core.delta_bound_use", ratio(float64(l.wr.reads), float64(l.wr.bounds)))
	out.set("core.delta_folded_share", ratio(float64(l.wr.folded), float64(l.wr.folded+l.wr.deltas)))
	l.wr.mu.Unlock()
	out.set("views.q7_read_saving", ratio(float64(vs.q7BaseReads), float64(vs.q7ViewReads)))
	out.set("views.rescued_ok_share", ratio(float64(vs.q6Answered), float64(vs.q6Attempted)))
	broken := 0
	for _, v := range l.eng.Views() {
		if v.Broken != "" {
			broken++
		}
	}
	out.set("views.broken", float64(broken))

	spanMetrics(out, spans, func(op int64) bool { return op >= firstOp },
		tally{ops: int64(len(l.cm.done)), reads: maintReads + viewReads})
	out.check(selfSumCheck(spans, func(op int64) bool { return op >= firstOp }))
	out.set("trace.overhead_share", traceOverhead(plain, traced))
	churnMetric(out, l.rig)
	_, err = writeTrace("write_live", spans)
	return out, err
}
