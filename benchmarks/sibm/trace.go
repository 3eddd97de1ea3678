package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/store"
)

// Span names, one per layer boundary the harness can see from outside.
const (
	spOp             = "op"             // root: one benchmark operation
	spParse          = "parser.parse"   // parser.Parse*
	spPrepare        = "core.prepare"   // Engine.Prepare
	spExec           = "core.exec"      // PreparedQuery.Query + drain
	spCommit         = "core.commit"    // Engine.Commit
	spFetch          = "store.fetch"    // Backend.FetchInto
	spMember         = "store.member"   // Backend.MembershipInto
	spScan           = "store.scan"     // Backend.ScanInto
	spApply          = "store.apply"    // Versioned.ApplyVersioned
	spApplyDerived   = "store.derived"  // DDL.ApplyDerived
	spClient         = "client.call"    // client Prepare/Query + drain
	spHandler        = "server.handler" // the server's http.Handler, POST /query
	spHandlerPrepare = "server.prepare" // the same, POST /prepare
)

const (
	noSpan = int32(-1)
	// traceOutDir is relative to the checkout root, where run.sh starts
	// the binary; .gitignore names it.
	traceOutDir = "benchmarks/out"
	// traceFileSpans caps the trace file (the first ops of a run show the
	// span structure; the metrics use every span, in memory).
	traceFileSpans = 50_000
)

// span is one timed call into a layer. Spans of one benchmark operation
// share Op (the number in its X-SI-Request-ID); Parent is the span that
// was open when this one began.
type span struct {
	name       string
	op         int64
	parent     int32
	start, end time.Duration // since tracer.t0
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory. A traced run has exactly one operation in
// flight at a time (one client; the server handler and the store run on
// its behalf, one after the other), so "the span that caused this one" is
// simply the innermost span still open. A nil tracer records nothing, which
// is how untraced runs share the traced runs' code; one that is off records
// nothing either, which is how a traced run measures what tracing costs on
// the instance it traces.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span // guarded by mu
	cur   int32  // guarded by mu: innermost open span
	op    int64  // guarded by mu: current operation
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), cur: noSpan}
}

// beginOp opens the root span of operation op.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) beginOp(op int64) int32 {
	if !t.enabled() {
		return noSpan
	}
	t.mu.Lock()
	t.op = op
	t.cur = noSpan // a root: whatever the last operation left open is not its cause
	t.mu.Unlock()
	return t.begin(spOp)
}

func (t *tracer) begin(name string) int32 {
	if !t.enabled() {
		return noSpan
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: t.cur, start: time.Since(t.t0)})
	t.cur = id
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	if t.cur == id {
		t.cur = t.spans[id].parent
	}
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover.
//
// A span is counted only as far as it lies inside its parent: the server's
// handler can outlast the client call that caused it by the few
// microseconds the client needs to see the last line, and that tail is on
// nobody's critical path. With that, the self times of an operation's
// spans add up to its root span exactly.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	lo, hi := make([]time.Duration, len(spans)), make([]time.Duration, len(spans))
	for i, s := range spans { // a parent always precedes its children
		lo[i], hi[i] = s.start, s.end
		if s.parent != noSpan {
			lo[i], hi[i] = max(lo[i], lo[s.parent]), min(hi[i], hi[s.parent])
		}
		if hi[i] <= lo[i] {
			hi[i] = lo[i]
			continue
		}
		self[i] += hi[i] - lo[i]
		if s.parent != noSpan {
			self[s.parent] -= hi[i] - lo[i]
		}
	}
	return self
}

// byName groups span durations (self == false) or self times (self ==
// true) by span name.
func byName(spans []span, self bool) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	var selfs []time.Duration
	if self {
		selfs = selfTimes(spans)
	}
	for i, s := range spans {
		d := s.dur()
		if self {
			d = selfs[i]
		}
		out[s.name] = append(out[s.name], d)
	}
	return out
}

// perOp sums durations of the spans named name within each operation.
func perOp(spans []span, name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	for _, s := range spans {
		if s.name == name {
			out[s.op] += s.dur()
		}
	}
	return out
}

// writeTrace writes the first traceFileSpans spans as JSON; the metrics
// are computed from all of them, in memory.
func writeTrace(workload string, spans []span) (string, error) {
	if err := os.MkdirAll(traceOutDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceOutDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	n := min(len(spans), traceFileSpans)
	fmt.Fprintf(w, "{\"workload\":%q,\"total_spans\":%d,\"written_spans\":%d,\"spans\":[\n", workload, len(spans), n)
	for i, s := range spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			i, s.name, s.op, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds(), sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedBackend records a span around every read and write the engine
// issues to the store. It embeds the concrete backend, so the optional
// interfaces the engine and planner probe for (Validator, Versioned, DDL,
// EntryStats) stay promoted and plans do not change; trace_test.go pins
// that.
type tracedBackend struct {
	*store.DB
	tr *tracer
}

func (b tracedBackend) FetchInto(es *store.ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	id := b.tr.begin(spFetch)
	defer b.tr.end(id)
	return b.DB.FetchInto(es, e, vals)
}

func (b tracedBackend) MembershipInto(es *store.ExecStats, rel string, t relation.Tuple) (bool, error) {
	id := b.tr.begin(spMember)
	defer b.tr.end(id)
	return b.DB.MembershipInto(es, rel, t)
}

func (b tracedBackend) ScanInto(es *store.ExecStats, rel string) ([]relation.Tuple, error) {
	id := b.tr.begin(spScan)
	defer b.tr.end(id)
	return b.DB.ScanInto(es, rel)
}

func (b tracedBackend) ApplyVersioned(u *relation.Update) (int64, error) {
	id := b.tr.begin(spApply)
	defer b.tr.end(id)
	return b.DB.ApplyVersioned(u)
}

func (b tracedBackend) ApplyDerived(u *relation.Update) error {
	id := b.tr.begin(spApplyDerived)
	defer b.tr.end(id)
	return b.DB.ApplyDerived(u)
}
