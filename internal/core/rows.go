package core

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// tupleSeq streams answer tuples. At most one non-nil error is yielded,
// as the final element; a tuple element always has a nil error.
type tupleSeq = iter.Seq2[relation.Tuple, error]

// Rows is a pull-based cursor over the answers of one evaluation, modeled
// on database/sql: call Next until it returns false, read each answer
// with Tuple, check Err afterwards, and Close when done (Close is
// idempotent and implied by exhausting or erroring the cursor).
//
// The plan behind a Rows executes lazily: store reads are performed — and
// TupleReads, the WithMaxReads budget and the witness trace are charged —
// only as answers are pulled. Stopping early (Close, WithLimit, First, a
// canceled context) stops the work; a full drain performs exactly the
// accesses PreparedQuery.Exec performs, with identical counters and
// answers.
//
// A Rows is not safe for concurrent use.
type Rows struct {
	head []string
	plan *Plan
	es   *store.ExecStats

	seq  tupleSeq // consumed once, via next or drain
	next func() (relation.Tuple, error, bool)
	stop func()

	cur    relation.Tuple
	err    error
	n      int
	limit  int
	closed bool

	// Telemetry (observe.go): obs is the engine snapshot captured at open
	// (nil when telemetry is off — then start is never read), qname the
	// query name for the event, start the open timestamp.
	obs   *engineObs
	qname string
	start time.Time
}

// ctxErr reports the cursor's cancellation state: checked on every pull,
// so cancellation terminates the stream even when the next answers are
// already buffered from the last store fetch.
func (r *Rows) ctxErr() error {
	if r.es == nil || r.es.Ctx == nil {
		return nil
	}
	if err := r.es.Ctx.Err(); err != nil {
		return fmt.Errorf("core: %w: %w", ErrCanceled, err)
	}
	return nil
}

// Next advances to the next answer, reporting whether one is available.
// It returns false once the cursor is exhausted, closed, errored,
// canceled, or has delivered WithLimit(n) answers — consult Err to
// distinguish exhaustion from failure. No store work happens between
// Next calls.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	// A satisfied limit is a clean stop even under an expired context:
	// the limit check precedes the cancellation check, as in forEach, so
	// Exec and the cursor protocol agree on the outcome.
	if r.limit > 0 && r.n >= r.limit {
		r.Close()
		return false
	}
	if err := r.ctxErr(); err != nil {
		r.err = err
		r.Close()
		return false
	}
	if r.next == nil {
		r.next, r.stop = iter.Pull2(r.seq)
	}
	t, err, ok := r.next()
	if !ok {
		r.Close()
		return false
	}
	if err != nil {
		r.err = err
		r.Close()
		return false
	}
	r.cur = t
	r.n++
	return true
}

// forEach is the shared direct-consumption fast path behind All and
// drain: when pulling has not started it ranges the underlying sequence
// without the Pull coroutine, applying the same per-pull cancellation
// check, limit enforcement and error bookkeeping as Next. fn returning
// false stops consumption. The cursor is closed when forEach returns;
// terminal errors land in r.err.
func (r *Rows) forEach(fn func(relation.Tuple) bool) {
	defer r.Close()
	if err := r.ctxErr(); err != nil {
		r.err = err
		return
	}
	for t, err := range r.seq {
		if err != nil {
			r.err = err
			return
		}
		r.cur = t
		r.n++
		if !fn(t) {
			return
		}
		if r.limit > 0 && r.n >= r.limit {
			return
		}
		if err := r.ctxErr(); err != nil {
			r.err = err
			return
		}
	}
}

// Tuple returns the current answer (over Head(), in head order). Valid
// after a Next call that returned true, until the next Next call.
func (r *Rows) Tuple() relation.Tuple { return r.cur }

// Err returns the error that terminated iteration, if any: the typed
// taxonomy (ErrBudgetExceeded, ErrCanceled, ErrUnboundHead) survives
// mid-stream and is errors.Is-able. Err is nil after plain exhaustion, a
// hit limit, or Close.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor: the suspended plan is abandoned and no
// further reads are charged. Close is idempotent, implied by exhausting
// the cursor, and always safe to defer.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.stop != nil {
		r.stop()
	}
	if r.obs != nil {
		ev := QueryEvent{
			Query:     r.qname,
			RequestID: r.es.RequestID,
			Wall:      time.Since(r.start),
			Cost:      r.es.Counters,
			Answers:   r.n,
			Views:     r.plan.Views,
			Rescued:   r.plan.Rescued,
			Err:       r.err,
		}
		r.obs.observeQuery(ev)
	}
	return nil
}

// All returns a Go range-over-func iterator draining the remaining
// answers:
//
//	for t, err := range rows.All() {
//	    if err != nil { ... }
//	    use(t)
//	}
//
// A terminal error is yielded as the final element. The cursor is closed
// when the loop finishes, breaks, or errors.
func (r *Rows) All() iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		if r.next == nil && !r.closed && r.err == nil {
			// Iteration has not started: consume directly, skipping the
			// Pull coroutine (same fast path as drain).
			stopped := false
			r.forEach(func(t relation.Tuple) bool {
				if !yield(t, nil) {
					stopped = true
					return false
				}
				return true
			})
			if !stopped && r.err != nil {
				yield(nil, r.err)
			}
			return
		}
		defer r.Close()
		for r.Next() {
			if !yield(r.cur, nil) {
				return
			}
		}
		if r.err != nil {
			yield(nil, r.err)
		}
	}
}

// Head returns the answer attributes: the head variables not fixed by the
// caller, in head order.
func (r *Rows) Head() []string { return r.head }

// Plan returns the bounded plan the cursor executes; never nil.
func (r *Rows) Plan() *Plan { return r.plan }

// Explain renders the physical operator plan behind the cursor.
func (r *Rows) Explain() string { return r.plan.Explain() }

// Analyze renders the EXPLAIN ANALYZE view of the cursor: the physical
// plan annotated per operator with the static bound next to the measured
// rows produced, tuple reads charged, wall time and scatter branches, plus
// actual totals against the plan bound. Valid on a cursor opened with
// WithAnalyze; meaningful after consumption (the counters grow as the
// cursor is pulled, like Cost).
func (r *Rows) Analyze() string {
	if r.es.Ops == nil {
		return "analyze: cursor was not opened with WithAnalyze\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "physical plan (%s, optimizer %s)\n", r.plan.Bound, r.plan.Mode)
	fmt.Fprintf(&b, "order: %s\n", strings.Join(plan.AtomOrder(r.plan.Root), ", "))
	b.WriteString(plan.ExplainAnalyze(r.plan.Root, r.es.Ops))
	fmt.Fprintf(&b, "actual: answers=%d %s (bound reads=%d)\n", r.n, r.es.Counters.String(), r.plan.Bound.Reads)
	return b.String()
}

// OpCharges returns the per-operator record accumulated so far —
// charges, scatter branches, rows and wall time, indexed by pre-order
// operator ID — nil unless the cursor was opened with WithAnalyze. The
// sum of the per-operator counters equals Cost() bit-identically — every
// charge is attributed to exactly one operator.
func (r *Rows) OpCharges() []store.OpCharge { return r.es.Ops }

// Cost returns the work charged to this cursor so far. It grows as the
// cursor is pulled; after exhaustion it equals the cost Exec would have
// reported.
func (r *Rows) Cost() store.Counters { return r.es.Counters }

// DQ returns the witness trace accumulated so far (nil under
// WithoutTrace). Like Cost, it grows with consumption: after a full drain
// it is exactly the witness set D_Q of the equivalent Exec call.
func (r *Rows) DQ() *store.Trace { return r.es.Trace }

// drain consumes the whole (remaining) cursor into an Answer — the bridge
// that keeps Exec and AnswerContext bit-identical to the streaming path.
// It consumes the underlying sequence directly when pulling has not
// started, avoiding the Pull coroutine on the hot path.
func (r *Rows) drain() (*Answer, error) {
	out := relation.NewTupleSet(0)
	if r.next == nil && !r.closed && r.err == nil {
		r.forEach(func(t relation.Tuple) bool {
			out.Add(t)
			return true
		})
	} else {
		for r.Next() {
			out.Add(r.cur)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Answer{
		Tuples:        out,
		RemainingHead: r.head,
		Plan:          r.plan,
		Cost:          r.es.Counters,
		DQ:            r.es.Trace,
	}, nil
}

// projectSeq maps a binding stream to the deduplicated answer-tuple
// stream over head: the streaming equivalent of building Answer.Tuples.
// A head variable missing from a binding fails with ErrUnboundHead.
func projectSeq(bs plan.Seq, head []string, qname string) tupleSeq {
	return func(yield func(relation.Tuple, error) bool) {
		seen := make(map[string]bool)
		for b, err := range bs {
			if err != nil {
				yield(nil, err)
				return
			}
			t := make(relation.Tuple, len(head))
			ok := true
			for i, h := range head {
				v, bound := b[h]
				if !bound {
					ok = false
					break
				}
				t[i] = v
			}
			if !ok {
				yield(nil, fmt.Errorf("core: %w: binding {%s} for head of %s", ErrUnboundHead, varsSorted(b), qname))
				return
			}
			k := t.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if !yield(t, nil) {
				return
			}
		}
	}
}

// Query opens a cursor over the prepared plan's answers under ctx with
// values for the controlling set: the streaming counterpart of Exec.
// Store reads begin at the first Next call; errors during evaluation
// surface through Rows.Err with the usual typed taxonomy.
func (p *PreparedQuery) Query(ctx context.Context, fixed query.Bindings, opts ...ExecOption) (*Rows, error) {
	var o execOpts
	for _, f := range opts {
		f(&o)
	}
	return p.query(ctx, fixed, o)
}

// query builds the cursor shared by Query (handed to the caller) and exec
// (drained into an Answer).
func (p *PreparedQuery) query(ctx context.Context, fixed query.Bindings, o execOpts) (*Rows, error) {
	if missing := p.d.Ctrl.Minus(fixed.Vars()); !missing.IsEmpty() {
		return nil, fmt.Errorf("core: %w: exec needs values for controlling variables %s", ErrInvalidQuery, missing)
	}
	es := &store.ExecStats{MaxReads: o.maxReads, Ctx: ctx, RequestID: o.requestID}
	if !o.noTrace {
		es.Trace = store.NewTrace()
	}
	if o.analyze {
		es.Ops = make([]store.OpCharge, p.plan.NumOps)
	}
	rt := plan.BackendRuntime{Ctx: ctx, B: p.eng.DB, Es: es}
	head := remainingHead(p.q.Head, fixed)
	r := &Rows{
		head:  head,
		plan:  p.plan,
		es:    es,
		seq:   projectSeq(p.plan.Root.Stream(rt, fixed), head, p.q.Name),
		limit: o.limit, // <= 0: unlimited
		qname: p.q.Name,
	}
	if obs := p.eng.telemetry(); obs != nil {
		r.obs = obs
		r.start = time.Now()
	}
	return r, nil
}

// First executes the prepared plan until the first answer and stops —
// reads for further answers are never charged. It fails with ErrNoRows
// when the answer set is empty.
func (p *PreparedQuery) First(ctx context.Context, fixed query.Bindings, opts ...ExecOption) (relation.Tuple, error) {
	var o execOpts
	for _, f := range opts {
		f(&o)
	}
	o.limit = 1
	rows, err := p.query(ctx, fixed, o)
	if err != nil {
		return nil, err
	}
	return firstRow(rows, p.q.Name)
}

// QueryContext opens an answer cursor for q with fixed values for a
// controlling set, preparing (or reusing the cached plan for)
// fixed.Vars() first. A query that is not controllable for fixed.Vars()
// (and that no view rescues) fails with ErrNotControllable.
func (e *Engine) QueryContext(ctx context.Context, q *query.Query, fixed query.Bindings, opts ...ExecOption) (*Rows, error) {
	p, err := e.Prepare(q, fixed.Vars())
	if err != nil {
		return nil, err
	}
	return p.Query(ctx, fixed, opts...)
}

// First answers q with fixed values for a controlling set and returns
// only the first answer tuple, charging only the reads needed to produce
// it. It fails with ErrNoRows when the answer set is empty.
func (e *Engine) First(ctx context.Context, q *query.Query, fixed query.Bindings, opts ...ExecOption) (relation.Tuple, error) {
	rows, err := e.QueryContext(ctx, q, fixed, append(opts, WithLimit(1))...)
	if err != nil {
		return nil, err
	}
	return firstRow(rows, q.Name)
}

// firstRow pulls one answer and closes the cursor.
func firstRow(rows *Rows, qname string) (relation.Tuple, error) {
	defer rows.Close()
	if rows.Next() {
		return rows.Tuple(), nil
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("core: %s: %w", qname, ErrNoRows)
}
