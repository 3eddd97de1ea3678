package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server/client"
)

// tally is one load generator's running account of what its reads
// returned. One per goroutine (padded apart), summed after a phase.
type tally struct {
	ops, reads, answers, bound int64
	// sum folds (op number, answers, reads) of every op into an
	// order-independent checksum: two runs of one seed must agree on it.
	sum uint64
	_   [3]uint64
}

func (t *tally) add(id int64, answers int, reads, bound int64) {
	t.ops++
	t.reads += reads
	t.answers += int64(answers)
	t.bound += bound
	t.sum += (uint64(id) + 1) * (uint64(answers)*1_000_003 + uint64(reads) + 1)
}

func sumTallies(ts []tally) (out tally) {
	for i := range ts {
		out.ops += ts[i].ops
		out.reads += ts[i].reads
		out.answers += ts[i].answers
		out.bound += ts[i].bound
		out.sum += ts[i].sum
	}
	return out
}

// reader executes one generated read as operation number id (the number
// in its request id) on behalf of load generator `worker`, checks it, and
// reports its latency and time to first row. Every op is checked against
// its plan's static bound; when check is non-nil, one op in oracleEvery is
// also compared with the oracle.
type reader interface {
	read(ctx context.Context, worker int, id int64, op readOp) (lat, ttfr time.Duration, err error)
	tallies() []tally
	// unchecked returns the same reader for one load generator, with its
	// own account and without the oracle: for reads that run beside
	// commits, where the data moves under them.
	unchecked() reader
}

// opsOver adapts a reader and an op stream to an opFunc. Op i of the
// stream is operation base+i of the run.
func opsOver(ctx context.Context, rd reader, ops []readOp, base int64) opFunc {
	return func(worker, i int) (time.Duration, time.Duration, error) {
		return rd.read(ctx, worker, base+int64(i), ops[i])
	}
}

func sampled(check *oracle, id int64) bool { return check != nil && id%oracleEvery == 0 }

func errOverBound(op readOp, reads, bound int64) error {
	return fmt.Errorf("%s p=%d: %d tuple reads exceed the plan's static bound %d", queryPack[op.q].name, op.p, reads, bound)
}

func errOracle(op readOp, got, want *relation.TupleSet) error {
	return fmt.Errorf("%s p=%d yy=%d: %d answers disagree with the oracle's %d", queryPack[op.q].name, op.p, op.yy, got.Len(), want.Len())
}

// localReader calls prepared queries in process: PreparedQuery.Query and a
// drain of the cursor.
type localReader struct {
	preps [numQueries]*core.PreparedQuery
	check *oracle
	tr    *tracer
	acct  []tally
}

func newLocalReader(r *rig, m mix, workers int, check *oracle, tr *tracer) (*localReader, error) {
	preps, err := r.prepareAll(m)
	if err != nil {
		return nil, err
	}
	return &localReader{preps: preps, check: check, tr: tr, acct: make([]tally, workers)}, nil
}

func (r *localReader) tallies() []tally { return r.acct }

func (r *localReader) unchecked() reader {
	u := *r
	u.check, u.acct = nil, make([]tally, 1)
	return &u
}

func (r *localReader) read(ctx context.Context, worker int, id int64, op readOp) (lat, ttfr time.Duration, err error) {
	prep := r.preps[op.q]
	var got *relation.TupleSet
	if sampled(r.check, id) {
		got = relation.NewTupleSet(0)
	}
	root := r.tr.beginOp(id)
	defer r.tr.end(root)
	sp := r.tr.begin(spExec)
	start := time.Now()
	rows, err := prep.Query(ctx, op.bindings(), core.WithoutTrace())
	if err != nil {
		r.tr.end(sp)
		return 0, 0, err
	}
	n := 0
	for t, err := range rows.All() {
		if err != nil {
			r.tr.end(sp)
			return 0, 0, err
		}
		if n == 0 {
			ttfr = time.Since(start)
		}
		n++
		if got != nil {
			got.Add(t.Clone())
		}
	}
	lat = time.Since(start)
	r.tr.end(sp)
	if n == 0 {
		ttfr = lat
	}
	reads, bound := rows.Cost().TupleReads, prep.Plan().Bound.Reads
	if reads > bound {
		return 0, 0, errOverBound(op, reads, bound)
	}
	if got != nil {
		if want := r.check.answers(op); !got.Equal(want) {
			return 0, 0, errOracle(op, got, want)
		}
	}
	r.acct[worker].add(id, n, reads, bound)
	return lat, ttfr, nil
}

// adhocReader takes query text: each op parses it and asks the engine for
// the first row, paying analysis and optimisation whenever the plan cache
// does not hold the query.
type adhocReader struct {
	eng   *core.Engine
	texts []string // by variant
	check *oracle
	tr    *tracer
	acct  []tally
}

func newAdhocReader(r *rig, variants int, check *oracle, tr *tracer) *adhocReader {
	texts := make([]string, variants)
	for v := range texts {
		texts[v] = variantText(uint8(v%numQueries), uint16(v))
	}
	return &adhocReader{eng: r.eng, texts: texts, check: check, tr: tr, acct: make([]tally, 1)}
}

func (r *adhocReader) tallies() []tally { return r.acct }

func (r *adhocReader) unchecked() reader {
	u := *r
	u.check, u.acct = nil, make([]tally, 1)
	return &u
}

func (r *adhocReader) read(ctx context.Context, worker int, id int64, op readOp) (lat, ttfr time.Duration, err error) {
	root := r.tr.beginOp(id)
	defer r.tr.end(root)
	start := time.Now()
	sp := r.tr.begin(spParse)
	q, err := parseServing(r.texts[op.variant])
	r.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	fixed := op.bindings()
	var rows *core.Rows
	execSpan := noSpan
	if !r.tr.enabled() {
		rows, err = r.eng.QueryContext(ctx, q, fixed, core.WithLimit(1), core.WithoutTrace())
	} else {
		// The same two steps QueryContext takes, apart so each gets a span.
		sp = r.tr.begin(spPrepare)
		prep, perr := r.eng.Prepare(q, fixed.Vars())
		r.tr.end(sp)
		if perr != nil {
			return 0, 0, perr
		}
		execSpan = r.tr.begin(spExec)
		rows, err = prep.Query(ctx, fixed, core.WithLimit(1), core.WithoutTrace())
	}
	if err != nil {
		r.tr.end(execSpan)
		return 0, 0, err
	}
	var first relation.Tuple
	n := 0
	if rows.Next() {
		n, first = 1, rows.Tuple().Clone()
	}
	ttfr = time.Since(start)
	rows.Close()
	lat = time.Since(start)
	r.tr.end(execSpan)
	if err := rows.Err(); err != nil {
		return 0, 0, err
	}
	reads, bound := rows.Cost().TupleReads, rows.Plan().Bound.Reads
	if reads > bound {
		return 0, 0, errOverBound(op, reads, bound)
	}
	if sampled(r.check, id) {
		// LIMIT 1: the row must be one of the answers, and there must be
		// one exactly when there are answers.
		want := r.check.answers(op)
		if (n == 0) != (want.Len() == 0) || (n == 1 && !want.Contains(first)) {
			got := relation.NewTupleSet(n)
			if n == 1 {
				got.Add(first)
			}
			return 0, 0, errOracle(op, got, want)
		}
	}
	r.acct[worker].add(id, n, reads, bound)
	return lat, ttfr, nil
}

// wireReader goes through the serving tier: one client (own tenant, own
// connection) per load generator, prepared handles, NDJSON streams.
type wireReader struct {
	handles [][numQueries]*client.Prepared // by worker
	check   *oracle
	tr      *tracer
	// local, while tracing, executes every op a second time in process on
	// the same engine, outside the op's root span: the handler's span minus
	// this is what the serving tier itself cost.
	local *localReader
	acct  []tally
}

func (r *wireReader) tallies() []tally { return r.acct }

func (r *wireReader) unchecked() reader {
	u := *r
	u.check, u.acct = nil, make([]tally, 1)
	return &u
}

func requestID(id int64) string { return "r" + strconv.FormatInt(id, 10) }

func (r *wireReader) read(ctx context.Context, worker int, id int64, op readOp) (lat, ttfr time.Duration, err error) {
	lat, ttfr, err = r.readWire(ctx, worker, id, op)
	if err == nil && r.tr.enabled() {
		_, _, err = r.local.read(ctx, 0, -id-1, op)
	}
	return lat, ttfr, err
}

func (r *wireReader) readWire(ctx context.Context, worker int, id int64, op readOp) (lat, ttfr time.Duration, err error) {
	prep := r.handles[worker][op.q]
	var got *relation.TupleSet
	if sampled(r.check, id) {
		got = relation.NewTupleSet(0)
	}
	root := r.tr.beginOp(id)
	defer r.tr.end(root)
	sp := r.tr.begin(spClient)
	defer r.tr.end(sp)
	start := time.Now()
	rows, err := prep.Query(ctx, op.bindings(), client.WithRequestID(requestID(id)))
	if err != nil {
		return 0, 0, err // includes admission rejections: a rejected op failed
	}
	n := 0
	for rows.Next() {
		if n == 0 {
			ttfr = time.Since(start)
		}
		n++
		if got != nil {
			got.Add(rows.Tuple())
		}
	}
	cerr := rows.Close()
	lat = time.Since(start)
	if n == 0 {
		ttfr = lat
	}
	if err := rows.Err(); err != nil {
		return 0, 0, err
	}
	if cerr != nil {
		return 0, 0, cerr
	}
	st := rows.Stats()
	if st.Reads > prep.BoundReads {
		return 0, 0, errOverBound(op, st.Reads, prep.BoundReads)
	}
	if int64(n) != st.Answers {
		return 0, 0, fmt.Errorf("%s p=%d: received %d rows, server counted %d", queryPack[op.q].name, op.p, n, st.Answers)
	}
	if got != nil {
		if want := r.check.answers(op); !got.Equal(want) {
			return 0, 0, errOracle(op, got, want)
		}
	}
	r.acct[worker].add(id, n, st.Reads, st.Bound)
	return lat, ttfr, nil
}

// minus is the account of the ops made since o was taken.
func (t tally) minus(o tally) tally {
	return tally{ops: t.ops - o.ops, reads: t.reads - o.reads, answers: t.answers - o.answers, bound: t.bound - o.bound, sum: t.sum - o.sum}
}
