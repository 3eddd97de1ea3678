// Package store combines a database instance, an access schema and the
// physical indices that realize it, and — crucially for this reproduction —
// *accounts for every base tuple that query processing touches*.
//
// The paper's definition of scale independence is about the number of
// tuples fetched from D (at most M, independent of |D|). Rather than assert
// those bounds, every experiment in this repository measures them through
// the counters and traces maintained here.
//
// Instrumentation is per call: each evaluation passes its own *ExecStats
// down the read path (FetchInto, MembershipInto, ScanInto) and gets back
// its own counters and witness trace, so a single DB can serve concurrent
// evaluations without cross-talk. The DB guards the data and indices with
// an RWMutex: reads run concurrently, writes (ApplyVersioned,
// ApplyDerived, relation DDL) and EnsureIndex are exclusive.
package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/index"
	"repro/internal/relation"
)

// ErrBudgetExceeded is returned (wrapped) when an evaluation's tuple reads
// exceed the budget set in its ExecStats. It is the runtime teeth of the
// static bound: a plan whose static Reads bound is respected never trips
// it.
var ErrBudgetExceeded = errors.New("read budget exceeded")

// ErrCanceled is returned (wrapped) when an evaluation's context is
// canceled or past its deadline. Errors wrapping it also wrap the
// underlying ctx.Err().
var ErrCanceled = errors.New("evaluation canceled")

// ErrUnknownRelation is returned (wrapped) by a read, write or DDL call
// that names a relation the backend does not hold — among them the
// fetches of a plan still running after DropView removed the view it
// reads.
var ErrUnknownRelation = errors.New("unknown relation")

// Counters accumulate the work performed against the store. JSON tags
// are snake_case: Counters nest inside JSON-marshaled observability
// structs (core.CommitResult, status snapshots), which use snake_case
// keys throughout.
type Counters struct {
	TupleReads   int64 `json:"tuple_reads"`   // base/projected tuples materialized by fetches and scans
	IndexLookups int64 `json:"index_lookups"` // number of indexed retrievals
	Scans        int64 `json:"scans"`         // number of full relation scans
	Memberships  int64 `json:"memberships"`   // number of membership probes
	TimeUnits    int64 `json:"time_units"`    // sum of access-schema T costs incurred
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.TupleReads += o.TupleReads
	c.IndexLookups += o.IndexLookups
	c.Scans += o.Scans
	c.Memberships += o.Memberships
	c.TimeUnits += o.TimeUnits
}

// String summarizes the counters.
func (c Counters) String() string {
	return fmt.Sprintf("reads=%d lookups=%d scans=%d member=%d time=%d",
		c.TupleReads, c.IndexLookups, c.Scans, c.Memberships, c.TimeUnits)
}

// ExecStats is the per-call execution context threaded through the read
// path: one evaluation's own counters, its optional witness trace and
// per-operator record, and an optional runtime read budget. It is the
// only record of what a call did. A nil *ExecStats is valid everywhere
// and means "uncounted".
//
// An ExecStats must not be shared between concurrent evaluations; each
// call gets a fresh one.
type ExecStats struct {
	// Counters is the work charged to this call.
	Counters Counters
	// Trace, when non-nil, records the distinct base tuples touched: the
	// witness set D_Q. Leave nil to skip witness bookkeeping on hot paths.
	Trace *Trace
	// MaxReads, when positive, bounds Counters.TupleReads: the read that
	// crosses it fails with ErrBudgetExceeded. Zero or negative means
	// unlimited.
	MaxReads int64
	// Ctx, when non-nil, is checked on every charge (and periodically
	// inside large scans): a canceled or expired context fails the access
	// with ErrCanceled. This is what lets a deadline interrupt even a
	// single unbounded scan on the naive path.
	Ctx context.Context

	// Ops, when non-nil, is the per-operator record of the call — one slot
	// per operator id: every charge is attributed to the plan operator
	// current (CurOp) at the moment it happened, and the plan executor
	// adds each operator's rows and wall time. The executor allocates it
	// (length = operator count) when running under ANALYZE; nil skips
	// attribution entirely, so the hot path pays one nil check per charge.
	// Because ChargeTo is the single charging primitive for every backend,
	// the sum over Ops equals Counters bit-identically by construction.
	Ops []OpCharge
	// CurOp is the operator id charges are attributed to while Ops is
	// non-nil. The plan runtime pins it at each data access.
	CurOp int
	// RequestID tags the evaluation for slow-query log lines and traces;
	// the serving tier propagates it from the wire.
	RequestID string

	// exhausted marks a Fork child whose parent had no budget left: any
	// read at all fails. Internal so negative MaxReads keeps meaning
	// "unlimited" on the public field.
	exhausted bool
}

// OpCharge is one operator's record of one evaluation: while
// ExecStats.Ops is non-nil, every ChargeTo is additionally attributed to
// Ops[CurOp]. Forks counts the scatter-gather branches forked while the
// operator was current, one per branch, summed over the call — not the
// fan-out degree: six lookups over four shards count 24. EXPLAIN ANALYZE
// reports it as branches=.
// Rows and Wall are filled by the plan executor.
type OpCharge struct {
	Counters Counters
	Forks    int64
	// Rows counts the bindings the operator yielded to its consumer.
	Rows int64
	// Wall is the time spent inside the operator's cursor, inclusive of
	// its children, exclusive of the consumer's work between pulls.
	Wall time.Duration
}

// ctxErr reports the call's cancellation state.
func (es *ExecStats) ctxErr() error {
	if es == nil || es.Ctx == nil {
		return nil
	}
	if err := es.Ctx.Err(); err != nil {
		return fmt.Errorf("store: %w: %w", ErrCanceled, err)
	}
	return nil
}

// ChargeTo adds c to the per-call counters (a nil es is uncounted),
// enforcing the call's read budget and deadline. This is the one charging
// primitive every backend uses.
func (es *ExecStats) ChargeTo(c Counters) error {
	if es == nil {
		return nil
	}
	if err := es.ctxErr(); err != nil {
		return err
	}
	es.Counters.Add(c)
	if es.Ops != nil {
		if op := es.CurOp; op >= 0 && op < len(es.Ops) {
			es.Ops[op].Counters.Add(c)
		}
	}
	return es.checkBudget()
}

// checkBudget enforces MaxReads against the accumulated per-call reads.
// An exhausted fork child (the parent had no budget left) fails on any
// read at all.
func (es *ExecStats) checkBudget() error {
	if es.MaxReads > 0 && es.Counters.TupleReads > es.MaxReads {
		return fmt.Errorf("store: %w: %d tuple reads > %d allowed", ErrBudgetExceeded, es.Counters.TupleReads, es.MaxReads)
	}
	if es.exhausted && es.Counters.TupleReads > 0 {
		return fmt.Errorf("store: %w: %d tuple reads > 0 allowed", ErrBudgetExceeded, es.Counters.TupleReads)
	}
	return nil
}

// Fork returns per-call stats for one branch of a scatter-gather fan-out:
// it shares the parent's context, carries its own trace when the parent
// traces, and inherits the parent's remaining read budget. The per-call
// view is reassembled by Join. A nil parent forks to nil: an uncounted
// call has uncounted branches.
//
// Each branch gets the full remaining budget, so under parallel fan-out
// the first over-budget branch fails with ErrBudgetExceeded while sibling
// reads are bounded by (#branches × remaining); the merged total is
// re-checked by Join.
func (es *ExecStats) Fork() *ExecStats {
	if es == nil {
		return nil
	}
	child := &ExecStats{Ctx: es.Ctx, RequestID: es.RequestID}
	if es.Trace != nil {
		child.Trace = NewTrace()
	}
	if es.Ops != nil {
		// The branch keeps attributing to the operator that forked it; its
		// per-op charges are folded back elementwise by Join. The branch
		// itself is counted on the current operator.
		child.Ops = make([]OpCharge, len(es.Ops))
		child.CurOp = es.CurOp
		if op := es.CurOp; op >= 0 && op < len(es.Ops) {
			es.Ops[op].Forks++
		}
	}
	if es.MaxReads > 0 {
		rem := es.MaxReads - es.Counters.TupleReads
		if rem <= 0 {
			child.exhausted = true // any further read fails
		} else {
			child.MaxReads = rem
		}
	}
	return child
}

// Join merges a forked branch back into the parent: counters accumulate,
// traces union, and the merged total is checked against the parent's
// budget and deadline. Join calls must not race each other; gather
// branches first, then join sequentially.
func (es *ExecStats) Join(child *ExecStats) error {
	if es == nil || child == nil {
		return nil
	}
	es.Counters.Add(child.Counters)
	if es.Trace != nil && child.Trace != nil {
		es.Trace.Merge(child.Trace)
	}
	if es.Ops != nil && child.Ops != nil && len(child.Ops) == len(es.Ops) {
		for i := range child.Ops {
			es.Ops[i].Counters.Add(child.Ops[i].Counters)
			es.Ops[i].Forks += child.Ops[i].Forks
		}
	}
	if err := es.ctxErr(); err != nil {
		return err
	}
	return es.checkBudget()
}

// record notes a touched base tuple in the call's trace, if any.
func (es *ExecStats) record(rel string, t relation.Tuple) {
	if es == nil || es.Trace == nil {
		return
	}
	es.Trace.record(rel, t)
}

// RecordTouched notes a touched base tuple in the call's trace (nil-safe).
// For backends that assemble a logical access at merge level — fetching
// shard partials uncounted, then charging the union once — rather than
// through the DB read methods, which record automatically.
func (es *ExecStats) RecordTouched(rel string, t relation.Tuple) { es.record(rel, t) }

// Trace records the distinct base tuples touched by one evaluation; its
// contents are exactly the witness set D_Q ⊆ D of the paper.
type Trace struct {
	touched map[string]*relation.TupleSet
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{touched: make(map[string]*relation.TupleSet)} }

func (tr *Trace) record(rel string, t relation.Tuple) {
	s := tr.touched[rel]
	if s == nil {
		s = relation.NewTupleSet(4)
		tr.touched[rel] = s
	}
	s.Add(t)
}

// Distinct returns |D_Q|: the number of distinct base tuples touched.
func (tr *Trace) Distinct() int {
	n := 0
	for _, s := range tr.touched {
		n += s.Len()
	}
	return n
}

// Merge unions o into tr (o is left unchanged). Used by scatter-gather
// backends to reassemble one evaluation's witness set from per-shard
// traces.
func (tr *Trace) Merge(o *Trace) {
	if o == nil {
		return
	}
	for rel, s := range o.touched {
		for _, t := range s.Tuples() {
			tr.record(rel, t)
		}
	}
}

// PerRelation returns the distinct touched-tuple count per relation.
func (tr *Trace) PerRelation() map[string]int {
	out := make(map[string]int, len(tr.touched))
	for rel, s := range tr.touched {
		out[rel] = s.Len()
	}
	return out
}

// Database materializes the touched tuples as a database D_Q over schema.
// Relations never touched are empty. The touched sets are adopted by
// structure clone (no tuple is re-keyed): traces only hold tuples read
// from stored relations, so they fit the schema by construction.
func (tr *Trace) Database(schema *relation.Schema) *relation.Database {
	db := relation.NewDatabase(schema)
	for rel, s := range tr.touched {
		db.SeedFromSet(rel, s)
	}
	return db
}

// DB is an instrumented database: data + access schema + indices. A DB is
// safe for concurrent use: reads (FetchInto/MembershipInto/ScanInto) take
// a shared lock, writes and EnsureIndex an exclusive one.
type DB struct {
	mu   sync.RWMutex
	data *relation.Database // guarded by mu
	acc  *access.Schema

	// paths holds each relation's physical access paths, guarded by mu
	paths map[string]*relPaths

	// version is the commit-log sequence number of the last applied update,
	// guarded by mu (writes hold the exclusive lock).
	version int64
}

// Open wraps data with the given access schema, validating every entry and
// registering the access path each one needs (see relPaths). It does not
// check cardinality conformance; call Conforms for that.
//
// The store's access schema ranges over the data's own relational schema,
// so view DDL (AddRelation) declares relations in one schema, the one it
// owns. When acc ranges over another schema, the store works on a copy of
// acc over the data's, and DDL reaches neither the caller's access schema
// nor its relational schema.
func Open(data *relation.Database, acc *access.Schema) (*DB, error) {
	if acc.Relational() != data.Schema() {
		acc = acc.CloneOver(data.Schema())
	}
	db := &DB{
		data:  data,
		acc:   acc,
		paths: make(map[string]*relPaths),
	}
	for _, e := range acc.Entries() {
		if err := e.Validate(data.Schema()); err != nil {
			return nil, err
		}
		if err := db.ensureEntryIndex(e); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// MustOpen opens and panics on error.
func MustOpen(data *relation.Database, acc *access.Schema) *DB {
	db, err := Open(data, acc)
	if err != nil {
		panic(err)
	}
	return db
}

// Data returns the underlying database. Callers must not mutate it
// directly (use ApplyVersioned) or the indices will go stale, and — unlike
// the read methods — it is not synchronized: do not read through it
// concurrently with writes.
//
//sivet:ignore lockguard -- documented unsynchronized accessor for single-goroutine offline tooling
func (db *DB) Data() *relation.Database { return db.data }

// CloneData returns a consistent snapshot copy of the data, synchronized
// against concurrent writes. Uncounted: for conformance checks and
// offline tooling, not the query path.
func (db *DB) CloneData() *relation.Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.Clone()
}

// Access returns the access schema.
func (db *DB) Access() *access.Schema { return db.acc }

// Schema returns the relational schema.
//
//sivet:ignore lockguard -- db.data is assigned once in Open; the schema it reaches is immutable metadata
func (db *DB) Schema() *relation.Schema { return db.data.Schema() }

// Size returns |D|.
func (db *DB) Size() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.Size()
}

// MaxGroup reports the data statistics of an access entry: the size of
// the largest group currently served by e's index — an exact,
// data-dependent refinement of the entry's declared N. It never loosens anything: static
// read bounds always come from N.
func (db *DB) MaxGroup(e access.Entry) (int, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p := db.paths[e.Rel]
	if p == nil {
		return 0, false
	}
	if e.IsEmbedded() {
		if w := p.wideFor(e.On, e.Proj); w != nil {
			return w.ix.MaxBucket(), true
		}
		if pi := p.projFor(e.On, e.Proj); pi != nil {
			return pi.maxGroup(), true
		}
		return 0, false
	}
	if ix := p.plainFor(e.On); ix != nil {
		return ix.MaxBucket(), true
	}
	if p.isFullKey(e.On) {
		return min(db.data.Rel(e.Rel).Len(), 1), true
	}
	return 0, false
}

// Conforms checks cardinality conformance of the data to the access schema.
func (db *DB) Conforms() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.acc.Conforms(db.data)
}

// ensureEntryIndex registers the access path an entry needs. It does no
// locking: callers either run before the DB is shared (Open) or hold the
// exclusive lock (AddRelation).
//
//sivet:holds mu
func (db *DB) ensureEntryIndex(e access.Entry) error {
	if !e.IsEmbedded() {
		return db.ensurePlainIndex(e.Rel, e.On)
	}
	r := db.data.Rel(e.Rel)
	if r == nil {
		return fmt.Errorf("store: %w %q", ErrUnknownRelation, e.Rel)
	}
	p := db.pathsFor(e.Rel)
	if p.wideFor(e.On, e.Proj) != nil || p.projFor(e.On, e.Proj) != nil {
		return nil
	}
	rs := r.Schema()
	projPos, err := rs.Positions(e.Proj)
	if err != nil {
		return err
	}
	if len(e.Proj) == rs.Arity() {
		// Y lists every attribute (validation rules out repeats), so π_Y
		// is a permutation: injective, never deduplicating. A plain index
		// on X serves it, projecting on lookup.
		ix, err := db.plainIndex(r, e.On)
		if err != nil {
			return err
		}
		p.wide = append(p.wide, &wideIndex{proj: e.Proj, projPos: projPos, ix: ix})
		return nil
	}
	pi, err := newProjIndex(rs, e.On, e.Proj)
	if err != nil {
		return err
	}
	for _, t := range r.Tuples() {
		pi.add(t)
	}
	p.proj = append(p.proj, pi)
	return nil
}

// pathsFor returns rel's access paths, creating the empty set.
//
//sivet:holds mu
func (db *DB) pathsFor(rel string) *relPaths {
	p := db.paths[rel]
	if p == nil {
		p = &relPaths{}
		db.paths[rel] = p
	}
	return p
}

// ensurePlainIndex is EnsureIndex without the locking; see
// ensureEntryIndex for the callers' locking discipline. A key listing
// every attribute of rel in schema order — the implicit membership entry
// (R, attr(R), 1, 1) — gets no index: the relation's own tuple set
// answers it.
//
//sivet:holds mu
func (db *DB) ensurePlainIndex(rel string, attrs []string) error {
	r := db.data.Rel(rel)
	if r == nil {
		return fmt.Errorf("store: %w %q", ErrUnknownRelation, rel)
	}
	if rs := r.Schema(); slices.Equal(attrs, rs.Attrs) {
		db.pathsFor(rel).fullKey = rs.Attrs
		return nil
	}
	_, err := db.plainIndex(r, attrs)
	return err
}

// plainIndex builds (or reuses) the index.Index on attrs of r.
//
//sivet:holds mu
func (db *DB) plainIndex(r *relation.Relation, attrs []string) (*index.Index, error) {
	p := db.pathsFor(r.Name())
	if ix := p.plainFor(attrs); ix != nil {
		return ix, nil
	}
	ix, err := index.Build(r, attrs)
	if err != nil {
		return nil, err
	}
	p.plain = append(p.plain, ix)
	return ix, nil
}

// EnsureIndex builds (or reuses) a plain index on attrs of rel.
func (db *DB) EnsureIndex(rel string, attrs []string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ensurePlainIndex(rel, attrs)
}

// AddRelation implements Backend: it declares rs (idempotently against a
// relational schema another instance already extended — every shard of a
// sharded store shares one *Schema), creates the relation seeded with
// tuples, registers the access entries (idempotently, for the shared
// access schema), and builds their indexes plus the implicit-membership
// path — all under the exclusive lock, so
// concurrent readers see the relation appear atomically.
func (db *DB) AddRelation(rs relation.RelSchema, entries []access.Entry, tuples []relation.Tuple) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.data.AddRelation(rs); err != nil {
		return err
	}
	abort := func(err error) error {
		db.data.DropRelation(rs.Name)
		return err
	}
	for _, t := range tuples {
		if len(t) != rs.Arity() {
			return abort(fmt.Errorf("store: %s: seed tuple %v has arity %d", rs, t, len(t)))
		}
		if _, err := db.data.Insert(rs.Name, t); err != nil {
			return abort(err)
		}
	}
	for _, e := range entries {
		if e.Rel != rs.Name {
			return abort(fmt.Errorf("store: entry %s does not name new relation %q", e.String(), rs.Name))
		}
		if err := db.acc.AddIfAbsent(e); err != nil {
			return abort(err)
		}
		if err := db.ensureEntryIndex(e); err != nil {
			return abort(err)
		}
	}
	if db.acc.ImplicitMembership {
		if err := db.ensureEntryIndex(access.Plain(rs.Name, rs.Attrs, 1, 1)); err != nil {
			return abort(err)
		}
	}
	return nil
}

// DropRelation implements Backend: it removes the relation, its indexes,
// and its access entries. Idempotent, including against shared relational/access schemas another shard already pruned.
func (db *DB) DropRelation(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.paths, name)
	db.acc.RemoveRel(name)
	db.data.DropRelation(name)
	return nil
}

// HasRelation implements Backend: whether this store instance holds the
// named relation (instances may share a schema whose declarations outlive
// any one instance's relations).
func (db *DB) HasRelation(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.data.Rel(name) != nil
}

// ApplyDerived implements Backend: it validates and applies u, keeping
// indexes in sync, without advancing the commit log — derived (materialized-view) deltas ride the engine commit of the base
// ΔD that caused them and must not consume an LSN of their own.
func (db *DB) ApplyDerived(u *relation.Update) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := u.Validate(db.data); err != nil {
		return err
	}
	if err := db.data.Apply(u); err != nil {
		return err
	}
	db.syncIndexes(u)
	return nil
}

// FetchInto performs the indexed retrieval licensed by entry e with the
// given values for e.On, in order, charging the work to es. It returns:
//
//   - for a plain entry, the base tuples σ_X=ā(R);
//   - for an embedded entry, the projected tuples π_Y(σ_X=ā(R)) (over the
//     attributes e.Proj, in that order).
//
// FetchInto enforces the entry's cardinality bound: if the retrieved set
// exceeds e.N, the database does not conform to the access schema and an
// error is returned. It charges |result| tuple reads, one index lookup, and
// e.T time units; base tuples are recorded in es's trace.
func (db *DB) FetchInto(es *ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	if len(vals) != len(e.On) {
		return nil, fmt.Errorf("store: fetch %s with %d values, want %d", e.Rel, len(vals), len(e.On))
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out, err := db.fetch(e, vals)
	if err != nil {
		return nil, err
	}
	if len(out) > e.N {
		return nil, fmt.Errorf("store: %w: %s, group %v has %d > %d tuples",
			access.ErrViolation, e.String(), relation.Tuple(vals), len(out), e.N)
	}
	if err := es.ChargeTo(Counters{TupleReads: int64(len(out)), IndexLookups: 1, TimeUnits: int64(e.T)}); err != nil {
		return nil, err
	}
	// Embedded fetches do not touch identifiable base tuples (a covering
	// index serves them), so the trace is not charged; Prop 4.5 gives a
	// time bound, not a D_Q witness.
	if !e.IsEmbedded() {
		for _, t := range out {
			es.record(e.Rel, t)
		}
	}
	return out, nil
}

// FetchUncounted performs the retrieval licensed by entry e without
// charging any counters and without enforcing e's cardinality bound. It is
// a backend-building primitive, not a query-path method: a scatter-gather
// backend retrieving one logical group from several shards must merge (and
// for embedded entries deduplicate) the partial results before it knows
// the true cost and cardinality of the access, so it fetches raw and
// charges once at merge level. Everything user-facing goes through
// FetchInto.
func (db *DB) FetchUncounted(e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	if len(vals) != len(e.On) {
		return nil, fmt.Errorf("store: fetch %s with %d values, want %d", e.Rel, len(vals), len(e.On))
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.fetch(e, vals)
}

// fetch resolves e to its access path and returns the group for vals
// (len(vals) == len(e.On)) in a slice the caller owns. Resolution compares
// attribute lists against the relation's few registered paths, so it
// builds no name and allocates nothing.
//
//sivet:holds mu
func (db *DB) fetch(e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	if p := db.paths[e.Rel]; p != nil {
		if e.IsEmbedded() {
			if w := p.wideFor(e.On, e.Proj); w != nil {
				return w.lookup(vals), nil
			}
			if pi := p.projFor(e.On, e.Proj); pi != nil {
				return copyTuples(pi.lookup(vals)), nil
			}
		} else {
			if ix := p.plainFor(e.On); ix != nil {
				out, err := ix.Lookup(vals)
				return copyTuples(out), err
			}
			if p.isFullKey(e.On) {
				if t, ok := db.data.Rel(e.Rel).Find(relation.Tuple(vals)); ok {
					return []relation.Tuple{t}, nil
				}
				return nil, nil
			}
		}
	}
	if db.data.Rel(e.Rel) == nil {
		return nil, fmt.Errorf("store: %w %q", ErrUnknownRelation, e.Rel)
	}
	if e.IsEmbedded() {
		return nil, fmt.Errorf("store: no projected index for %s", e.String())
	}
	return nil, fmt.Errorf("store: no index for %s", e.String())
}

// copyTuples snapshots a result slice whose backing array belongs to a
// live index bucket or relation: returned slices must stay valid after
// the read lock is released, even if a concurrent write mutates the
// source in place (swap-remove moves tuples within the backing array, so
// the copy stays load-bearing under the O(1)-delete design). Tuples
// themselves are immutable, so a shallow copy suffices. It is the one
// allocation of a plain or embedded fetch; key probes and path resolution
// allocate nothing.
func copyTuples(ts []relation.Tuple) []relation.Tuple {
	if len(ts) == 0 {
		return nil
	}
	return append(make([]relation.Tuple, 0, len(ts)), ts...)
}

// MembershipInto probes whether t ∈ R using the implicit membership access
// method (one constant-time probe). It charges one membership, one read if
// present, and records the tuple in es's trace.
func (db *DB) MembershipInto(es *ExecStats, rel string, t relation.Tuple) (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := db.data.Rel(rel)
	if r == nil {
		return false, fmt.Errorf("store: %w %q", ErrUnknownRelation, rel)
	}
	if !r.Contains(t) {
		if err := es.ChargeTo(Counters{Memberships: 1, TimeUnits: 1}); err != nil {
			return false, err
		}
		return false, nil
	}
	if err := es.ChargeTo(Counters{Memberships: 1, TimeUnits: 1, TupleReads: 1}); err != nil {
		return false, err
	}
	es.record(rel, t)
	return true, nil
}

// ScanInto returns every tuple of rel, charging a full scan: |R| reads.
// Naive evaluation uses this; bounded plans never do. Only the snapshot
// copy holds the read lock — the O(|R|) witness recording runs after
// release, so a huge traced scan does not stall writers (and, through
// writer-pending semantics, every other reader).
func (db *DB) ScanInto(es *ExecStats, rel string) ([]relation.Tuple, error) {
	db.mu.RLock()
	r := db.data.Rel(rel)
	if r == nil {
		db.mu.RUnlock()
		return nil, fmt.Errorf("store: %w %q", ErrUnknownRelation, rel)
	}
	if err := es.ChargeTo(Counters{Scans: 1, TupleReads: int64(r.Len()), TimeUnits: int64(r.Len())}); err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	out := copyTuples(r.Tuples())
	db.mu.RUnlock()
	if es != nil && es.Trace != nil {
		for i, t := range out {
			// Recording a full scan's witness is O(|R|): keep it
			// interruptible so a deadline isn't stuck behind one relation.
			if i%8192 == 8191 {
				if err := es.ctxErr(); err != nil {
					return nil, err
				}
			}
			es.Trace.record(rel, t)
		}
	}
	return out, nil
}

// ChargeScanned charges the counters of a full scan of n tuples without
// touching the data — for callers replaying a memoized ScanInto snapshot
// (eval.ScanSnapshot), keeping measurements identical while skipping the
// O(|R|) copy.
func (db *DB) ChargeScanned(es *ExecStats, n int) error {
	return es.ChargeTo(Counters{Scans: 1, TupleReads: int64(n), TimeUnits: int64(n)})
}

// ValidateUpdate checks u against the current data without applying it,
// under a shared lock. A sharded backend pre-validates every per-shard
// piece before applying any of them; with concurrent writers the check is
// advisory (ApplyVersioned re-validates under its exclusive lock).
func (db *DB) ValidateUpdate(u *relation.Update) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return u.Validate(db.data)
}

// ApplyUpdate is ApplyVersioned without the LSN, for loaders, tests and
// the per-shard pieces of a sharded apply.
func (db *DB) ApplyUpdate(u *relation.Update) error {
	_, err := db.ApplyVersioned(u)
	return err
}

// ApplyVersioned implements Backend: it validates and applies u to the
// data, keeping every index in sync incrementally (cost proportional to
// |ΔD|, not |D|), and excludes concurrent readers for the duration. The
// LSN is advanced under the same exclusive lock that applies the data, so
// it totally orders the update stream: a reader that observes LSN n has
// every apply ≤ n visible.
func (db *DB) ApplyVersioned(u *relation.Update) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := u.Validate(db.data); err != nil {
		return 0, err
	}
	if err := db.data.Apply(u); err != nil {
		return 0, err
	}
	db.syncIndexes(u)
	db.version++
	return db.version, nil
}

// syncIndexes folds an applied ΔD into every index incrementally (cost
// proportional to |ΔD|). Full-width projections ride on a plain index and
// membership entries on the relation itself, so neither has anything of
// its own to sync. Caller holds the exclusive lock.
//
//sivet:holds mu
func (db *DB) syncIndexes(u *relation.Update) {
	for rel, ts := range u.Del {
		p := db.paths[rel]
		if p == nil {
			continue
		}
		for _, t := range ts {
			for _, ix := range p.plain {
				ix.Remove(t)
			}
			for _, pi := range p.proj {
				pi.remove(t)
			}
		}
	}
	for rel, ts := range u.Ins {
		p := db.paths[rel]
		if p == nil {
			continue
		}
		for _, t := range ts {
			for _, ix := range p.plain {
				ix.Add(t)
			}
			for _, pi := range p.proj {
				pi.add(t)
			}
		}
	}
}

// Version implements Backend: the LSN of the last applied update (0 for a
// store that has never been written).
func (db *DB) Version() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// ShardVersions implements Backend: a single node is one partition.
func (db *DB) ShardVersions() []int64 { return []int64{db.Version()} }

// EntriesFor returns the access entries available for rel, most selective
// (smallest N) first. The planner in internal/core consumes this.
func (db *DB) EntriesFor(rel string) []access.Entry {
	es := db.acc.ForRel(rel)
	sorted := append([]access.Entry(nil), es...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].N < sorted[j].N })
	return sorted
}

// relPaths is the physical side of one relation's access entries. A
// fetch resolves its entry to one of these by comparing attribute lists —
// a relation has a handful of paths — so no name is built per call:
//
//   - plain entries: an index.Index on X;
//   - the membership entry (R, attr(R), 1, 1), or any plain X listing
//     attr(R) in schema order: no index at all, the relation's tuple set
//     answers it (fullKey);
//   - embedded entries whose Y lists every attribute, such as the FD
//     entry visit(id, yy, mm, dd → id, yy, mm, dd, rid): the plain index
//     on X, projected on lookup (wideIndex);
//   - other embedded entries: a refcounted projection (projIndex).
type relPaths struct {
	fullKey []string // attr(R) when a full-key entry is registered, else nil
	plain   []*index.Index
	wide    []*wideIndex
	proj    []*projIndex
}

// plainFor returns the plain index on exactly on, if registered.
func (p *relPaths) plainFor(on []string) *index.Index {
	for _, ix := range p.plain {
		if slices.Equal(ix.Attrs(), on) {
			return ix
		}
	}
	return nil
}

// isFullKey reports whether on is the registered full key.
func (p *relPaths) isFullKey(on []string) bool {
	return p.fullKey != nil && slices.Equal(p.fullKey, on)
}

// wideFor returns the full-width projection for X = on, Y = proj.
func (p *relPaths) wideFor(on, proj []string) *wideIndex {
	for _, w := range p.wide {
		if slices.Equal(w.proj, proj) && slices.Equal(w.ix.Attrs(), on) {
			return w
		}
	}
	return nil
}

// projFor returns the refcounted projection for X = on, Y = proj.
func (p *relPaths) projFor(on, proj []string) *projIndex {
	for _, pi := range p.proj {
		if slices.Equal(pi.proj, proj) && slices.Equal(pi.on, on) {
			return pi
		}
	}
	return nil
}

// wideIndex serves an embedded entry whose Y lists every attribute of R.
// Such a projection is a permutation of the tuple, so each X-group holds
// exactly as many distinct projections as base tuples, in the same order:
// the plain index on X (shared with any plain entry on X, and maintained
// as one) already has the groups, and lookup only permutes the values.
type wideIndex struct {
	proj    []string
	projPos []int
	ix      *index.Index
}

// lookup returns the projected group for vals in a fresh slice whose
// tuples share one value array: two allocations per non-empty group.
func (w *wideIndex) lookup(vals []relation.Value) []relation.Tuple {
	ts, _ := w.ix.Lookup(vals) // errs only on a value count FetchInto checked
	if len(ts) == 0 {
		return nil
	}
	k := len(w.projPos)
	out := make([]relation.Tuple, len(ts))
	vs := make([]relation.Value, len(ts)*k)
	for i, t := range ts {
		p := relation.Tuple(vs[i*k : (i+1)*k : (i+1)*k])
		for j, pos := range w.projPos {
			p[j] = t[pos]
		}
		out[i] = p
	}
	return out
}

// keyScratchSize is the stack scratch for key probes on the projected-index
// paths, mirroring the tuple key machinery in package relation.
const keyScratchSize = 128

// projIndex serves embedded entries whose Y omits some attribute, so that
// distinct base tuples can share a projection: it maps each X-group to the
// deduped projection π_Y of the group, refcounted so that deletions of
// base tuples keep shared projections alive (full-width Y needs none of
// this; see wideIndex). Key positions are precomputed and keys are built
// positionally on stack scratch buffers, so neither add, remove nor lookup
// materializes a projected tuple just to key it; removal of a projection
// is O(1) swap-remove under the same ordering contract as
// relation.TupleSet and index.Index (bucket order is deterministic but
// unspecified once anything was removed).
type projIndex struct {
	on, proj []string
	onPos    []int
	projPos  []int
	buckets  map[string]*projBucket
}

// projBucket is one X-group of a true projection: parallel slices of
// projected tuples, their stored keys and their base-tuple refcounts, plus
// the key → slot map that makes removal O(1).
type projBucket struct {
	order []relation.Tuple // projected tuples
	keys  []string         // keys[i] == order[i].Key(), shared with pos
	refs  []int            // refs[i] = number of base tuples projecting to order[i]
	pos   map[string]int   // projected key -> slot in order
}

func newProjIndex(rs relation.RelSchema, on, proj []string) (*projIndex, error) {
	onPos, err := rs.Positions(on)
	if err != nil {
		return nil, err
	}
	projPos, err := rs.Positions(proj)
	if err != nil {
		return nil, err
	}
	return &projIndex{on: on, proj: proj, onPos: onPos, projPos: projPos, buckets: make(map[string]*projBucket)}, nil
}

// maxGroup returns the largest number of distinct projections in a group.
func (pi *projIndex) maxGroup() int {
	m := 0
	for _, b := range pi.buckets {
		m = max(m, len(b.order))
	}
	return m
}

func (pi *projIndex) add(t relation.Tuple) {
	var a [keyScratchSize]byte
	kb := t.AppendKeyAt(a[:0], pi.onPos)
	b := pi.buckets[string(kb)]
	if b == nil {
		b = &projBucket{pos: make(map[string]int)}
		pi.buckets[string(kb)] = b
	}
	var pa [keyScratchSize]byte
	pkb := t.AppendKeyAt(pa[:0], pi.projPos)
	if i, ok := b.pos[string(pkb)]; ok {
		b.refs[i]++
		return
	}
	pk := string(pkb)
	b.pos[pk] = len(b.order)
	b.order = append(b.order, t.Project(pi.projPos))
	b.keys = append(b.keys, pk)
	b.refs = append(b.refs, 1)
}

func (pi *projIndex) remove(t relation.Tuple) {
	var a [keyScratchSize]byte
	kb := t.AppendKeyAt(a[:0], pi.onPos)
	b := pi.buckets[string(kb)]
	if b == nil {
		return
	}
	var pa [keyScratchSize]byte
	pkb := t.AppendKeyAt(pa[:0], pi.projPos)
	i, ok := b.pos[string(pkb)]
	if !ok {
		return
	}
	b.refs[i]--
	if b.refs[i] > 0 {
		return
	}
	delete(b.pos, b.keys[i])
	last := len(b.order) - 1
	if i != last {
		b.order[i] = b.order[last]
		b.keys[i] = b.keys[last]
		b.refs[i] = b.refs[last]
		b.pos[b.keys[i]] = i
	}
	b.order[last] = nil
	b.keys[last] = ""
	b.order = b.order[:last]
	b.keys = b.keys[:last]
	b.refs = b.refs[:last]
	if len(b.order) == 0 {
		delete(pi.buckets, string(kb))
	}
}

func (pi *projIndex) lookup(vals []relation.Value) []relation.Tuple {
	var a [keyScratchSize]byte
	kb := relation.Tuple(vals).AppendKey(a[:0])
	b := pi.buckets[string(kb)]
	if b == nil {
		return nil
	}
	return b.order
}
