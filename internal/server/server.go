package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/query"
)

// Config configures a Server.
type Config struct {
	// Engine is the serving engine. Required.
	Engine *core.Engine
	// DefaultPolicy applies to tenants without an entry in Policies. The
	// zero policy admits everything (no SLA).
	DefaultPolicy TenantPolicy
	// Policies maps tenant name (the X-SI-Tenant request header) to its
	// SLA policy.
	Policies map[string]TenantPolicy
	// WatchBuffer is the per-watcher bounded delta queue depth handed to
	// core.WithDeltaBuffer: a lagging SSE consumer beyond it receives
	// folded net deltas rather than an error. 0 defaults to 64.
	WatchBuffer int
	// Metrics, when non-nil, turns the tier's instrumentation on: query
	// latency/reads histograms, admission and plan-cache counters, commit
	// phase timings and watch lag are recorded into the registry, and
	// GET /metricsz serves it in Prometheus text format. Nil disables
	// recording and the endpoint.
	Metrics *obs.Registry
	// Logger receives the engine's structured slow-query / slow-commit
	// records (log/slog) when the matching threshold is set.
	Logger *slog.Logger
	// SlowQuery and SlowCommit are the wall-time thresholds at or above
	// which a query or commit is logged; zero disables that log class.
	SlowQuery  time.Duration
	SlowCommit time.Duration
}

// Server serves an engine over HTTP. It implements http.Handler; see the
// package comment for the wire contract. Construct with NewServer, shut
// down with Drain.
type Server struct {
	eng      *core.Engine
	adm      *admitter
	watchBuf int
	mux      *http.ServeMux
	met      *metrics // nil when Config.Metrics was nil

	// mu guards draining and the in-flight WaitGroup Add (so Drain's Wait
	// cannot race a new request), plus the handle registry.
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	// drainCh closes when Drain begins: long-lived watch streams select
	// on it and shut their subscriptions down cleanly.
	drainCh chan struct{}

	handles map[string]*handle
	byKey   map[string]string
	nextID  int64
}

// handle is one registered prepared plan.
type handle struct {
	id   string
	prep *core.PreparedQuery
}

// NewServer builds the serving tier over an engine.
func NewServer(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	if cfg.WatchBuffer <= 0 {
		cfg.WatchBuffer = 64
	}
	s := &Server{
		eng:      cfg.Engine,
		adm:      newAdmitter(cfg.DefaultPolicy, cfg.Policies),
		watchBuf: cfg.WatchBuffer,
		mux:      http.NewServeMux(),
		drainCh:  make(chan struct{}),
		handles:  map[string]*handle{},
		byKey:    map[string]string{},
	}
	s.mux.HandleFunc("POST /prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /commit", s.handleCommit)
	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("POST /views", s.handleViewCreate)
	s.mux.HandleFunc("GET /views", s.handleViewList)
	s.mux.HandleFunc("DELETE /views/{name}", s.handleViewDrop)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	if cfg.Metrics != nil {
		s.met = newMetrics(cfg.Metrics)
		s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	}
	// Telemetry flows through the engine's hook: the metrics sink gets
	// every query/commit event, the logger the slow ones. Installed here
	// so mounting the tier is the one switch that turns serving
	// observability on.
	if s.met != nil || cfg.Logger != nil {
		tc := core.TelemetryConfig{
			Logger:     cfg.Logger,
			SlowQuery:  cfg.SlowQuery,
			SlowCommit: cfg.SlowCommit,
		}
		if s.met != nil {
			tc.Observer = s.met
		}
		cfg.Engine.SetTelemetry(tc)
	}
	return s
}

// ServeHTTP dispatches one request. A draining server refuses everything
// but /statusz and /metricsz with 503 so load balancers and metric
// scrapers can still watch it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/statusz" && r.URL.Path != "/metricsz" {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			writeError(w, &ErrorBody{Code: CodeDraining, Message: "server is draining"})
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()
	}
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully shuts the tier down: new requests get 503, in-flight
// query streams run to completion, and watch streams close their
// subscriptions and send a final "close" event. It returns when every
// in-flight request has finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Handles reports the number of registered plan handles.
func (s *Server) Handles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.handles)
}

// Statusz is the GET /statusz body: the engine's unified stats snapshot
// plus the serving tier's own gauges.
type Statusz struct {
	Engine   core.EngineStats       `json:"engine"`
	Tenants  map[string]TenantStats `json:"tenants"`
	Handles  int                    `json:"handles"`
	Draining bool                   `json:"draining"`
	// Views is the registered materialized-view state (name, definition,
	// rows, freshness seq, entries, broken), in registration order.
	Views []core.ViewInfo `json:"views,omitempty"`
}

// Status snapshots the tier for /statusz (and for in-process harnesses).
func (s *Server) Status() Statusz {
	s.mu.Lock()
	draining, nh := s.draining, len(s.handles)
	s.mu.Unlock()
	return Statusz{
		Engine:   s.eng.Stats(),
		Tenants:  s.adm.stats(),
		Handles:  nh,
		Draining: draining,
		Views:    s.eng.Views(),
	}
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-SI-Tenant"); t != "" {
		return t
	}
	return "default"
}

// requestID resolves the call's request identifier: the X-SI-Request-ID
// header wins, then the request body's request_id.
func requestID(r *http.Request, bodyID string) string {
	if id := r.Header.Get("X-SI-Request-ID"); id != "" {
		return id
	}
	return bodyID
}

// recordRejection mirrors a typed admission rejection into the metrics
// registry, labeled by the rejection reason.
func (s *Server) recordRejection(tenant string, err error) {
	if s.met == nil {
		return
	}
	var adm *AdmissionError
	if errors.As(err, &adm) {
		s.met.rejected(tenant, adm.Reason)
	}
}

// recordRelease mirrors an admitted execution's settlement (refund delta)
// into the metrics registry.
func (s *Server) recordRelease(tenant string, charge, reads int64) {
	if s.met != nil {
		s.met.released(tenant, charge, reads)
	}
}

type errorResponse struct {
	Error *ErrorBody `json:"error"`
}

func writeError(w http.ResponseWriter, body *ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusFor(body.Code))
	json.NewEncoder(w).Encode(errorResponse{Error: body})
}

func writeErr(w http.ResponseWriter, err error) { writeError(w, bodyFor(err)) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handlePrepare compiles a query for a controlling set, runs the
// prepare-time SLA check (reject if the static bound exceeds the tenant's
// MaxBound — the success-tolerant gate), registers a plan handle, and
// returns the handle with the bound and EXPLAIN text. Handles dedup on
// (query, ctrl): re-preparing returns the same handle.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "prepare: " + err.Error()})
		return
	}
	q, err := parser.ParseServing(req.Query)
	if err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	ctrl := query.NewVarSet(req.Ctrl...)
	prep, err := s.eng.Prepare(q, ctrl)
	if err != nil {
		writeErr(w, err)
		return
	}
	bound := prep.Plan().Bound
	if err := s.adm.checkBound(tenantOf(r), bound.Reads); err != nil {
		s.recordRejection(tenantOf(r), err)
		writeErr(w, err)
		return
	}

	key := q.String() + "\x00" + ctrl.Key()
	s.mu.Lock()
	id, ok := s.byKey[key]
	if !ok {
		s.nextID++
		id = "h" + strconv.FormatInt(s.nextID, 10)
		s.handles[id] = &handle{id: id, prep: prep}
		s.byKey[key] = id
	}
	s.mu.Unlock()

	writeJSON(w, &PrepareResponse{
		Handle:          id,
		Name:            q.Name,
		Ctrl:            ctrl.Sorted(),
		Head:            append([]string(nil), q.Head...),
		BoundReads:      bound.Reads,
		BoundCandidates: bound.Candidates,
		Explain:         prep.Explain(),
		Views:           prep.Plan().Views,
		Rescued:         prep.Plan().Rescued,
	})
}

func (s *Server) handle(id string) *handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handles[id]
}

// handleQuery admits and executes one prepared query, streaming the
// answer as NDJSON: a head line carrying the enforced read bound, one
// line per answer, and a terminal stats-or-error line. Lines collect in
// one pooled buffer. The head and the first answer go out together in
// one write and flush, so the first answer reaches the client as soon as
// it exists; after that the buffer is written when it passes
// flushBytes, and once more at the end. Early termination still holds:
// LIMIT stops the cursor server-side, and a client that disconnects
// cancels the request context (or fails the next write), which ends the
// cursor before its remaining reads are issued. The admission charge is
// the effective entitlement min(static bound M, client max_reads),
// reserved against the tenant's window budget up front and refunded down
// to the measured reads on completion.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "query: " + err.Error()})
		return
	}
	h := s.handle(req.Handle)
	if h == nil {
		writeError(w, &ErrorBody{Code: CodeNotFound, Message: "unknown handle " + strconv.Quote(req.Handle)})
		return
	}
	tenant := tenantOf(r)
	charge := h.prep.Plan().Bound.Reads
	if req.MaxReads > 0 && req.MaxReads < charge {
		charge = req.MaxReads
	}
	if err := s.adm.admit(tenant, charge, time.Now()); err != nil {
		s.recordRejection(tenant, err)
		writeErr(w, err)
		return
	}
	if s.met != nil {
		s.met.admitted(tenant)
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	opts := []core.ExecOption{core.WithoutTrace()}
	if req.Limit > 0 {
		opts = append(opts, core.WithLimit(req.Limit))
	}
	if req.MaxReads > 0 {
		opts = append(opts, core.WithMaxReads(req.MaxReads))
	}
	// Request-ID propagation: the X-SI-Request-ID header (or the body's
	// request_id) rides the per-call ExecStats down through every store
	// charge and back out in slow-query log lines; it is echoed on the
	// response so both ends of the wire agree on the name of the work.
	reqID := requestID(r, req.RequestID)
	if reqID != "" {
		opts = append(opts, core.WithRequestID(reqID))
		w.Header().Set("X-SI-Request-ID", reqID)
	}
	rows, err := h.prep.Query(ctx, req.Bind.Bindings(), opts...)
	if err != nil {
		s.adm.release(tenant, charge, 0, 0)
		s.recordRelease(tenant, charge, 0)
		writeErr(w, err)
		return
	}
	var answers int64
	defer func() {
		rows.Close()
		reads := rows.Cost().TupleReads
		s.adm.release(tenant, charge, reads, answers)
		s.recordRelease(tenant, charge, reads)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	bp := lineBufs.Get().(*[]byte)
	buf := AppendHeadLine((*bp)[:0], rows.Head(), charge)
	defer func() {
		if cap(buf) <= maxPooledBuf {
			*bp = buf[:0]
			lineBufs.Put(bp)
		}
	}()
	for rows.Next() {
		buf = AppendRowLine(buf, rows.Tuple())
		answers++
		if answers == 1 || len(buf) >= flushBytes {
			if _, err := w.Write(buf); err != nil {
				return // client went away; defer settles admission
			}
			buf = buf[:0]
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	if err := rows.Err(); err != nil {
		if answers == 0 {
			// Nothing is on the wire yet, so the status can still say
			// what failed: a data fault answers 500, not 200.
			writeErr(w, err)
			return
		}
		buf = appendErrorLine(buf, bodyFor(err))
	} else {
		buf = AppendStatsLine(buf, QueryStats{
			Answers: answers,
			Reads:   rows.Cost().TupleReads,
			Bound:   charge,
		})
	}
	// The handler's return flushes this last write.
	w.Write(buf) //nolint:errcheck // the stream is over either way
}

// flushBytes is the /query stream's write threshold after the first
// answer: buffered lines go out once they pass it. maxPooledBuf caps
// the buffers lineBufs keeps, so one huge answer does not pin memory.
const (
	flushBytes   = 4 << 10
	maxPooledBuf = 64 << 10
)

// lineBufs pools the /query stream's line buffers.
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*flushBytes)
	return &b
}}

// handleCommit applies one transactional update through Engine.Commit and
// returns the commit result (engine sequence, store LSN, bounded
// maintenance accounting).
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "commit: " + err.Error()})
		return
	}
	res, err := s.eng.Commit(r.Context(), req.Update())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, &CommitResponse{
		Seq:              res.Seq,
		StoreSeq:         res.StoreSeq,
		Size:             res.Size,
		Watchers:         res.Watchers,
		MaintenanceReads: res.Maintenance.TupleReads,
		ViewsMaintained:  res.ViewsMaintained,
		ViewReads:        res.ViewReads,
		Phases:           res.Phases,
	})
}

// handleViewCreate materializes one view through Engine.CreateView: the
// defining CQ plus optional caller-supplied access entries (the view is a
// materialized relation, so it can be indexed at will). Success returns
// the registered view's state; an unmaintainable definition maps to 422
// through the usual taxonomy.
func (s *Server) handleViewCreate(w http.ResponseWriter, r *http.Request) {
	var req ViewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "views: " + err.Error()})
		return
	}
	def, err := parser.ParseCQ(req.Def)
	if err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	entries := make([]access.Entry, len(req.Entries))
	for i, e := range req.Entries {
		entries[i] = access.Entry{Rel: def.Name, On: e.On, Proj: e.Proj, N: e.N, T: max(e.T, 1)}
	}
	info, err := s.eng.CreateView(def, entries...)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, &info)
}

// handleViewList serves GET /views: the registered view states in
// registration order.
func (s *Server) handleViewList(w http.ResponseWriter, r *http.Request) {
	views := s.eng.Views()
	if views == nil {
		views = []core.ViewInfo{}
	}
	writeJSON(w, views)
}

// handleViewDrop retracts one view: the relation is dropped from the
// backend and the next Prepare no longer sees it.
func (s *Server) handleViewDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.DropView(name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, map[string]string{"dropped": name})
}

// sseWrite emits one Server-Sent Event and flushes it.
func sseWrite(w http.ResponseWriter, flusher http.Flusher, event string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	if flusher != nil {
		flusher.Flush()
	}
	return nil
}

// handleWatch serves a live query as an SSE stream: a "snapshot" event
// with the full current answer, then one "delta" event per commit (folded
// net deltas under consumer lag, per the engine's bounded buffer), then a
// "close" event when the subscription ends — on client request, server
// drain, or engine-side failure (which arrives as an "error" event
// first). Query parameters: handle, bind (JSON object), reexec=1 to force
// bounded re-execution for non-maintainable queries.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	h := s.handle(qp.Get("handle"))
	if h == nil {
		writeError(w, &ErrorBody{Code: CodeNotFound, Message: "unknown handle " + strconv.Quote(qp.Get("handle"))})
		return
	}
	var binds Binds
	if raw := qp.Get("bind"); raw != "" {
		if err := json.Unmarshal([]byte(raw), &binds); err != nil {
			writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "watch: bad bind: " + err.Error()})
			return
		}
	}
	opts := []core.WatchOption{core.WithDeltaBuffer(s.watchBuf)}
	if qp.Get("reexec") == "1" {
		opts = append(opts, core.WithReexec())
	}
	l, err := h.prep.Watch(r.Context(), binds.Bindings(), opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer l.Close()

	// A side goroutine turns "client went away" and "server draining" into
	// a subscription Close, which ends the Deltas stream cleanly below.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.Context().Done():
			l.Close()
		case <-s.drainCh:
			l.Close()
		case <-done:
		}
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	snap := WatchSnapshot{Head: l.Head(), Seq: l.Seq(), Rows: EncodeRows(l.Snapshot().Tuples())}
	if err := sseWrite(w, flusher, "snapshot", snap); err != nil {
		return
	}
	for d, err := range l.Deltas() {
		if err != nil {
			sseWrite(w, flusher, "error", errorResponse{Error: bodyFor(err)})
			break
		}
		wd := WatchDelta{
			Seq:    d.Seq,
			Ins:    EncodeRows(d.Ins),
			Del:    EncodeRows(d.Del),
			Reads:  d.Cost.TupleReads,
			Bound:  d.Bound,
			Folded: d.Folded,
			Reexec: d.Reexec,
		}
		if s.met != nil {
			// Delta lag in commit sequence numbers: how far behind the
			// engine's commit clock this delivery is (folding under
			// consumer lag shows up here).
			s.met.delta(s.eng.CommitSeq()-d.Seq, d.Folded)
		}
		if sseWrite(w, flusher, "delta", wd) != nil {
			return
		}
	}
	sseWrite(w, flusher, "close", struct{}{})
}

// handleStatusz serves the unified observability snapshot. It stays up
// during drain so orchestration can watch the tier empty out.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Status())
}
