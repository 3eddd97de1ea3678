// Package server is the network serving tier: an HTTP front end exposing
// the full engine lifecycle — Prepare / Query / Commit / Watch — over the
// wire, with PIQL-style success-tolerant admission control in front of
// it. The paper's controllability analysis yields a *static* read bound M
// at prepare time, which is exactly what success-tolerant query
// processing needs: a query whose compile-time bound exceeds its tenant's
// SLA threshold is rejected *before* it runs, with a typed,
// machine-readable error carrying the bound, instead of degrading the
// whole tier under load.
//
// Wire contract (DESIGN.md §6):
//
//	POST /prepare  {"query": src, "ctrl": [...]}            → plan handle + static bound M + EXPLAIN
//	POST /query    {"handle", "bind", "limit", "max_reads"} → chunked NDJSON answer stream + final stats
//	POST /commit   {"ins": {rel: [tuple...]}, "del": ...}   → CommitResult (engine seq, store LSN, maintenance)
//	GET  /watch    ?handle=&bind=                           → SSE: snapshot event, then per-commit delta events
//	GET  /statusz                                           → engine + admission observability snapshot (JSON)
//
// The error taxonomy maps onto HTTP statuses: ErrNotControllable → 422,
// admission rejections and ErrBudgetExceeded → 429 (with the bound in the
// body), ErrCanceled → 499, ErrInvalidUpdate and malformed requests →
// 400, unknown handles → 404, a draining server → 503. Bodies are always
// {"error": {"code", "message", ...}} and round-trip back to the typed
// sentinels through ErrorBody.Err, so a client dispatches with errors.Is
// exactly as it would in process.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Val is the wire form of a relation.Value: integers as JSON numbers,
// strings as JSON strings, null as JSON null. Decoding is exact (int64
// via json.Number, not float64).
type Val relation.Value

// MarshalJSON encodes the value in its natural JSON shape.
func (v Val) MarshalJSON() ([]byte, error) {
	return appendValue(nil, relation.Value(v)), nil
}

// UnmarshalJSON decodes a JSON number (int64), string, or null. A plain
// int64 literal, an escape-free string and null are read directly;
// everything else takes the exact json.Decoder path.
func (v *Val) UnmarshalJSON(b []byte) error {
	if x, n, ok := scanValue(b); ok && n == len(b) {
		*v = Val(x)
		return nil
	}
	return v.unmarshalExact(b)
}

// unmarshalExact decodes b through json.Decoder: the reference semantics
// for every form scanValue does not take, errors included.
func (v *Val) unmarshalExact(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	switch x := raw.(type) {
	case nil:
		*v = Val(relation.Null())
	case string:
		*v = Val(relation.Str(x))
	case json.Number:
		n, err := strconv.ParseInt(x.String(), 10, 64)
		if err != nil {
			return fmt.Errorf("server: non-integer number %q in value", x)
		}
		*v = Val(relation.Int(n))
	default:
		return fmt.Errorf("server: unsupported JSON value %T", raw)
	}
	return nil
}

// Row is the wire form of a tuple: a JSON array of Vals.
type Row []Val

// MarshalJSON encodes the row with the /query stream's row appender.
func (r Row) MarshalJSON() ([]byte, error) { return appendRow(nil, r), nil }

// EncodeRow converts a tuple to its wire form.
func EncodeRow(t relation.Tuple) Row {
	r := make(Row, len(t))
	for i, v := range t {
		r[i] = Val(v)
	}
	return r
}

// Tuple converts the wire row back to a tuple.
func (r Row) Tuple() relation.Tuple {
	t := make(relation.Tuple, len(r))
	for i, v := range r {
		t[i] = relation.Value(v)
	}
	return t
}

// EncodeRows converts a tuple slice to wire rows (never nil, so JSON
// renders [] rather than null).
func EncodeRows(ts []relation.Tuple) []Row {
	rs := make([]Row, len(ts))
	for i, t := range ts {
		rs[i] = EncodeRow(t)
	}
	return rs
}

// DecodeRows converts wire rows back to tuples.
func DecodeRows(rs []Row) []relation.Tuple {
	ts := make([]relation.Tuple, len(rs))
	for i, r := range rs {
		ts[i] = r.Tuple()
	}
	return ts
}

// Binds is the wire form of query.Bindings.
type Binds map[string]Val

// EncodeBinds converts bindings to their wire form.
func EncodeBinds(b query.Bindings) Binds {
	out := make(Binds, len(b))
	for k, v := range b {
		out[k] = Val(v)
	}
	return out
}

// Bindings converts wire binds back to engine bindings.
func (b Binds) Bindings() query.Bindings {
	out := make(query.Bindings, len(b))
	for k, v := range b {
		out[k] = relation.Value(v)
	}
	return out
}

// PrepareRequest is the body of POST /prepare.
type PrepareRequest struct {
	// Query is the query source, in either syntax ("Q(x) := ..." or the
	// rule form "Q(x) :- atom, ...").
	Query string `json:"query"`
	// Ctrl is the controlling set x̄ the plan should be prepared for.
	Ctrl []string `json:"ctrl"`
}

// PrepareResponse is the success body of POST /prepare: the plan handle
// plus everything the static analysis proved about it.
type PrepareResponse struct {
	Handle string   `json:"handle"`
	Name   string   `json:"name"`
	Ctrl   []string `json:"ctrl"`
	Head   []string `json:"head"`
	// BoundReads is the static read bound M: the PIQL-style contract this
	// plan serves under, known before any execution.
	BoundReads      int64  `json:"bound_reads"`
	BoundCandidates int64  `json:"bound_candidates"`
	Explain         string `json:"explain"`
	// Views names the materialized views the plan reads (empty for a pure
	// base plan); Rescued marks a query that is not controllable over the
	// base relations and is served through a view rewriting instead, so a
	// tenant can tell a rescued admission from a base one.
	Views   []string `json:"views,omitempty"`
	Rescued bool     `json:"rescued,omitempty"`
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Handle string `json:"handle"`
	Bind   Binds  `json:"bind"`
	// Limit stops the stream after n answers (LIMIT over the wire: the
	// remaining fetches are never issued server-side).
	Limit int `json:"limit,omitempty"`
	// MaxReads sets a runtime read budget below the static bound; it also
	// lowers the admission charge to min(bound, max_reads).
	MaxReads int64 `json:"max_reads,omitempty"`
	// TimeoutMS bounds the server-side execution deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// RequestID tags the execution end to end: it rides the per-call
	// ExecStats through every store charge and appears in slow-query log
	// lines. The X-SI-Request-ID header takes precedence; either way the
	// id is echoed back as X-SI-Request-ID on the response.
	RequestID string `json:"request_id,omitempty"`
}

// QueryLine is one NDJSON line of a /query response stream: exactly one
// of the fields is set. The first line carries Head (and the enforced
// bound), then one Row line per answer, then a terminal Stats or Error
// line.
type QueryLine struct {
	Head  []string    `json:"head,omitempty"`
	Bound int64       `json:"bound,omitempty"`
	Row   Row         `json:"row,omitempty"`
	Stats *QueryStats `json:"stats,omitempty"`
	Error *ErrorBody  `json:"error,omitempty"`
}

// QueryStats is the terminal accounting line of a completed /query
// stream: the measured work of this call, mirroring core.Answer's Cost.
type QueryStats struct {
	Answers int64 `json:"answers"`
	// Reads is the measured TupleReads; Reads ≤ Bound for every admitted
	// query (TestConcurrentClientsAndCommitters and sibm's read_wire
	// bound check assert it).
	Reads int64 `json:"reads"`
	Bound int64 `json:"bound"`
}

// CommitRequest is the body of POST /commit: ΔD = (∇D, ΔD) keyed by
// relation name.
type CommitRequest struct {
	Ins map[string][]Row `json:"ins,omitempty"`
	Del map[string][]Row `json:"del,omitempty"`
}

// Update converts the wire commit back to a relation.Update.
func (c *CommitRequest) Update() *relation.Update {
	u := relation.NewUpdate()
	for rel, rs := range c.Ins {
		for _, r := range rs {
			u.Insert(rel, r.Tuple())
		}
	}
	for rel, rs := range c.Del {
		for _, r := range rs {
			u.Delete(rel, r.Tuple())
		}
	}
	return u
}

// EncodeUpdate converts an update to its wire form.
func EncodeUpdate(u *relation.Update) *CommitRequest {
	c := &CommitRequest{Ins: map[string][]Row{}, Del: map[string][]Row{}}
	for rel, ts := range u.Ins {
		if len(ts) > 0 {
			c.Ins[rel] = EncodeRows(ts)
		}
	}
	for rel, ts := range u.Del {
		if len(ts) > 0 {
			c.Del[rel] = EncodeRows(ts)
		}
	}
	return c
}

// CommitResponse is the success body of POST /commit, mirroring
// core.CommitResult.
type CommitResponse struct {
	Seq              int64 `json:"seq"`
	StoreSeq         int64 `json:"store_seq"`
	Size             int   `json:"size"`
	Watchers         int   `json:"watchers"`
	MaintenanceReads int64 `json:"maintenance_reads"`
	// ViewsMaintained is the number of materialized views this commit
	// maintained inside the pipeline; ViewReads the tuple reads that
	// maintenance charged.
	ViewsMaintained int   `json:"views_maintained,omitempty"`
	ViewReads       int64 `json:"view_reads,omitempty"`
	// Phases is the commit pipeline's wall-time breakdown
	// (core.CommitPhases), durations in nanoseconds.
	Phases core.CommitPhases `json:"phases"`
}

// ViewEntry is the wire form of a caller-supplied access entry for a
// view relation (the "index it at will" part of Section 6). Rel is
// implied by the view being created; a nil Proj means a plain entry.
type ViewEntry struct {
	On   []string `json:"on"`
	Proj []string `json:"proj,omitempty"`
	N    int      `json:"n"`
	T    int      `json:"t,omitempty"`
}

// ViewRequest is the body of POST /views: the defining CQ plus optional
// extra access entries, on top of the ones the engine derives from the
// definition's own controllability.
type ViewRequest struct {
	Def     string      `json:"def"`
	Entries []ViewEntry `json:"entries,omitempty"`
}

// ViewResponse is the success body of POST /views (and one element of
// GET /views): core.ViewInfo verbatim.
type ViewResponse = core.ViewInfo

// WatchSnapshot is the payload of the initial "snapshot" SSE event of
// GET /watch.
type WatchSnapshot struct {
	Head []string `json:"head"`
	Seq  int64    `json:"seq"`
	Rows []Row    `json:"rows"`
}

// WatchDelta is the payload of each "delta" SSE event: one (possibly
// folded) commit's effect on the watched answer set, with the bounded
// maintenance work it charged.
type WatchDelta struct {
	Seq    int64 `json:"seq"`
	Ins    []Row `json:"ins,omitempty"`
	Del    []Row `json:"del,omitempty"`
	Reads  int64 `json:"reads"`
	Bound  int64 `json:"bound"`
	Folded int   `json:"folded,omitempty"`
	Reexec bool  `json:"reexec,omitempty"`
}

// Error codes carried in ErrorBody.Code: each one maps to a typed
// sentinel on the client side (ErrorBody.Err) and to an HTTP status on
// the server side (statusFor).
const (
	CodeNotControllable      = "not_controllable"
	CodeAdmissionBound       = "admission_bound"
	CodeAdmissionBudget      = "admission_budget"
	CodeAdmissionConcurrency = "admission_concurrency"
	CodeBudgetExceeded       = "budget_exceeded"
	CodeCanceled             = "canceled"
	CodeInvalidUpdate        = "invalid_update"
	CodeUnboundHead          = "unbound_head"
	CodeNotMaintainable      = "not_maintainable"
	CodeSlowConsumer         = "slow_consumer"
	CodeInvalidQuery         = "invalid_query"
	CodeViewExists           = "view_exists"
	CodeUnknownView          = "unknown_view"
	CodeAccessViolation      = "access_violation"
	CodeBadRequest           = "bad_request"
	CodeNotFound             = "not_found"
	CodeDraining             = "draining"
	CodeInternal             = "internal"
)

// ErrorBody is the machine-readable error envelope every non-2xx response
// (and every terminal NDJSON/SSE error line) carries under {"error": ...}.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Bound is the query's static read bound M, set on admission and
	// budget rejections so the client knows exactly what was refused.
	Bound int64 `json:"bound,omitempty"`
	// Limit is the threshold the bound crossed (tenant max bound,
	// remaining window budget, or concurrency cap).
	Limit  int64  `json:"limit,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// ErrAdmission is the sentinel every admission rejection wraps: the query
// was refused at the door by a tenant SLA policy, not by execution.
var ErrAdmission = errors.New("query rejected by admission control")

// AdmissionError is the typed admission rejection: which tenant, which
// rule ("bound", "budget", "concurrency"), the query's static bound and
// the threshold it crossed. It wraps ErrAdmission, and — for the
// bound/budget rules, which are read-budget refusals in PIQL terms —
// core.ErrBudgetExceeded too.
type AdmissionError struct {
	Tenant string `json:"tenant"`
	Reason string `json:"reason"`
	Bound  int64  `json:"bound"`
	Limit  int64  `json:"limit"`
}

// Error renders the rejection.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: tenant %q: query rejected by admission control (%s): static bound %d exceeds limit %d",
		e.Tenant, e.Reason, e.Bound, e.Limit)
}

// Unwrap exposes the sentinel chain for errors.Is.
func (e *AdmissionError) Unwrap() []error {
	if e.Reason == "concurrency" {
		return []error{ErrAdmission}
	}
	return []error{ErrAdmission, core.ErrBudgetExceeded}
}

// Err converts a wire error body back to a typed Go error: the wrapped
// sentinel chain matches what the same failure would have produced in
// process, so errors.Is dispatch is backend-transparent.
func (b *ErrorBody) Err() error {
	switch b.Code {
	case CodeNotControllable:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrNotControllable)
	case CodeAdmissionBound:
		return &AdmissionError{Tenant: b.Tenant, Reason: "bound", Bound: b.Bound, Limit: b.Limit}
	case CodeAdmissionBudget:
		return &AdmissionError{Tenant: b.Tenant, Reason: "budget", Bound: b.Bound, Limit: b.Limit}
	case CodeAdmissionConcurrency:
		return &AdmissionError{Tenant: b.Tenant, Reason: "concurrency", Bound: b.Bound, Limit: b.Limit}
	case CodeBudgetExceeded:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrBudgetExceeded)
	case CodeCanceled:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrCanceled)
	case CodeInvalidUpdate:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrInvalidUpdate)
	case CodeUnboundHead:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrUnboundHead)
	case CodeNotMaintainable:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrWatchNotMaintainable)
	case CodeSlowConsumer:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrSlowConsumer)
	case CodeInvalidQuery:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrInvalidQuery)
	case CodeViewExists:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrViewExists)
	case CodeUnknownView:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrUnknownView)
	case CodeAccessViolation:
		return fmt.Errorf("server: %s: %w", b.Message, core.ErrAccessViolation)
	default:
		return fmt.Errorf("server: %s: %s", b.Code, b.Message)
	}
}

// bodyFor classifies an engine (or admission) error into its wire body.
func bodyFor(err error) *ErrorBody {
	var adm *AdmissionError
	if errors.As(err, &adm) {
		code := CodeAdmissionBound
		switch adm.Reason {
		case "budget":
			code = CodeAdmissionBudget
		case "concurrency":
			code = CodeAdmissionConcurrency
		}
		return &ErrorBody{Code: code, Message: err.Error(), Bound: adm.Bound, Limit: adm.Limit, Tenant: adm.Tenant}
	}
	switch {
	case errors.Is(err, core.ErrNotControllable):
		return &ErrorBody{Code: CodeNotControllable, Message: err.Error()}
	case errors.Is(err, core.ErrBudgetExceeded):
		return &ErrorBody{Code: CodeBudgetExceeded, Message: err.Error()}
	case errors.Is(err, core.ErrCanceled):
		return &ErrorBody{Code: CodeCanceled, Message: err.Error()}
	case errors.Is(err, core.ErrInvalidUpdate):
		return &ErrorBody{Code: CodeInvalidUpdate, Message: err.Error()}
	case errors.Is(err, core.ErrUnboundHead):
		return &ErrorBody{Code: CodeUnboundHead, Message: err.Error()}
	case errors.Is(err, core.ErrWatchNotMaintainable):
		return &ErrorBody{Code: CodeNotMaintainable, Message: err.Error()}
	case errors.Is(err, core.ErrSlowConsumer):
		return &ErrorBody{Code: CodeSlowConsumer, Message: err.Error()}
	case errors.Is(err, core.ErrInvalidQuery):
		return &ErrorBody{Code: CodeInvalidQuery, Message: err.Error()}
	case errors.Is(err, core.ErrViewExists):
		return &ErrorBody{Code: CodeViewExists, Message: err.Error()}
	case errors.Is(err, core.ErrUnknownView):
		return &ErrorBody{Code: CodeUnknownView, Message: err.Error()}
	case errors.Is(err, core.ErrAccessViolation):
		return &ErrorBody{Code: CodeAccessViolation, Message: err.Error()}
	default:
		return &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
}

// statusFor maps a wire error code to its HTTP status: the serving tier's
// half of the typed taxonomy. 499 is the de-facto "client closed request"
// status for canceled work.
func statusFor(code string) int {
	switch code {
	case CodeNotControllable:
		return 422
	case CodeAdmissionBound, CodeAdmissionBudget, CodeAdmissionConcurrency, CodeBudgetExceeded:
		return 429
	case CodeCanceled:
		return 499
	case CodeInvalidUpdate, CodeBadRequest, CodeUnboundHead, CodeInvalidQuery:
		return 400
	case CodeViewExists:
		return 409
	case CodeNotMaintainable:
		return 422
	case CodeNotFound, CodeUnknownView:
		return 404
	case CodeDraining:
		return 503
	default: // CodeAccessViolation, CodeInternal: faults of the server or its data
		return 500
	}
}
