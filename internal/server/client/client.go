// Package client is the Go client for the siserve HTTP tier. It keeps
// the engine facade's shape — Prepare returns a prepared handle whose
// Query streams a Rows cursor, Exec collects, Watch yields snapshot +
// deltas — so code written against the in-process engine ports to the
// wire by swapping the constructor, and the conformance suite can run
// the same assertions over both.
//
// Errors are typed end to end: the server's machine-readable bodies are
// converted back to the core sentinels (core.ErrNotControllable,
// core.ErrBudgetExceeded, core.ErrCanceled, ...) and to
// server.AdmissionError for admission rejections, so errors.Is dispatch
// is transport-transparent.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
)

// Client talks to one siserve endpoint on behalf of one tenant.
type Client struct {
	base   string
	tenant string
	hc     *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithTenant sets the tenant name sent as X-SI-Tenant (default
// "default") — the key the server's admission policies dispatch on.
func WithTenant(t string) Option { return func(c *Client) { c.tenant = t } }

// WithHTTPClient substitutes the underlying *http.Client (e.g. an
// httptest server's client).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New builds a client for a base URL like "http://host:port".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), tenant: "default", hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// decodeError turns a non-2xx response into the typed error the same
// failure would have produced in process.
func decodeError(resp *http.Response) error {
	var body struct {
		Error *server.ErrorBody `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(data, &body); err != nil || body.Error == nil {
		return fmt.Errorf("client: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return body.Error.Err()
}

// post issues one JSON POST and decodes a JSON response into out,
// mapping error bodies to typed errors. Used for the unary endpoints.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-SI-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Prepared is a plan handle on the server: the remote analogue of
// core.PreparedQuery, carrying the static bound M the plan serves under.
type Prepared struct {
	c *Client
	// Handle is the server-side plan id.
	Handle string
	Name   string
	Ctrl   []string
	Head   []string
	// BoundReads is the static read bound M from the controllability
	// analysis; BoundCandidates the matching candidate bound.
	BoundReads      int64
	BoundCandidates int64
	// Explain is the server's EXPLAIN rendering of the physical plan.
	Explain string
	// Views names the materialized views the server-side plan reads;
	// Rescued marks a query that is not controllable over the base
	// relations and is served through a view rewriting.
	Views   []string
	Rescued bool
}

// Prepare compiles src for the controlling set ctrl on the server and
// returns the plan handle. Typed failures: core.ErrNotControllable when
// no bounded plan exists, server.AdmissionError when the static bound
// already exceeds the tenant's per-query SLA.
func (c *Client) Prepare(ctx context.Context, src string, ctrl ...string) (*Prepared, error) {
	var resp server.PrepareResponse
	if err := c.post(ctx, "/prepare", &server.PrepareRequest{Query: src, Ctrl: ctrl}, &resp); err != nil {
		return nil, err
	}
	return &Prepared{
		c:               c,
		Handle:          resp.Handle,
		Name:            resp.Name,
		Ctrl:            resp.Ctrl,
		Head:            resp.Head,
		BoundReads:      resp.BoundReads,
		BoundCandidates: resp.BoundCandidates,
		Explain:         resp.Explain,
		Views:           resp.Views,
		Rescued:         resp.Rescued,
	}, nil
}

// QueryOption configures one remote execution, mirroring the engine's
// ExecOptions.
type QueryOption func(*server.QueryRequest)

// WithLimit stops the stream after n answers; the server terminates the
// underlying cursor early, saving the remaining reads.
func WithLimit(n int) QueryOption { return func(r *server.QueryRequest) { r.Limit = n } }

// WithMaxReads sets a runtime read budget below the static bound; it
// also lowers the admission charge to min(bound, n).
func WithMaxReads(n int64) QueryOption { return func(r *server.QueryRequest) { r.MaxReads = n } }

// WithTimeout bounds the server-side execution deadline.
func WithTimeout(ms int64) QueryOption { return func(r *server.QueryRequest) { r.TimeoutMS = ms } }

// WithRequestID tags the execution with an end-to-end request
// identifier: the server threads it through the engine's per-call stats
// into slow-query log lines and echoes it back as X-SI-Request-ID.
func WithRequestID(id string) QueryOption {
	return func(r *server.QueryRequest) { r.RequestID = id }
}

// Rows is a streaming result cursor over the wire: the remote analogue
// of core.Rows. Iterate with Next/Tuple, inspect Err, always Close.
// Closing mid-stream tears the connection down, which cancels the
// server-side cursor and stops further reads.
type Rows struct {
	body  io.ReadCloser
	br    *bufio.Reader
	long  []byte         // a line longer than br's buffer, reassembled
	vals  relation.Tuple // ScanRowLine's scratch
	head  []string
	bound int64
	cur   relation.Tuple
	stats *server.QueryStats
	err   error
	done  bool
}

// Query starts a streaming execution of the prepared plan with the given
// bindings for its controlled variables. The returned cursor's first
// answers are available as soon as the server produces them.
func (p *Prepared) Query(ctx context.Context, fixed query.Bindings, opts ...QueryOption) (*Rows, error) {
	reqBody := &server.QueryRequest{Handle: p.Handle, Bind: server.EncodeBinds(fixed)}
	for _, o := range opts {
		o(reqBody)
	}
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.c.base+"/query", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-SI-Tenant", p.c.tenant)
	resp, err := p.c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	r := &Rows{body: resp.Body, br: bufio.NewReaderSize(resp.Body, lineBufSize)}
	var line server.QueryLine
	raw, err := r.readLine()
	if err == nil {
		err = json.Unmarshal(raw, &line)
	}
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("client: reading stream head: %w", err)
	}
	if line.Error != nil {
		resp.Body.Close()
		return nil, line.Error.Err()
	}
	r.head, r.bound = line.Head, line.Bound
	return r, nil
}

// lineBufSize is the stream reader's buffer; it holds any ordinary
// answer line, and a longer one is reassembled in Rows.long.
const lineBufSize = 512

// readLine returns the next stream line without its newline. The slice
// is valid until the next call. At the end of the stream it returns
// io.EOF; a last line cut short by the end comes back with a nil error,
// so decoding it reports the truncation.
func (r *Rows) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		r.long = append(r.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	switch {
	case err == nil:
		return line[:len(line)-1], nil
	case errors.Is(err, io.EOF) && len(line) > 0:
		return line, nil
	default:
		return nil, err
	}
}

// Next advances to the next answer, blocking until the server streams
// one. It returns false at end of stream or on error — check Err.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	raw, err := r.readLine()
	var line server.QueryLine
	if err == nil {
		var ok bool
		if r.vals, ok = server.ScanRowLine(r.vals[:0], raw); ok {
			r.cur = make(relation.Tuple, len(r.vals))
			copy(r.cur, r.vals)
			return true
		}
		err = json.Unmarshal(raw, &line)
	}
	if err != nil {
		r.done = true
		if !errors.Is(err, io.EOF) {
			r.err = fmt.Errorf("client: reading stream: %w", err)
		} else {
			r.err = fmt.Errorf("client: stream ended without stats line")
		}
		return false
	}
	switch {
	case line.Row != nil:
		r.cur = line.Row.Tuple()
		return true
	case line.Stats != nil:
		r.stats, r.done = line.Stats, true
		return false
	case line.Error != nil:
		r.err, r.done = line.Error.Err(), true
		return false
	default:
		r.err, r.done = fmt.Errorf("client: empty stream line"), true
		return false
	}
}

// Tuple returns the current answer (valid after a true Next).
func (r *Rows) Tuple() relation.Tuple { return r.cur }

// Head returns the answer's column names.
func (r *Rows) Head() []string { return r.head }

// Bound returns the enforced read bound the server admitted this
// execution under: min(static bound M, requested max_reads).
func (r *Rows) Bound() int64 { return r.bound }

// Err returns the terminal error, if any, after Next returns false.
func (r *Rows) Err() error { return r.err }

// Stats returns the server's accounting line — measured answers and
// TupleReads against the enforced bound. Non-nil only after the stream
// completed normally (Next returned false with nil Err).
func (r *Rows) Stats() *server.QueryStats { return r.stats }

// Close releases the cursor. Closing before the stream is drained
// disconnects, which cancels the server-side execution.
func (r *Rows) Close() error { return r.body.Close() }

// Exec runs the query to completion and returns all answers plus the
// server's accounting, mirroring PreparedQuery.Exec.
func (p *Prepared) Exec(ctx context.Context, fixed query.Bindings, opts ...QueryOption) ([]relation.Tuple, *server.QueryStats, error) {
	rows, err := p.Query(ctx, fixed, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		return nil, nil, err
	}
	return out, rows.Stats(), nil
}

// Commit applies one transactional update through the server.
func (c *Client) Commit(ctx context.Context, u *relation.Update) (*server.CommitResponse, error) {
	var resp server.CommitResponse
	if err := c.post(ctx, "/commit", server.EncodeUpdate(u), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CreateView materializes def as a transactionally maintained view on
// the server, with optional caller-supplied access entries on the view
// relation. Typed failures mirror Engine.CreateView
// (core.ErrWatchNotMaintainable for unmaintainable definitions).
func (c *Client) CreateView(ctx context.Context, def string, entries ...server.ViewEntry) (*server.ViewResponse, error) {
	var resp server.ViewResponse
	if err := c.post(ctx, "/views", &server.ViewRequest{Def: def, Entries: entries}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DropView retracts a view by name.
func (c *Client) DropView(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/views/"+name, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-SI-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return nil
}

// Views fetches the registered view states.
func (c *Client) Views(ctx context.Context) ([]server.ViewResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/views", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var vs []server.ViewResponse
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		return nil, err
	}
	return vs, nil
}

// Status fetches the server's /statusz observability snapshot.
func (c *Client) Status(ctx context.Context) (*server.Statusz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/statusz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var s server.Statusz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Watch subscribes to the prepared live query over SSE: the remote
// analogue of PreparedQuery.Watch. The initial snapshot is parsed before
// Watch returns; deltas then arrive via Next. Cancel ctx or Close to
// detach.
type Watch struct {
	cancel context.CancelFunc
	body   io.ReadCloser
	sc     *bufio.Scanner

	// Snapshot fields, valid from construction.
	Head []string
	Seq  int64
	Rows []relation.Tuple
}

// WatchDelta is one received delta event.
type WatchDelta = server.WatchDelta

// Watch opens the SSE stream for the prepared plan with the given
// bindings. reexec forces bounded re-execution for queries that are not
// incrementally maintainable.
func (p *Prepared) Watch(ctx context.Context, fixed query.Bindings, reexec bool) (*Watch, error) {
	ctx, cancel := context.WithCancel(ctx)
	vals := url.Values{"handle": {p.Handle}}
	if len(fixed) > 0 {
		b, err := json.Marshal(server.EncodeBinds(fixed))
		if err != nil {
			cancel()
			return nil, err
		}
		vals.Set("bind", string(b))
	}
	if reexec {
		vals.Set("reexec", "1")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.c.base+"/watch?"+vals.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("X-SI-Tenant", p.c.tenant)
	resp, err := p.c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer cancel()
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	w := &Watch{cancel: cancel, body: resp.Body, sc: bufio.NewScanner(resp.Body)}
	w.sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	event, data, err := w.nextEvent()
	if err != nil {
		w.Close()
		return nil, err
	}
	if event != "snapshot" {
		w.Close()
		if event == "error" {
			return nil, decodeEventError(data)
		}
		return nil, fmt.Errorf("client: watch: expected snapshot event, got %q", event)
	}
	var snap server.WatchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		w.Close()
		return nil, err
	}
	w.Head, w.Seq, w.Rows = snap.Head, snap.Seq, server.DecodeRows(snap.Rows)
	return w, nil
}

func decodeEventError(data []byte) error {
	var body struct {
		Error *server.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil || body.Error == nil {
		return fmt.Errorf("client: watch error event: %s", data)
	}
	return body.Error.Err()
}

// nextEvent scans one SSE event (event: line, data: line, blank line).
func (w *Watch) nextEvent() (event string, data []byte, err error) {
	for w.sc.Scan() {
		line := w.sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		case line == "":
			if event != "" || len(data) > 0 {
				return event, data, nil
			}
		}
	}
	if err := w.sc.Err(); err != nil {
		return "", nil, err
	}
	return "", nil, io.EOF
}

// Next blocks for the next delta event. It returns io.EOF after the
// server's clean "close" event (server drain or subscription close), and
// a typed error if the subscription failed engine-side.
func (w *Watch) Next() (WatchDelta, error) {
	event, data, err := w.nextEvent()
	if err != nil {
		return WatchDelta{}, err
	}
	switch event {
	case "delta":
		var d WatchDelta
		if err := json.Unmarshal(data, &d); err != nil {
			return WatchDelta{}, err
		}
		return d, nil
	case "close":
		return WatchDelta{}, io.EOF
	case "error":
		return WatchDelta{}, decodeEventError(data)
	default:
		return WatchDelta{}, fmt.Errorf("client: watch: unexpected event %q", event)
	}
}

// Close detaches the watch: the connection drops and the server frees
// the subscription. Idempotent.
func (w *Watch) Close() error {
	w.cancel()
	return w.body.Close()
}
