package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// wireRig mounts the serving tier on a loopback socket inside this
// process — there is no child process to outlive the benchmark — and
// holds one client per load generator.
type wireRig struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	base string
	done chan error // Serve's return

	transports []*http.Transport
	clients    []*client.Client

	conns     atomic.Int64 // connections the server accepted
	respBytes atomic.Int64 // traced runs: bytes the /query handler wrote
	queries   atomic.Int64 // traced runs: /query requests handled
}

// generousBudget admits any traffic two connections can offer: admission
// reserves a query's static bound (≤ 10 250 reads) and refunds what it did
// not read, so the ledger runs on every request but never rejects.
const generousBudget = 50_000_000

func startWire(r *rig, clients int, tr *tracer) (*wireRig, error) {
	w := &wireRig{done: make(chan error, 1)}
	policies := map[string]server.TenantPolicy{}
	for c := 0; c < clients; c++ {
		policies[tenantName(c)] = server.TenantPolicy{ReadBudget: generousBudget, Window: time.Second}
	}
	w.srv = server.NewServer(server.Config{Engine: r.eng, Policies: policies, Metrics: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr = ln.Addr().String()
	w.base = "http://" + w.addr
	var h http.Handler = w.srv
	if tr != nil {
		h = w.timed(tr, w.srv)
	}
	w.hs = &http.Server{
		Handler: h,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				w.conns.Add(1)
			}
		},
	}
	go func() { w.done <- w.hs.Serve(ln) }()
	for c := 0; c < clients; c++ {
		t := &http.Transport{MaxIdleConnsPerHost: 1}
		w.transports = append(w.transports, t)
		w.clients = append(w.clients, client.New(w.base,
			client.WithTenant(tenantName(c)), client.WithHTTPClient(&http.Client{Transport: t})))
	}
	fmt.Printf("listening %s\n", w.addr)
	return w, nil
}

func tenantName(c int) string { return fmt.Sprintf("t%d", c) }

// countingWriter counts the bytes a handler writes; it stays a Flusher,
// which the query handler needs to stream row by row.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timed is the traced runs' middleware: a span around the handler, named
// after the endpoint, and the response size of every query.
func (w *wireRig) timed(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		name := ""
		switch req.URL.Path {
		case "/query":
			name = spHandler
		case "/prepare":
			name = spHandlerPrepare
		default:
			next.ServeHTTP(rw, req)
			return
		}
		cw := &countingWriter{ResponseWriter: rw}
		sp := tr.begin(name)
		next.ServeHTTP(cw, req)
		tr.end(sp)
		if name == spHandler && tr.enabled() {
			w.respBytes.Add(cw.n)
			w.queries.Add(1)
		}
	})
}

// newReader prepares the mix's queries once per client.
func (w *wireRig) newReader(ctx context.Context, m mix, check *oracle, tr *tracer) (*wireReader, error) {
	rd := &wireReader{check: check, tr: tr, acct: make([]tally, len(w.clients))}
	for _, cl := range w.clients {
		var hs [numQueries]*client.Prepared
		for q, weight := range m {
			if weight == 0 {
				continue
			}
			sp := tr.begin(spClient)
			p, err := cl.Prepare(ctx, queryPack[q].src, queryPack[q].ctrl...)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("prepare %s over the wire: %w", queryPack[q].name, err)
			}
			hs[q] = p
		}
		rd.handles = append(rd.handles, hs)
	}
	return rd, nil
}

// close takes the serving tier down the way a deployment would — drain,
// shut the listener and connections, drop the clients' idle connections —
// and then checks the port really is closed.
func (w *wireRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Drain(ctx)
	if serr := w.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	for _, t := range w.transports {
		t.CloseIdleConnections()
	}
	if serr := <-w.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if c, derr := net.DialTimeout("tcp", w.addr, time.Second); derr == nil {
		c.Close()
		if err == nil {
			err = fmt.Errorf("listener %s still accepts connections after shutdown", w.addr)
		}
	}
	return err
}
