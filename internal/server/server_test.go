package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// tier is one server-under-test: an engine over a backend, the HTTP
// serving tier on top, and a client talking to it over a real socket.
type tier struct {
	eng *core.Engine
	srv *server.Server
	hs  *httptest.Server
	cl  *client.Client
}

type openFunc func(*relation.Database, *access.Schema) (store.Backend, error)

func openSingle(d *relation.Database, a *access.Schema) (store.Backend, error) {
	return store.Open(d, a)
}

func openShard4(d *relation.Database, a *access.Schema) (store.Backend, error) {
	return shard.Open(d, a, 4)
}

func newTier(t *testing.T, open openFunc, cfg server.Config, copts ...client.Option) *tier {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.Persons = 120
	wcfg.Seed = 7
	data, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := open(data, workload.Access(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(b)
	cfg.Engine = eng
	srv := server.NewServer(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	copts = append([]client.Option{client.WithHTTPClient(hs.Client())}, copts...)
	return &tier{eng: eng, srv: srv, hs: hs, cl: client.New(hs.URL, copts...)}
}

// wireCase is one conformance query: source, controlling set, binding
// generator over the test workload.
type wireCase struct {
	name string
	src  string
	ctrl []string
	bind func(i int) query.Bindings
}

func wireCases() []wireCase {
	p := func(i int) query.Bindings {
		return query.Bindings{"p": relation.Int(int64(i % 120))}
	}
	return []wireCase{
		{"Q1", workload.Q1Src, []string{"p"}, p},
		{"Q2", workload.Q2Src, []string{"p"}, p},
		{"Q3", workload.Q3Src, []string{"p", "yy"}, func(i int) query.Bindings {
			years := workload.DefaultConfig().Years
			return query.Bindings{
				"p":  relation.Int(int64(i % 120)),
				"yy": relation.Int(int64(years[i%len(years)])),
			}
		}},
		{"Q4", backendtest.Q4Src, []string{"p"}, p},
		{"Q5", backendtest.Q5Src, []string{"p"}, p},
	}
}

// TestWireConformance is the acceptance gate for the wire protocol: on a
// single-node backend and on 4 shards, every experiment query served
// over HTTP returns bit-identical answers AND bit-identical TupleReads
// to an in-process Exec on the same engine, and every served execution
// respects the static bound it advertised at prepare time.
func TestWireConformance(t *testing.T) {
	backends := []struct {
		name string
		open openFunc
	}{{"single", openSingle}, {"shard4", openShard4}}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ctx := context.Background()
			ti := newTier(t, be.open, server.Config{})
			for _, qc := range wireCases() {
				remote, err := ti.cl.Prepare(ctx, qc.src, qc.ctrl...)
				if err != nil {
					t.Fatalf("%s: remote prepare: %v", qc.name, err)
				}
				local := mustPrepare(t, ti.eng, qc.src, qc.ctrl)
				if remote.BoundReads != local.Plan().Bound.Reads {
					t.Fatalf("%s: wire bound %d, in-process bound %d", qc.name, remote.BoundReads, local.Plan().Bound.Reads)
				}
				if remote.Explain == "" || !strings.Contains(remote.Explain, qc.name) {
					t.Fatalf("%s: EXPLAIN missing from prepare response: %q", qc.name, remote.Explain)
				}
				for i := 0; i < 12; i++ {
					fixed := qc.bind(i * 11)
					want, err := local.Exec(ctx, fixed)
					if err != nil {
						t.Fatalf("%s %v in-process: %v", qc.name, fixed, err)
					}
					tuples, stats, err := remote.Exec(ctx, fixed)
					if err != nil {
						t.Fatalf("%s %v over wire: %v", qc.name, fixed, err)
					}
					got := relation.NewTupleSet(len(tuples))
					got.AddAll(tuples)
					if !got.Equal(want.Tuples) {
						t.Fatalf("%s %v: %d answers over wire, %d in-process", qc.name, fixed, got.Len(), want.Tuples.Len())
					}
					if stats.Reads != want.Cost.TupleReads {
						t.Fatalf("%s %v: wire charged %d tuple reads, in-process %d", qc.name, fixed, stats.Reads, want.Cost.TupleReads)
					}
					if stats.Reads > remote.BoundReads {
						t.Fatalf("%s %v: %d reads exceed advertised bound %d", qc.name, fixed, stats.Reads, remote.BoundReads)
					}
				}
			}
			// Re-preparing an identical query returns the same handle.
			r1, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
			if err != nil {
				t.Fatal(err)
			}
			r2, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
			if err != nil {
				t.Fatal(err)
			}
			if r1.Handle != r2.Handle {
				t.Fatalf("re-prepare minted a new handle: %s vs %s", r1.Handle, r2.Handle)
			}
		})
	}
}

// TestWireBoolean runs Boolean queries over the wire: a true one streams
// one zero-arity answer ({"row":[]}), a false one none, and the client's
// Exec equals the in-process Exec for both.
func TestWireBoolean(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})
	for _, c := range []struct {
		src  string
		want int
	}{
		{"B() :- friend(1, id)", 1},
		{"B() :- friend(-1, id)", 0},
	} {
		remote, err := ti.cl.Prepare(ctx, c.src)
		if err != nil {
			t.Fatalf("%s: remote prepare: %v", c.src, err)
		}
		want, err := mustPrepare(t, ti.eng, c.src, nil).Exec(ctx, nil)
		if err != nil {
			t.Fatalf("%s in-process: %v", c.src, err)
		}
		tuples, stats, err := remote.Exec(ctx, nil)
		if err != nil {
			t.Fatalf("%s over wire: %v", c.src, err)
		}
		got := relation.NewTupleSet(len(tuples))
		got.AddAll(tuples)
		if len(tuples) != c.want || !got.Equal(want.Tuples) {
			t.Fatalf("%s: %v over wire, %v in-process, want %d answers", c.src, tuples, want.Tuples.Tuples(), c.want)
		}
		for _, tup := range tuples {
			if len(tup) != 0 {
				t.Fatalf("%s: Boolean answer %v has arity %d", c.src, tup, len(tup))
			}
		}
		if stats.Answers != int64(c.want) || stats.Reads != want.Cost.TupleReads {
			t.Fatalf("%s: stats %+v, in-process reads %d", c.src, stats, want.Cost.TupleReads)
		}
	}
}

// TestWireLimitBudgetDeadline pins the execution controls over the wire:
// LIMIT early-terminates server-side (fewer reads than the full drain),
// max_reads surfaces ErrBudgetExceeded through the stream, and an
// expired deadline surfaces ErrCanceled.
func TestWireLimitBudgetDeadline(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})
	remote, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	// Find a multi-answer binding.
	var fixed query.Bindings
	var full *server.QueryStats
	for i := 0; i < 120 && full == nil; i++ {
		f := query.Bindings{"p": relation.Int(int64(i))}
		tuples, stats, err := remote.Exec(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) >= 2 {
			fixed, full = f, stats
		}
	}
	if full == nil {
		t.Fatal("no multi-answer binding in the workload")
	}

	tuples, stats, err := remote.Exec(ctx, fixed, client.WithLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("LIMIT 1 delivered %d answers", len(tuples))
	}
	if stats.Reads >= full.Reads {
		t.Fatalf("limited execution charged %d reads, full drain %d — early termination saved nothing over the wire", stats.Reads, full.Reads)
	}

	if _, _, err := remote.Exec(ctx, fixed, client.WithMaxReads(full.Reads-1)); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("max_reads %d: err = %v, want ErrBudgetExceeded", full.Reads-1, err)
	}
	// The admission charge drops to the requested budget: the enforced
	// bound in the stream head reflects min(M, max_reads).
	rows, err := remote.Query(ctx, fixed, client.WithMaxReads(full.Reads))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Bound() != full.Reads {
		t.Fatalf("enforced bound %d, want min(M, max_reads) = %d", rows.Bound(), full.Reads)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()

	if _, _, err := remote.Exec(ctx, fixed, client.WithTimeout(1)); err == nil {
		// A 1ms deadline may still finish on a fast machine; only a
		// returned error must be the typed one.
		t.Log("1ms deadline finished in time; deadline typing not exercised")
	} else if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("deadline err = %v, want ErrCanceled", err)
	}
}

// TestWireTypedErrors pins the error taxonomy across the wire: each
// failure mode comes back as the same sentinel an in-process caller
// would have seen.
func TestWireTypedErrors(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})

	// Not controllable: Q1 with an empty controlling set has no bounded plan.
	if _, err := ti.cl.Prepare(ctx, workload.Q1Src); !errors.Is(err, core.ErrNotControllable) {
		t.Fatalf("uncontrolled prepare: err = %v, want ErrNotControllable", err)
	}
	// Parse failure.
	if _, err := ti.cl.Prepare(ctx, "not a query", "p"); err == nil {
		t.Fatal("garbage query prepared successfully")
	}
	// Unknown handle.
	bogus := &server.QueryRequest{Handle: "h999"}
	_ = bogus
	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	stale := *prep
	stale.Handle = "h999"
	if _, _, err := stale.Exec(ctx, query.Bindings{"p": relation.Int(1)}); err == nil || !strings.Contains(err.Error(), "h999") {
		t.Fatalf("unknown handle: err = %v, want not-found mentioning the handle", err)
	}
	// Invalid update: deleting an absent tuple.
	u := relation.NewUpdate()
	u.Delete("person", relation.Tuple{relation.Int(9_999_999), relation.Str("ghost"), relation.Str("NYC")})
	if _, err := ti.cl.Commit(ctx, u); !errors.Is(err, core.ErrInvalidUpdate) {
		t.Fatalf("invalid commit: err = %v, want ErrInvalidUpdate", err)
	}
}

// TestAdmissionOverWire pins the success-tolerant gate: a tenant whose
// SLA the static bound exceeds is rejected at prepare time with the
// bound in the typed error; a windowed read budget rejects the
// overflowing query and refunds completed ones; an unlimited tenant on
// the same server is unaffected.
func TestAdmissionOverWire(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{
		Policies: map[string]server.TenantPolicy{
			"small":   {MaxBound: 1},
			"budget1": {ReadBudget: 1, Window: time.Hour},
		},
	})

	small := client.New(ti.hs.URL, client.WithHTTPClient(ti.hs.Client()), client.WithTenant("small"))
	_, err := small.Prepare(ctx, workload.Q1Src, "p")
	var adm *server.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("small-tenant prepare: err = %v, want AdmissionError", err)
	}
	if adm.Reason != "bound" || adm.Bound <= adm.Limit || adm.Limit != 1 {
		t.Fatalf("admission error %+v: want bound rejection with M > 1", adm)
	}
	if !errors.Is(err, server.ErrAdmission) || !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("admission error does not wrap the sentinels: %v", err)
	}

	// The default tenant is unlimited: same query sails through.
	if _, err := ti.cl.Prepare(ctx, workload.Q1Src, "p"); err != nil {
		t.Fatalf("default tenant rejected: %v", err)
	}

	// A 1-read hourly budget admits nothing with a larger bound.
	b1 := client.New(ti.hs.URL, client.WithHTTPClient(ti.hs.Client()), client.WithTenant("budget1"))
	prep, err := b1.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatalf("budget tenant prepare (bound check only): %v", err)
	}
	_, _, err = prep.Exec(ctx, query.Bindings{"p": relation.Int(1)})
	if !errors.As(err, &adm) || adm.Reason != "budget" {
		t.Fatalf("budget tenant exec: err = %v, want budget AdmissionError", err)
	}
	// ... unless the client lowers its own entitlement to fit the window.
	if _, _, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(1)}, client.WithMaxReads(1)); err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("budget tenant exec with max_reads=1: %v", err)
	}

	st, err := ti.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants["small"].RejectedBound == 0 {
		t.Fatalf("statusz does not count the bound rejection: %+v", st.Tenants["small"])
	}
	if st.Tenants["budget1"].RejectedBudget == 0 {
		t.Fatalf("statusz does not count the budget rejection: %+v", st.Tenants["budget1"])
	}
}

// TestWatchOverWire drives a live query over SSE: snapshot, then deltas
// for commits, then a clean close; the engine-side subscription is freed
// on client close.
func TestWatchOverWire(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})
	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	w, err := prep.Watch(ctx, query.Bindings{"p": relation.Int(1)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Head) == 0 {
		t.Fatal("watch snapshot has no head")
	}
	base := relation.NewTupleSet(len(w.Rows))
	base.AddAll(w.Rows)

	// A commit adding a friend for p=1 must arrive as an Ins delta.
	u := relation.NewUpdate()
	u.Insert("person", relation.Tuple{relation.Int(800_001), relation.Str("wire-w"), relation.Str("NYC")})
	u.Insert("friend", relation.Tuple{relation.Int(1), relation.Int(800_001)})
	cres, err := ti.cl.Commit(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Seq == 0 || cres.Watchers != 1 {
		t.Fatalf("commit result %+v: want seq > 0 and 1 watcher notified", cres)
	}
	d, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != cres.Seq || len(d.Ins) != 1 {
		t.Fatalf("delta %+v: want Seq %d with 1 Ins", d, cres.Seq)
	}
	if d.Reads > d.Bound {
		t.Fatalf("delta charged %d reads over bound %d", d.Reads, d.Bound)
	}
	got := d.Ins[0].Tuple()
	if got[len(got)-1].AsString() != "wire-w" {
		t.Fatalf("delta Ins = %v, want the new friend's name", got)
	}

	w.Close()
	deadline := time.Now().Add(5 * time.Second)
	for ti.eng.Watchers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine still has %d watchers after client close", ti.eng.Watchers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMidStreamDisconnect closes a query stream before draining it: the
// server must settle admission (in-flight back to zero) and keep serving.
func TestMidStreamDisconnect(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})
	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	var fixed query.Bindings
	for i := 0; i < 120; i++ {
		f := query.Bindings{"p": relation.Int(int64(i))}
		tuples, _, err := prep.Exec(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) >= 2 {
			fixed = f
			break
		}
	}
	if fixed == nil {
		t.Fatal("no multi-answer binding")
	}
	rows, err := prep.Query(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	rows.Close() // disconnect mid-stream

	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := ti.cl.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tenants["default"].Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight not settled after disconnect: %+v", st.Tenants["default"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The tier still serves.
	if _, _, err := prep.Exec(ctx, fixed); err != nil {
		t.Fatalf("query after disconnect: %v", err)
	}
}

// TestDrain verifies graceful shutdown: watchers get a clean close, new
// requests get the typed draining refusal, and Drain returns once the
// tier is empty.
func TestDrain(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})
	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	w, err := prep.Watch(ctx, query.Bindings{"p": relation.Int(1)}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- ti.srv.Drain(drainCtx) }()

	// The watcher sees the clean close event, not a dropped connection.
	if _, err := w.Next(); err != io.EOF {
		t.Fatalf("watch during drain: err = %v, want io.EOF (clean close)", err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// New work is refused with the draining error; statusz still answers.
	if _, err := ti.cl.Prepare(ctx, workload.Q1Src, "p"); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("prepare on drained server: err = %v, want draining refusal", err)
	}
	st, err := ti.cl.Status(ctx)
	if err != nil {
		t.Fatalf("statusz on drained server: %v", err)
	}
	if !st.Draining {
		t.Fatal("statusz does not report draining")
	}
}

// TestStatusz spot-checks the unified snapshot: engine stats, handles,
// and tenant ledgers all present after some traffic.
func TestStatusz(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{})
	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Exec(ctx, query.Bindings{"p": relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	st, err := ti.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Size == 0 || st.Engine.PlanCacheLen == 0 {
		t.Fatalf("engine stats empty: %+v", st.Engine)
	}
	if st.Handles != 1 {
		t.Fatalf("Handles = %d, want 1", st.Handles)
	}
	def := st.Tenants["default"]
	if def.Admitted == 0 || def.MeasuredReads == 0 {
		t.Fatalf("default tenant ledger empty: %+v", def)
	}
}

// TestConcurrentClientsAndCommitters races streaming HTTP clients
// against committers through the live serving tier (run under -race):
// every served query must stay within its advertised bound, the tier
// must end balanced (no stuck in-flight slots), and no goroutine the
// tier spawned may survive Drain plus shutdown. Server tests do not run
// in parallel, so the goroutine count is this test's own.
func TestConcurrentClientsAndCommitters(t *testing.T) {
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	ti := newTier(t, openShard4, server.Config{})
	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	const clients, queriesEach, commits = 4, 15, 20
	var wg sync.WaitGroup
	errCh := make(chan error, clients*queriesEach+commits)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				fixed := query.Bindings{"p": relation.Int(int64((c*31 + i*7) % 120))}
				_, stats, err := prep.Exec(ctx, fixed)
				if err != nil {
					errCh <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				if stats.Reads > prep.BoundReads {
					errCh <- fmt.Errorf("client %d query %d: %d reads exceed bound %d", c, i, stats.Reads, prep.BoundReads)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			u := relation.NewUpdate()
			id := int64(810_000 + i)
			u.Insert("person", relation.Tuple{relation.Int(id), relation.Str(fmt.Sprintf("rw%d", i)), relation.Str("NYC")})
			u.Insert("friend", relation.Tuple{relation.Int(int64(i % 120)), relation.Int(id)})
			if _, err := ti.cl.Commit(ctx, u); err != nil {
				errCh <- fmt.Errorf("commit %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st, err := ti.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants["default"].Inflight != 0 {
		t.Fatalf("in-flight slots leaked: %+v", st.Tenants["default"])
	}
	if st.Engine.CommitSeq != commits {
		t.Fatalf("CommitSeq = %d, want %d", st.Engine.CommitSeq, commits)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := ti.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ti.hs.Close() // also closes the client's idle connections
	// Connection goroutines wind down asynchronously; give them 3 s to
	// return the count to its baseline exactly, so one leak fails.
	deadline := time.Now().Add(3 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running after drain and shutdown, baseline %d", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func mustPrepare(t *testing.T, eng *core.Engine, src string, ctrl []string) *core.PreparedQuery {
	t.Helper()
	q := mustParse(t, src)
	p, err := eng.Prepare(q, query.NewVarSet(ctrl...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustParse(t *testing.T, src string) *query.Query {
	t.Helper()
	if cq, err := parser.ParseCQ(src); err == nil {
		q, err := cq.Query()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestViewsOverWire drives the view lifecycle through the HTTP tier on
// single-node and 4-shard backends: a non-controllable query is rejected,
// rescued after POST /views (with the provenance on the prepare
// response), served with bit-identical answers to an in-process Exec
// within the advertised bound, maintained transactionally by wire
// commits, and rejected again after DELETE /views.
func TestViewsOverWire(t *testing.T) {
	backends := []struct {
		name string
		open openFunc
	}{{"single", openSingle}, {"shard4", openShard4}}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ctx := context.Background()
			ti := newTier(t, be.open, server.Config{})
			if _, err := ti.cl.Prepare(ctx, backendtest.Q6Src, "p"); !errors.Is(err, core.ErrNotControllable) {
				t.Fatalf("Q6 over base relations: got %v, want ErrNotControllable", err)
			}

			vcfg := workload.DefaultConfig()
			info, err := ti.cl.CreateView(ctx, backendtest.VFolSrc,
				server.ViewEntry{On: []string{"p"}, N: vcfg.MaxFriends + 64, T: 1})
			if err != nil {
				t.Fatalf("CreateView: %v", err)
			}
			if info.Name != "VFol" || info.Rows == 0 {
				t.Fatalf("unexpected view info %+v", info)
			}
			vs, err := ti.cl.Views(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != 1 || vs[0].Name != "VFol" {
				t.Fatalf("GET /views: %+v", vs)
			}

			remote, err := ti.cl.Prepare(ctx, backendtest.Q6Src, "p")
			if err != nil {
				t.Fatalf("Q6 after CreateView: %v", err)
			}
			if !remote.Rescued || len(remote.Views) != 1 || remote.Views[0] != "VFol" {
				t.Fatalf("prepare response lacks rescue provenance: views=%v rescued=%v", remote.Views, remote.Rescued)
			}
			if !strings.Contains(remote.Explain, "VFol") || !strings.Contains(remote.Explain, "view freshness:") {
				t.Fatalf("wire EXPLAIN misses view provenance:\n%s", remote.Explain)
			}

			local := mustPrepare(t, ti.eng, backendtest.Q6Src, []string{"p"})
			for i := 0; i < 8; i++ {
				fixed := query.Bindings{"p": relation.Int(int64(i * 13 % 120))}
				want, err := local.Exec(ctx, fixed)
				if err != nil {
					t.Fatal(err)
				}
				tuples, stats, err := remote.Exec(ctx, fixed)
				if err != nil {
					t.Fatal(err)
				}
				got := relation.NewTupleSet(len(tuples))
				got.AddAll(tuples)
				if !got.Equal(want.Tuples) {
					t.Fatalf("p=%v: wire %d answers, in-process %d", fixed["p"], got.Len(), want.Tuples.Len())
				}
				if stats.Reads > remote.BoundReads {
					t.Fatalf("p=%v: %d reads exceed advertised bound %d", fixed["p"], stats.Reads, remote.BoundReads)
				}
			}

			// A friend-touching wire commit maintains the view inside the
			// pipeline and the freshness seq tracks the commit seq.
			u := relation.NewUpdate().Insert("friend", relation.Ints(3, 119)).Insert("friend", relation.Ints(119, 3))
			cres, err := ti.cl.Commit(ctx, u)
			if err != nil {
				t.Fatal(err)
			}
			if cres.ViewsMaintained == 0 {
				t.Fatalf("commit response reports no view maintenance: %+v", cres)
			}
			st, err := ti.cl.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Views) != 1 || st.Views[0].FreshSeq != st.Engine.CommitSeq {
				t.Fatalf("statusz views stale: %+v vs commit seq %d", st.Views, st.Engine.CommitSeq)
			}

			if err := ti.cl.DropView(ctx, "VFol"); err != nil {
				t.Fatal(err)
			}
			if _, err := ti.cl.Prepare(ctx, backendtest.Q6Src, "p"); !errors.Is(err, core.ErrNotControllable) {
				t.Fatalf("Q6 after DropView: got %v, want ErrNotControllable", err)
			}
			if vs, err := ti.cl.Views(ctx); err != nil || len(vs) != 0 {
				t.Fatalf("views after drop: %v %v", vs, err)
			}
		})
	}
}

// A data fault is not the client's bad request: when the stored data
// breaks its access schema (person 7 has 55 friends under N = 50), /query
// answers 500 with code access_violation, and the client maps it back to
// core.ErrAccessViolation.
func TestWireAccessViolation(t *testing.T) {
	ctx := context.Background()
	wcfg := workload.DefaultConfig()
	wcfg.Persons = 200
	data, err := backendtest.OverfullFriends(wcfg, 7, 55)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Open(data, workload.Access(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.NewServer(server.Config{Engine: core.NewEngine(b)}))
	t.Cleanup(hs.Close)
	cl := client.New(hs.URL, client.WithHTTPClient(hs.Client()))
	prep, err := cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	fixed := query.Bindings{"p": relation.Int(7)}
	if _, _, err := prep.Exec(ctx, fixed); !errors.Is(err, core.ErrAccessViolation) {
		t.Fatalf("client Exec: err = %v, want core.ErrAccessViolation", err)
	}
	body, _ := json.Marshal(server.QueryRequest{Handle: prep.Handle, Bind: server.EncodeBinds(fixed)})
	resp, err := hs.Client().Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb struct{ Error server.ErrorBody }
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 || eb.Error.Code != server.CodeAccessViolation {
		t.Fatalf("POST /query: status %d, code %q (%s); want 500 %q",
			resp.StatusCode, eb.Error.Code, eb.Error.Message, server.CodeAccessViolation)
	}
}
