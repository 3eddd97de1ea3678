package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// metricsFamilies is the exporter's contract surface: every family the
// serving tier registers (the table in metrics.go), with its TYPE.
// Renaming or dropping a metric is a deliberate act here, not a silent
// dashboard break.
var metricsFamilies = map[string]obs.Kind{
	"si_query_latency_seconds":    obs.KindHistogram,
	"si_query_reads":              obs.KindHistogram,
	"si_queries_total":            obs.KindCounter,
	"si_admission_total":          obs.KindCounter,
	"si_admission_refund_reads":   obs.KindHistogram,
	"si_commits_total":            obs.KindCounter,
	"si_commit_phase_seconds":     obs.KindHistogram,
	"si_commit_maintenance_reads": obs.KindHistogram,
	"si_commit_view_reads":        obs.KindHistogram,
	"si_views_maintained_total":   obs.KindCounter,
	"si_view_queries_total":       obs.KindCounter,
	"si_watch_delta_lag":          obs.KindHistogram,
	"si_watch_folded_total":       obs.KindCounter,
	"si_plan_cache_ops_total":     obs.KindGauge,
	"si_engine_size":              obs.KindGauge,
	"si_engine_commit_seq":        obs.KindGauge,
	"si_engine_watchers":          obs.KindGauge,
	"si_shard_lsn_spread":         obs.KindGauge,
	"si_engine_views":             obs.KindGauge,
	"si_engine_view_epoch":        obs.KindGauge,
}

// TestMetricszOverWire mounts the serving tier with a live registry,
// drives every path that records metrics — admitted queries, a typed
// bound rejection, commits, a live watch delta — then scrapes GET
// /metricsz over HTTP and holds the exposition to account: it must pass
// the strict parser (obs.ParseText), carry every family in
// metricsFamilies with its TYPE, and its counters must account for the
// traffic just driven.
func TestMetricszOverWire(t *testing.T) {
	ctx := context.Background()
	ti := newTier(t, openSingle, server.Config{
		Policies: map[string]server.TenantPolicy{"strict": {MaxBound: 1}},
		Metrics:  obs.NewRegistry(),
	})
	bind := func(p int64) query.Bindings { return query.Bindings{"p": relation.Int(p)} }

	prep, err := ti.cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		t.Fatal(err)
	}
	const queries = 5
	for i := int64(0); i < queries; i++ {
		if _, _, err := prep.Exec(ctx, bind(i)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	strict := client.New(ti.hs.URL, client.WithHTTPClient(ti.hs.Client()), client.WithTenant("strict"))
	var adm *server.AdmissionError
	if _, err := strict.Prepare(ctx, workload.Q1Src, "p"); !errors.As(err, &adm) || adm.Reason != "bound" {
		t.Fatalf("strict tenant not rejected with a typed bound error: %v", err)
	}
	w, err := prep.Watch(ctx, bind(1), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const commits = 3
	for i := int64(0); i < commits; i++ {
		u := relation.NewUpdate()
		id := 900_000 + i
		u.Insert("person", relation.Tuple{relation.Int(id), relation.Str(fmt.Sprintf("m%d", i)), relation.Str("NYC")})
		u.Insert("friend", relation.Tuple{relation.Int(1), relation.Int(id)})
		if _, err := ti.cl.Commit(ctx, u); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if _, err := w.Next(); err != nil {
		t.Fatalf("watch delta: %v", err)
	}

	resp, err := ti.hs.Client().Get(ti.hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metricsz content-type %q, want text exposition 0.0.4", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v", err)
	}
	for name, kind := range metricsFamilies {
		f, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from /metricsz", name)
		} else if f.Type != kind {
			t.Errorf("family %s has TYPE %s, want %s", name, f.Type, kind)
		}
	}

	// sum adds the samples of a family whose labels match, counting a
	// histogram by its _count series.
	sum := func(name string, match map[string]string) float64 {
		var total float64
		f := fams[name]
		if f == nil {
			return 0
		}
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") || strings.HasSuffix(s.Name, "_sum") {
				continue
			}
			ok := true
			for k, v := range match {
				if s.Labels[k] != v {
					ok = false
				}
			}
			if ok {
				total += s.Value
			}
		}
		return total
	}
	if got := sum("si_queries_total", map[string]string{"outcome": "ok"}); got < queries {
		t.Errorf("si_queries_total{outcome=ok} = %v, want >= %d", got, queries)
	}
	if got := sum("si_admission_total", map[string]string{"outcome": "rejected_bound"}); got < 1 {
		t.Errorf("si_admission_total{outcome=rejected_bound} = %v, want >= 1", got)
	}
	if got := sum("si_commits_total", nil); got != commits {
		t.Errorf("si_commits_total = %v, want %d", got, commits)
	}
	if got := sum("si_query_latency_seconds", nil); got < queries {
		t.Errorf("si_query_latency_seconds count = %v, want >= %d", got, queries)
	}
	if got := sum("si_engine_commit_seq", nil); got != commits {
		t.Errorf("si_engine_commit_seq = %v, want %d", got, commits)
	}
}
