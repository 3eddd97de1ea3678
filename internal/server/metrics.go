package server

import (
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
)

// metrics is the serving tier's obs-registry wiring: handle caches for
// the hot-path families (resolved once at construction, so recording is
// an atomic add) plus scrape-time collectors for the gauges that mirror
// engine state. It implements core.Observer, receiving query and commit
// events from the engine's telemetry hook.
//
// Family names, by layer:
//
//	si_query_latency_seconds{name}   histogram  wall time per served query
//	si_query_reads{name}             histogram  TupleReads per served query
//	si_queries_total{name,outcome}   counter    ok | error
//	si_admission_total{tenant,outcome} counter  admitted | rejected_*
//	si_admission_refund_reads{tenant} histogram reserve − measured per release
//	si_plan_cache_ops_total{op}      gauge      hits | misses | evictions (scrape-time)
//	si_commits_total                 counter    commits through Engine.Commit
//	si_commit_phase_seconds{phase}   histogram  validate | maintain | apply | notify
//	si_commit_maintenance_reads      histogram  watcher maintenance reads per commit
//	si_commit_view_reads             histogram  view maintenance reads per commit
//	si_views_maintained_total        counter    view extents maintained by commits
//	si_view_queries_total{name,mode} counter    view-served queries: view | rescued
//	si_engine_views                  gauge      registered materialized views (scrape-time)
//	si_engine_view_epoch             gauge      view-set epoch (scrape-time)
//	si_watch_delta_lag               histogram  commit-seq lag at SSE delivery
//	si_watch_folded_total            counter    commits folded into coalesced deltas
//	si_engine_size                   gauge      |D| (scrape-time)
//	si_engine_commit_seq             gauge      last commit sequence (scrape-time)
//	si_engine_watchers               gauge      live subscriptions (scrape-time)
//	si_shard_lsn_spread              gauge      max−min per-shard LSN (scrape-time)
type metrics struct {
	reg *obs.Registry

	queryLatency obs.HistogramVec
	queryReads   obs.HistogramVec
	queries      obs.CounterVec
	admission    obs.CounterVec
	refund       obs.HistogramVec

	commits     obs.Counter
	commitPhase obs.HistogramVec
	maintReads  *obs.Histogram
	viewReads   *obs.Histogram
	viewsMaint  obs.Counter
	viewQueries obs.CounterVec

	watchLag    *obs.Histogram
	watchFolded obs.Counter

	planCacheOps obs.GaugeVec
	engineSize   obs.Gauge
	commitSeq    obs.Gauge
	watchers     obs.Gauge
	lsnSpread    obs.Gauge
	views        obs.Gauge
	viewEpoch    obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		reg:          reg,
		queryLatency: reg.Histogram("si_query_latency_seconds", "Wall time per served query.", "name"),
		queryReads:   reg.Histogram("si_query_reads", "Tuple reads charged per served query.", "name"),
		queries:      reg.Counter("si_queries_total", "Served query executions by outcome.", "name", "outcome"),
		admission:    reg.Counter("si_admission_total", "Admission decisions by tenant and outcome.", "tenant", "outcome"),
		refund:       reg.Histogram("si_admission_refund_reads", "Reserved-minus-measured reads refunded per release.", "tenant"),
		commits:      reg.Counter("si_commits_total", "Commits applied through the engine pipeline.").With(),
		commitPhase:  reg.Histogram("si_commit_phase_seconds", "Commit pipeline phase wall time.", "phase"),
		maintReads:   reg.Histogram("si_commit_maintenance_reads", "Watcher maintenance reads per commit.").With(),
		viewReads:    reg.Histogram("si_commit_view_reads", "Materialized-view maintenance reads per commit.").With(),
		viewsMaint:   reg.Counter("si_views_maintained_total", "View extents maintained inside commit pipelines.").With(),
		viewQueries:  reg.Counter("si_view_queries_total", "Queries served through materialized views, by mode (view = cheaper plan, rescued = base not controllable).", "name", "mode"),
		watchLag:     reg.Histogram("si_watch_delta_lag", "Engine commit-seq minus delta seq at SSE delivery.").With(),
		watchFolded:  reg.Counter("si_watch_folded_total", "Commits folded into coalesced watch deltas.").With(),
		planCacheOps: reg.Gauge("si_plan_cache_ops_total", "Plan cache lifetime counters.", "op"),
		engineSize:   reg.Gauge("si_engine_size", "Backend size |D| in tuples.").With(),
		commitSeq:    reg.Gauge("si_engine_commit_seq", "Last engine commit sequence number.").With(),
		watchers:     reg.Gauge("si_engine_watchers", "Registered live subscriptions.").With(),
		lsnSpread:    reg.Gauge("si_shard_lsn_spread", "Max minus min per-shard storage LSN (0 on single-node).").With(),
		views:        reg.Gauge("si_engine_views", "Registered materialized views.").With(),
		viewEpoch:    reg.Gauge("si_engine_view_epoch", "View-set epoch embedded in plan-cache keys.").With(),
	}
	return m
}

// ObserveQuery implements core.Observer: per-query latency and reads by
// query name.
func (m *metrics) ObserveQuery(ev core.QueryEvent) {
	m.queryLatency.With(ev.Query).ObserveDuration(ev.Wall)
	m.queryReads.With(ev.Query).Observe(float64(ev.Cost.TupleReads))
	outcome := "ok"
	if ev.Err != nil {
		outcome = "error"
	}
	m.queries.With(ev.Query, outcome).Inc()
	if len(ev.Views) > 0 {
		mode := "view"
		if ev.Rescued {
			mode = "rescued"
		}
		m.viewQueries.With(ev.Query, mode).Inc()
	}
}

// ObserveCommit implements core.Observer: the pipeline phase breakdown
// and maintenance cost.
func (m *metrics) ObserveCommit(ev core.CommitEvent) {
	m.commits.Inc()
	m.commitPhase.With("validate").ObserveDuration(ev.Phases.Validate)
	m.commitPhase.With("maintain").ObserveDuration(ev.Phases.Maintain)
	m.commitPhase.With("apply").ObserveDuration(ev.Phases.Apply)
	m.commitPhase.With("notify").ObserveDuration(ev.Phases.Notify)
	m.maintReads.Observe(float64(ev.Maintenance.TupleReads))
	if ev.Views > 0 {
		m.viewsMaint.Add(float64(ev.Views))
		m.viewReads.Observe(float64(ev.ViewReads))
	}
}

// admitted/rejected record one admission decision.
func (m *metrics) admitted(tenant string) { m.admission.With(tenant, "admitted").Inc() }

func (m *metrics) rejected(tenant, reason string) {
	m.admission.With(tenant, "rejected_"+reason).Inc()
}

// released records one settled execution's refund delta (reserve −
// measured): the honesty gap between the static bound a query was
// admitted under and what it actually read.
func (m *metrics) released(tenant string, charge, reads int64) {
	if refund := charge - reads; refund >= 0 {
		m.refund.With(tenant).Observe(float64(refund))
	}
}

// delta records one delivered watch delta: sequence lag against the
// engine's commit clock, and how many commits were folded into it.
func (m *metrics) delta(lag int64, folded int) {
	if lag >= 0 {
		m.watchLag.Observe(float64(lag))
	}
	if folded > 0 {
		m.watchFolded.Add(float64(folded))
	}
}

// collect refreshes the scrape-time gauges from live engine state. Called
// on every /metricsz scrape, under no locks beyond the engine's own.
func (m *metrics) collect(eng *core.Engine) {
	st := eng.Stats()
	m.planCacheOps.With("hits").Set(float64(st.PlanCache.Hits))
	m.planCacheOps.With("misses").Set(float64(st.PlanCache.Misses))
	m.planCacheOps.With("evictions").Set(float64(st.PlanCache.Evictions))
	m.engineSize.Set(float64(st.Size))
	m.commitSeq.Set(float64(st.CommitSeq))
	m.watchers.Set(float64(st.Watchers))
	m.views.Set(float64(st.Views))
	m.viewEpoch.Set(float64(st.ViewEpoch))
	vs := eng.DB.ShardVersions()
	m.lsnSpread.Set(float64(slices.Max(vs) - slices.Min(vs)))
}

// handleMetricsz serves GET /metricsz: scrape-time gauges refreshed, then
// the whole registry in Prometheus text format.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.met.collect(s.eng)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}
