package core

import (
	"log/slog"
	"time"

	"repro/internal/store"
)

// This file is the engine's telemetry seam: an Observer callback for
// metric exporters (internal/server feeds the obs registry through it)
// and a structured slow-query / slow-commit log over log/slog. Both are
// off by default; the query hot path pays nothing — not even a clock
// read — until SetTelemetry installs a sink.

// QueryEvent describes one finished evaluation (a drained Exec or a
// closed cursor), reported once per call.
type QueryEvent struct {
	// Query is the query name; RequestID the WithRequestID tag, if any.
	Query     string
	RequestID string
	// Wall is the cursor lifetime: open to close, which on the Exec/drain
	// path is the full evaluation time.
	Wall time.Duration
	// Cost is the work the call charged; Answers the tuples it produced.
	Cost    store.Counters
	Answers int
	// Views names the materialized views the executed plan read (empty
	// for a pure base plan); Rescued marks a plan serving a query that is
	// not controllable over the base relations (Plan.Views / Plan.Rescued).
	Views   []string
	Rescued bool
	// Err is the terminal error, nil on success.
	Err error
}

// CommitEvent describes one Engine.Commit, with the pipeline phase
// breakdown of CommitResult.Phases.
type CommitEvent struct {
	Seq      int64
	Size     int
	Watchers int
	// Maintenance is the total watcher maintenance work the commit
	// charged (CommitResult.Maintenance).
	Maintenance store.Counters
	// Views is the number of materialized views the commit maintained;
	// ViewReads the tuple reads that maintenance charged
	// (CommitResult.ViewsMaintained / ViewReads).
	Views     int
	ViewReads int64
	Phases    CommitPhases
	Err       error
}

// Observer receives engine telemetry. Implementations must be safe for
// concurrent calls and must not block: they run inline on the serving
// and commit paths.
type Observer interface {
	ObserveQuery(QueryEvent)
	ObserveCommit(CommitEvent)
}

// TelemetryConfig configures the engine's telemetry sinks. Zero fields
// disable the corresponding sink: a nil Logger means no slow log, a zero
// threshold logs nothing for that event class.
type TelemetryConfig struct {
	// Observer receives every query and commit event.
	Observer Observer
	// Logger receives slow-query and slow-commit records.
	Logger *slog.Logger
	// SlowQuery is the wall-time threshold at or above which a query is
	// logged; SlowCommit likewise for commits.
	SlowQuery  time.Duration
	SlowCommit time.Duration
}

// engineObs is the installed telemetry snapshot, read atomically by
// serving goroutines.
type engineObs struct{ cfg TelemetryConfig }

// SetTelemetry installs (or, with a zero config, removes) the engine's
// telemetry sinks. Safe to call while serving; in-flight calls use
// whichever snapshot they observed.
func (e *Engine) SetTelemetry(c TelemetryConfig) {
	if c == (TelemetryConfig{}) {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(&engineObs{cfg: c})
}

// telemetry returns the current snapshot, nil when telemetry is off.
func (e *Engine) telemetry() *engineObs {
	if e == nil {
		return nil
	}
	return e.obs.Load()
}

// observeQuery fans a finished evaluation out to the installed sinks.
func (o *engineObs) observeQuery(ev QueryEvent) {
	if o.cfg.Observer != nil {
		o.cfg.Observer.ObserveQuery(ev)
	}
	if o.cfg.Logger != nil && o.cfg.SlowQuery > 0 && ev.Wall >= o.cfg.SlowQuery {
		attrs := []any{
			slog.String("query", ev.Query),
			slog.Duration("wall", ev.Wall),
			slog.Int64("reads", ev.Cost.TupleReads),
			slog.Int("answers", ev.Answers),
		}
		if ev.RequestID != "" {
			attrs = append(attrs, slog.String("request_id", ev.RequestID))
		}
		if ev.Err != nil {
			attrs = append(attrs, slog.String("error", ev.Err.Error()))
		}
		o.cfg.Logger.Warn("slow query", attrs...)
	}
}

// observeCommit fans a finished commit out to the installed sinks.
func (o *engineObs) observeCommit(ev CommitEvent) {
	if o.cfg.Observer != nil {
		o.cfg.Observer.ObserveCommit(ev)
	}
	wall := ev.Phases.Total()
	if o.cfg.Logger != nil && o.cfg.SlowCommit > 0 && wall >= o.cfg.SlowCommit {
		attrs := []any{
			slog.Int64("seq", ev.Seq),
			slog.Duration("wall", wall),
			slog.Duration("validate", ev.Phases.Validate),
			slog.Duration("maintain", ev.Phases.Maintain),
			slog.Duration("apply", ev.Phases.Apply),
			slog.Duration("notify", ev.Phases.Notify),
			slog.Int("size", ev.Size),
			slog.Int("watchers", ev.Watchers),
		}
		if ev.Err != nil {
			attrs = append(attrs, slog.String("error", ev.Err.Error()))
		}
		o.cfg.Logger.Warn("slow commit", attrs...)
	}
}

// CommitPhases is the wall-time breakdown of one Engine.Commit, in
// pipeline order: watcher validation, pre-apply live maintenance
// (delta-query evaluation against the pre-state), the store apply, and
// watcher notification (post-apply evaluation plus delivery).
type CommitPhases struct {
	Validate time.Duration `json:"validate"`
	Maintain time.Duration `json:"maintain"`
	Apply    time.Duration `json:"apply"`
	Notify   time.Duration `json:"notify"`
}

// Total sums the phases: the commit's wall time inside the pipeline
// lock.
func (p CommitPhases) Total() time.Duration {
	return p.Validate + p.Maintain + p.Apply + p.Notify
}
