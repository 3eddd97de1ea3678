package core

// EngineStats is the engine's unified observability snapshot: one struct
// carrying everything a serving dashboard needs — plan-cache counters,
// the write path's sequence numbers and committed volume, and the live
// subscription population. Engine.Stats assembles it from the engine's
// atomic counters without stopping serving; the HTTP tier exposes it at
// GET /statusz (expvar-compatible JSON), where sibm's read_wire reads it
// after a load run.
type EngineStats struct {
	// Size is the backend's current |D| (total stored tuples).
	Size int `json:"size"`
	// PlanCache holds the plan cache's lifetime hit/miss/evict counters;
	// PlanCacheLen is its current residency.
	PlanCache    PlanCacheStats `json:"plan_cache"`
	PlanCacheLen int            `json:"plan_cache_len"`
	// Optimizer is the engine's current plan optimizer mode, rendered as
	// its EXPLAIN string ("off", "on").
	Optimizer string `json:"optimizer"`
	// CommitSeq is the engine's last commit sequence number (0 before the
	// first commit); StoreSeq the backend commit log's own LSN, 0 when the
	// backend is unversioned.
	CommitSeq int64 `json:"commit_seq"`
	StoreSeq  int64 `json:"store_seq"`
	// CommittedVolume is the cumulative committed tuple volume (insertions
	// + deletions) per relation since the engine was built.
	CommittedVolume map[string]int64 `json:"committed_volume"`
	// Watchers is the number of registered live subscriptions.
	Watchers int `json:"watchers"`
	// Views is the number of registered materialized views (broken ones
	// included); ViewEpoch the view-set epoch embedded in plan-cache keys.
	// Scalars with omitempty so a view-less engine marshals as before.
	Views     int   `json:"views,omitempty"`
	ViewEpoch int64 `json:"view_epoch,omitempty"`
}

// Stats snapshots the engine's observability counters in one call. Safe
// for concurrent use with serving; the snapshot is not atomic across
// fields (a commit may land between reading CommitSeq and StoreSeq), but
// every field is individually consistent.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		PlanCache:       e.PlanCacheStats(),
		PlanCacheLen:    e.PlanCacheLen(),
		Optimizer:       e.Optimizer().String(),
		CommitSeq:       e.CommitSeq(),
		CommittedVolume: e.CommittedVolume(),
		Watchers:        e.Watchers(),
		Views:           e.NumViews(),
		ViewEpoch:       e.ViewEpoch(),
	}
	if e.DB != nil {
		s.Size = e.DB.Size()
		s.StoreSeq = e.DB.Version()
	}
	return s
}
