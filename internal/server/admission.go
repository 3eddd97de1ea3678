package server

import (
	"sync"
	"time"
)

// TenantPolicy is one tenant's SLA contract with the serving tier. The
// success-tolerant discipline (after PIQL): because every prepared plan
// carries a static read bound M, the tier can decide *before running a
// query* whether it fits the tenant's resource envelope — and reject it
// with the bound attached, instead of letting an expensive query degrade
// everyone else mid-flight. A zero field means "unlimited" for that rule.
type TenantPolicy struct {
	// MaxBound rejects any query whose effective static bound — min(plan
	// bound M, client MaxReads) — exceeds it. This is the per-query SLA:
	// "no single request may be entitled to more than MaxBound reads".
	MaxBound int64
	// ReadBudget caps the tenant's cumulative admitted read entitlement
	// per Window. Admission reserves each query's effective bound against
	// the window; completion refunds the unused part (bound − measured
	// reads), so the budget tracks entitlement pessimistically and actual
	// consumption optimistically.
	ReadBudget int64
	// Window is the budget accounting window; 0 defaults to one second.
	Window time.Duration
	// MaxConcurrent caps the tenant's in-flight queries.
	MaxConcurrent int
}

// tenantState is one tenant's runtime admission ledger.
type tenantState struct {
	policy   TenantPolicy
	inflight int
	// spent is the read entitlement reserved in the current window;
	// windowEnd is when it resets.
	spent     int64
	windowEnd time.Time

	// Lifetime counters, surfaced at /statusz (sibm read_wire reads them
	// as server.admit_reject_share).
	admitted            int64
	rejectedBound       int64
	rejectedBudget      int64
	rejectedConcurrency int64
	measuredReads       int64
	measuredAnswers     int64
}

// TenantStats is one tenant's admission counters as served at /statusz.
type TenantStats struct {
	Admitted            int64 `json:"admitted"`
	RejectedBound       int64 `json:"rejected_bound"`
	RejectedBudget      int64 `json:"rejected_budget"`
	RejectedConcurrency int64 `json:"rejected_concurrency"`
	Inflight            int   `json:"inflight"`
	// MeasuredReads is the sum of actual TupleReads over completed
	// queries — always ≤ the entitlement the same queries reserved.
	MeasuredReads   int64 `json:"measured_reads"`
	MeasuredAnswers int64 `json:"measured_answers"`
}

// admitter enforces per-tenant policies. All state is guarded by one
// mutex: admission is a handful of integer comparisons, never I/O.
type admitter struct {
	mu       sync.Mutex
	def      TenantPolicy
	policies map[string]TenantPolicy
	tenants  map[string]*tenantState
}

func newAdmitter(def TenantPolicy, policies map[string]TenantPolicy) *admitter {
	return &admitter{def: def, policies: policies, tenants: map[string]*tenantState{}}
}

func (a *admitter) state(tenant string) *tenantState {
	ts := a.tenants[tenant]
	if ts == nil {
		pol, ok := a.policies[tenant]
		if !ok {
			pol = a.def
		}
		if pol.Window <= 0 {
			pol.Window = time.Second
		}
		ts = &tenantState{policy: pol}
		a.tenants[tenant] = ts
	}
	return ts
}

// checkBound is the prepare-time SLA check: does a plan with static bound
// M fit this tenant's per-query ceiling at all? It reserves nothing.
func (a *admitter) checkBound(tenant string, bound int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.state(tenant)
	if ts.policy.MaxBound > 0 && bound > ts.policy.MaxBound {
		ts.rejectedBound++
		return &AdmissionError{Tenant: tenant, Reason: "bound", Bound: bound, Limit: ts.policy.MaxBound}
	}
	return nil
}

// admit runs the full admission decision for one query execution with
// effective read entitlement `charge` (= min(plan bound, client
// MaxReads)). On success it reserves the charge against the tenant's
// window budget and an in-flight slot; the caller MUST call release
// exactly once with the measured reads. On failure it returns the typed
// rejection and reserves nothing.
func (a *admitter) admit(tenant string, charge int64, now time.Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.state(tenant)
	if ts.policy.MaxConcurrent > 0 && ts.inflight >= ts.policy.MaxConcurrent {
		ts.rejectedConcurrency++
		return &AdmissionError{Tenant: tenant, Reason: "concurrency", Bound: charge, Limit: int64(ts.policy.MaxConcurrent)}
	}
	if ts.policy.MaxBound > 0 && charge > ts.policy.MaxBound {
		ts.rejectedBound++
		return &AdmissionError{Tenant: tenant, Reason: "bound", Bound: charge, Limit: ts.policy.MaxBound}
	}
	if ts.policy.ReadBudget > 0 {
		if now.After(ts.windowEnd) {
			ts.spent = 0
			ts.windowEnd = now.Add(ts.policy.Window)
		}
		if ts.spent+charge > ts.policy.ReadBudget {
			ts.rejectedBudget++
			return &AdmissionError{Tenant: tenant, Reason: "budget", Bound: charge, Limit: ts.policy.ReadBudget - ts.spent}
		}
		ts.spent += charge
	}
	ts.inflight++
	ts.admitted++
	return nil
}

// release settles an admitted query: the in-flight slot frees, and the
// window budget refunds the unused entitlement (charge − reads, never
// negative — a query that read less than it was entitled to gives the
// difference back to its tenant's window).
func (a *admitter) release(tenant string, charge, reads, answers int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.state(tenant)
	ts.inflight--
	if refund := charge - reads; refund > 0 && ts.policy.ReadBudget > 0 {
		ts.spent -= refund
		if ts.spent < 0 {
			ts.spent = 0
		}
	}
	ts.measuredReads += reads
	ts.measuredAnswers += answers
}

// stats snapshots every tenant's counters.
func (a *admitter) stats() map[string]TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantStats, len(a.tenants))
	for name, ts := range a.tenants {
		out[name] = TenantStats{
			Admitted:            ts.admitted,
			RejectedBound:       ts.rejectedBound,
			RejectedBudget:      ts.rejectedBudget,
			RejectedConcurrency: ts.rejectedConcurrency,
			Inflight:            ts.inflight,
			MeasuredReads:       ts.measuredReads,
			MeasuredAnswers:     ts.measuredAnswers,
		}
	}
	return out
}
