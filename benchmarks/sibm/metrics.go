package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one row of BENCHMARK.json. The file is the contract; these
// tables are what the program prints, and contract_test.go holds the two
// together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, from its untraced run; README.md says what
// each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.24},
	{"p50_us", "us", lower, 0.24},
	{"p99_us", "us", lower, 0.20},
	{"ttfr_p50_us", "us", lower, 0.24},
	{"scale_ratio", "ratio", lower, 0.20},
	{"heap_bytes_per_tuple", "B/tuple", lower, 0.05},
	{"delta_lag_p50_us", "us", lower, 0.24},
	{"side_read_p50_us", "us", lower, 0.24},
	{"side_read_ops_per_s", "1/s", higher, 0.24},
}

// perLayer are the single-layer metrics of the traced run, prefixed by the
// module they measure. A workload reports 0 for a layer it does not use.
var perLayer = []metricDef{
	{Name: "parser.parse_us", Unit: "us", Better: lower},
	{Name: "parser.share", Unit: "ratio", Better: lower},

	{Name: "core.prepare_cold_us", Unit: "us", Better: lower},
	{Name: "core.prepare_hit_us", Unit: "us", Better: lower},
	{Name: "core.plan_cache_hit_rate", Unit: "ratio", Better: higher},
	{Name: "core.plan_cache_evictions", Unit: "count", Better: lower},
	{Name: "core.exec_us", Unit: "us", Better: lower},
	{Name: "core.commit_validate_us", Unit: "us", Better: lower},
	{Name: "core.commit_maintain_us", Unit: "us", Better: lower},
	{Name: "core.commit_apply_us", Unit: "us", Better: lower},
	{Name: "core.commit_notify_us", Unit: "us", Better: lower},
	{Name: "core.commit_wait_us", Unit: "us", Better: lower},
	{Name: "core.maint_reads_per_commit", Unit: "count", Better: lower},
	{Name: "core.watchers_per_commit", Unit: "count", Better: lower},
	{Name: "core.delta_bound_use", Unit: "ratio", Better: lower},
	{Name: "core.delta_folded_share", Unit: "ratio", Better: lower},

	{Name: "plan.self_us", Unit: "us", Better: lower},
	{Name: "plan.self_share", Unit: "ratio", Better: lower},
	{Name: "plan.us_per_read", Unit: "us", Better: lower},
	{Name: "plan.allocs_per_op", Unit: "count", Better: lower},
	{Name: "plan.bytes_per_op", Unit: "B", Better: lower},

	{Name: "store.fetch_us", Unit: "us", Better: lower},
	{Name: "store.membership_us", Unit: "us", Better: lower},
	{Name: "store.calls_per_op", Unit: "count", Better: lower},
	{Name: "store.reads_per_op", Unit: "count", Better: lower},
	{Name: "store.reads_per_answer", Unit: "count", Better: lower},
	{Name: "store.bound_use", Unit: "ratio", Better: lower},
	{Name: "store.busy_share", Unit: "ratio", Better: lower},
	{Name: "store.apply_us", Unit: "us", Better: lower},
	{Name: "store.apply_derived_us", Unit: "us", Better: lower},

	{Name: "index.lookup_ns", Unit: "ns", Better: lower},
	{Name: "relation.appendkey_ns", Unit: "ns", Better: lower},
	{Name: "relation.tupleset_churn_ns", Unit: "ns", Better: lower},

	{Name: "views.reads_per_commit", Unit: "count", Better: lower},
	{Name: "views.maintained_per_commit", Unit: "count", Better: lower},
	{Name: "views.q7_read_saving", Unit: "ratio", Better: higher},
	{Name: "views.rescued_ok_share", Unit: "ratio", Better: higher},
	{Name: "views.broken", Unit: "count", Better: lower},

	{Name: "server.handler_us", Unit: "us", Better: lower},
	{Name: "server.self_us", Unit: "us", Better: lower},
	{Name: "server.self_share", Unit: "ratio", Better: lower},
	{Name: "server.prepare_us", Unit: "us", Better: lower},
	{Name: "server.resp_bytes_per_op", Unit: "B", Better: lower},
	{Name: "server.admit_reject_share", Unit: "ratio", Better: lower},
	{Name: "server.refund_share", Unit: "ratio", Better: higher},

	{Name: "client.self_us", Unit: "us", Better: lower},
	{Name: "client.conns_opened", Unit: "count", Better: lower},

	// Demoted from the end-to-end list: see README.md, "open_p99_us".
	{Name: "open_p99_us", Unit: "us", Better: lower},
	{Name: "gen.late_p99_us", Unit: "us", Better: lower},
	{Name: "gen.self_share", Unit: "ratio", Better: lower},

	{Name: "rt.gc_cycles", Unit: "count", Better: lower},
	{Name: "rt.gc_pause_total_ms", Unit: "ms", Better: lower},
	{Name: "rt.heap_peak_mb", Unit: "MB", Better: lower},

	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

// workloadNames are final: later issues cite them. read_sharded and
// watch_wire are reserved for when replicas land.
var workloadNames = []string{"read_local", "read_wire", "write_live", "adhoc_cold"}

// reported is the last line of standard output.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs by name with its unit — a metric that
// is a median over segments with its quartiles and sample count beside it
// — then the ops of every phase, and returns the result line.
func report(w io.Writer, workload string, defs []metricDef, out *outcome) reported {
	fmt.Fprintf(w, "%s\n", workload)
	res := reported{Attempted: out.attempted(), Failed: out.failed(), Metrics: map[string]reportedValue{}}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := out.metrics[d.Name]
		res.Metrics[d.Name] = reportedValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-28s %14.6g %-8s", d.Name, v, d.Unit)
		if s, ok := out.summaries[d.Name]; ok {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range out.phases {
		fmt.Fprintf(w, "  phase %-14s attempted %8d succeeded %8d failed %d\n", p.name, p.attempted(), p.attempted()-p.failed(), p.failed())
	}
	fmt.Fprintf(w, "  checks %d failed %d, answer checksum %016x\n", out.checks, out.checkFails, out.checksum)
	for i, err := range out.errs {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(out.errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
	return res
}

func (r reported) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // floats and strings only
	}
	return string(b)
}
