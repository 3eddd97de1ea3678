package main

// Everything that sizes a run. The op counts are fixed per workload, not
// measured: a run does the same work whatever the code under test costs,
// so counted metrics repeat exactly and a slower engine shows as a longer
// run, not as fewer samples. --seconds scales the counts; the rates below
// were calibrated once, on the 2-core box this benchmark was built on, so
// that the measured part of a run lasts about --seconds there, and are
// never rescaled.

const (
	// Data: workload.Generate with this many persons gives |D| ≈ 15 ×
	// persons. Main is the size every EXPERIMENTS.md column uses; small
	// and large put the working set inside and well outside the CPU caches.
	personsSmall = 2_000  // |D| ≈ 30k
	personsMain  = 10_000 // |D| ≈ 150k
	personsLarge = 40_000 // |D| ≈ 600k

	numWatchers = 16 // live Q2 subscriptions, on the hot ids
	deltaBuffer = 64 // WithDeltaBuffer per subscription

	// The engine's plan cache holds 128 plans (core.DefaultPlanCacheSize):
	// four times as many variants never hit it, half as many always do.
	variantsCold = 512
	variantsWarm = 64

	oracleEvery = 500 // one op in this many is compared with the oracle
	segments    = 5   // a timing metric is the median over this many segments
	setups      = 3   // set-up is repeated this often; setup_s is the median
	warmupOps   = 2_000
	traceShare  = 5 // a traced run does a fifth of the ops, with one client
)

// sizing is one workload's fixed rates, in operations per second of
// --seconds budget.
type sizing struct {
	workers int     // closed-loop load generators (and open-loop senders)
	closed  float64 // primary ops the closed loop completes per second here
	open    float64 // open-phase arrival rate: ≈ 40 % of closed
	commits float64 // commits per second in the mixed phase
}

var sizings = map[string]sizing{
	"read_local": {workers: 2, closed: 12_000, open: 4_800, commits: 2_200},
	"read_wire":  {workers: 2, closed: 6_500, open: 2_600, commits: 2_200},
	"write_live": {workers: 1, closed: 2_300, open: 920},
	"adhoc_cold": {workers: 1, closed: 3_700, open: 1_500, commits: 2_200},
}

// Shares of --seconds per phase of an untraced run. The open phase belongs
// to the traced run (see README.md: open_p99_us was demoted) and is sized
// as if it had a fifth of the budget.
const (
	shareSmall = 0.15
	shareLarge = 0.20
	shareMain  = 0.40
	shareMixed = 0.25
	shareOpen  = 0.20

	// write_live has two phases: the commits at the small size, and the
	// main phase, which is its mixed phase.
	shareLiveSmall = 0.25
)

// scaled is a data size or a fixed op count, shrunk 20× in a smoke run.
func scaled(n int, smoke bool) int {
	if smoke {
		return max(n/20, 2*segments)
	}
	return n
}

// count turns a rate and a share of the budget into an op count.
func count(rate, seconds, share float64) int {
	return max(int(rate*seconds*share), 2*segments)
}
