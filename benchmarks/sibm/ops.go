package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/backendtest"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The query pack: the paper's Example 1.1/4.1 queries plus the repo's
// conformance additions. Every one is controlled by p (Q3 by p and yy).
const (
	q1 = iota
	q2
	q3
	q4
	q5
	q6
	q7
	numQueries
)

type queryDef struct {
	name string
	src  string
	ctrl []string
}

var queryPack = [numQueries]queryDef{
	q1: {"Q1", workload.Q1Src, []string{"p"}},
	q2: {"Q2", workload.Q2Src, []string{"p"}},
	q3: {"Q3", workload.Q3Src, []string{"p", "yy"}},
	q4: {"Q4", backendtest.Q4Src, []string{"p"}},
	q5: {"Q5", backendtest.Q5Src, []string{"p"}},
	q6: {"Q6", backendtest.Q6Src, []string{"p"}},
	q7: {"Q7", backendtest.Q7Src, []string{"p"}},
}

// mix is a traffic mix: weight per query, summing to 100.
type mix [numQueries]int

var (
	// mixRead is the read_local / read_wire mix: Q1/Q3/Q4/Q2 = 60/20/10/10.
	mixRead = mix{q1: 60, q3: 20, q4: 10, q2: 10}
	// mixLive is what runs beside the committer in write_live: the read mix
	// thinned to make room for the view-served Q6 (rescued) and Q7.
	mixLive = mix{q1: 50, q3: 15, q4: 10, q2: 5, q6: 10, q7: 10}
)

// readOp is one generated read: which query, for which person, and (Q3
// only) which year. variant selects the renamed copy of the query text in
// the ad-hoc workload and is 0 elsewhere.
type readOp struct {
	q       uint8
	variant uint16
	p       int64
	yy      int64
}

func (o readOp) bindings() query.Bindings {
	b := query.Bindings{"p": relation.Int(o.p)}
	if o.q == q3 {
		b["yy"] = relation.Int(o.yy)
	}
	return b
}

// genReadOps draws n reads from m with uniform person ids.
func genReadOps(rng *rand.Rand, n int, m mix, cfg workload.Config) []readOp {
	var table [100]uint8
	at := 0
	for q, w := range m {
		for i := 0; i < w; i++ {
			table[at] = uint8(q)
			at++
		}
	}
	if at != len(table) {
		panic(fmt.Sprintf("sibm: mix weights sum to %d, want 100", at))
	}
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = readOp{
			q:  table[rng.Intn(len(table))],
			p:  int64(rng.Intn(cfg.Persons)),
			yy: int64(cfg.Years[rng.Intn(len(cfg.Years))]),
		}
	}
	return ops
}

// genAdhocOps cycles the query texts through `variants` renamed copies in
// a fixed order, so with more variants than plan-cache entries every op
// misses the LRU cache and with fewer every op after the first pass hits.
// Variant v is a copy of query v mod 7.
func genAdhocOps(rng *rand.Rand, n, variants int, cfg workload.Config) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		v := i % variants
		ops[i] = readOp{
			q:       uint8(v % numQueries),
			variant: uint16(v),
			p:       int64(rng.Intn(cfg.Persons)),
			yy:      int64(cfg.Years[rng.Intn(len(cfg.Years))]),
		}
	}
	return ops
}

// variantText renames query q to its v-th copy. Only the query name
// changes, which is what the engine keys its plan cache on.
func variantText(q uint8, v uint16) string {
	d := queryPack[q]
	return strings.Replace(d.src, d.name+"(", fmt.Sprintf("%sv%d(", d.name, v), 1)
}

// parseServing parses a serving query in either syntax, as the server and
// the CLIs do: the rule form first, then the formula form.
func parseServing(src string) (*query.Query, error) {
	if cq, err := parser.ParseCQ(src); err == nil {
		return cq.Query()
	}
	return parser.ParseQuery(src)
}
