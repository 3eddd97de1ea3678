// Command sibench prints the paper's tables: the Table 1 validation
// tables, the Example 1.1 scaling series, and the per-theorem experiments
// (see DESIGN.md §9 for the index). With -markdown it emits the body of
// EXPERIMENTS.md.
//
// Load and latency numbers come from sibm (BENCHMARK.json, benchmarks/);
// the executable claims of the serving, write and view paths are package
// tests (EXPERIMENTS.md names each one).
//
// Usage:
//
//	sibench              # full suite, plain-text tables
//	sibench -quick       # smaller sizes
//	sibench -markdown    # markdown tables
//	sibench -only F1a    # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run smaller instances")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	var ids []string
	for _, e := range bench.All() {
		ids = append(ids, e.ID)
	}
	only := flag.String("only", "", "run a single experiment by id ("+strings.Join(ids, ", ")+")")
	flag.Parse()

	start := time.Now()
	ran := 0
	for _, e := range bench.All() {
		if *only != "" && e.ID != *only {
			continue
		}
		tables, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sibench: experiment %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *markdown {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t.String())
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sibench: no experiment matched %q\n", *only)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "sibench: %d experiments in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
