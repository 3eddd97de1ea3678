// Command sivet checks the project's own invariants — the ones the
// compiler and staticcheck cannot see: the ExecStats charging
// discipline that reads ≤ M rests on (chargedreads), documented lock
// ownership (lockguard), the errors.Is-able error taxonomy (typederr),
// the snake_case/json.Number wire contract (wirejson), and the one cost
// algebra every bound is priced with (entrybound).
//
// Usage:
//
//	sivet [-only a,b] [-list] [dir | ./...]
//
// sivet loads the whole module containing the target directory (a
// trailing "./..." is accepted and ignored: the module is always
// checked as a unit), runs the analyzers, and prints file:line:col
// diagnostics. Exit status: 0 clean, 1 findings, 2 load failure.
//
// Findings are waived only by an explicit, reasoned directive:
//
//	//sivet:ignore <analyzer> -- <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sivet [-only a,b] [-list] [dir | ./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := byName[name]
			if a == nil {
				fmt.Fprintf(os.Stderr, "sivet: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	dir := "."
	if arg := flag.Arg(0); arg != "" && arg != "./..." {
		dir = strings.TrimSuffix(arg, "/...")
	}

	fset, pkgs, err := lint.LoadModule(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sivet: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(fset, pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sivet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
