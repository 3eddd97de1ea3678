// Command sibm is the repo's benchmark: four workloads, eleven end-to-end
// metrics, and per-layer numbers from a separate traced run. It is one
// process — data generator, load generators, engine and, for the wire
// workload, the serving tier on a loopback socket all live in it — so
// nothing can outlive it. See ../README.md.
//
//	sibm --workload read_local --seed 1 --seconds 15 --trace 0
//	sibm --workload all --repeat 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "all", "workload to run: read_local, read_wire, write_live, adhoc_cold, or all")
	seed := flag.Int64("seed", 1, "seed of the generated data and op streams")
	seconds := flag.Float64("seconds", 15, "scales the fixed op counts: the measured part of a run lasts about this long on the box the rates were calibrated on")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, span file); 0: the untraced run (end-to-end metrics)")
	repeat := flag.Int("repeat", 0, "run the selected workloads this many times, seed, seed+1, ..., and print each metric's median, quartiles and spread against its bound")
	smoke := flag.Bool("smoke", false, "a run of about a second on 20x smaller data: exercises every phase, measures nothing")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		flag.Usage()
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "sibm: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *smoke {
		*seconds = 1
	}
	runs := max(*repeat, 1)

	// A signal and the internal deadline end the run the same way normal
	// completion does: every phase returns, every deferred teardown runs
	// (Server.Drain, http.Server.Shutdown, Live.Close, idle connections
	// closed), and the process exits. The deadline is twice what the
	// selected runs are expected to take on the calibration box.
	expected := time.Duration(float64(runs*len(names)) * (1.8**seconds + 10) * float64(time.Second))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 2*expected)
	defer cancel()
	var aborted atomic.Bool
	context.AfterFunc(ctx, func() { aborted.Store(true) })
	// Last resort, should a teardown itself hang: the process still ends.
	go func() {
		<-ctx.Done()
		time.Sleep(20 * time.Second)
		fmt.Fprintln(os.Stderr, "sibm: teardown did not finish; exiting")
		os.Exit(3)
	}()
	baseline := runtime.NumGoroutine()

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	ok := true
	for i := 0; i < runs; i++ {
		for _, name := range names {
			e := &env{ctx: ctx, aborted: &aborted, seed: *seed + int64(i), seconds: *seconds, smoke: *smoke}
			out, err := runWorkload(e, name, *trace == 1)
			if err == nil {
				out.check(hygiene(baseline))
			}
			if err != nil {
				if errors.Is(err, errAborted) || ctx.Err() != nil {
					fmt.Fprintf(os.Stderr, "sibm: %s: stopped before completion: %v\n", name, context.Cause(ctx))
				} else {
					fmt.Fprintf(os.Stderr, "sibm: %s: %v\n", name, err)
				}
				if n, failures := hygiene(baseline); len(failures) > 0 {
					fmt.Fprintf(os.Stderr, "sibm: %d hygiene check(s): %v\n", n, failures[0])
				}
				return 1
			}
			res := report(os.Stdout, fmt.Sprintf("%s seed %d trace %d", name, e.seed, *trace), defs, out)
			ok = ok && res.Correct
			if *repeat == 0 {
				fmt.Println(res.line())
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, d := range defs {
				values[name][d.Name] = append(values[name][d.Name], out.metrics[d.Name])
			}
		}
	}
	if *repeat > 0 {
		ok = printRepeats(names, defs, values) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

func runWorkload(e *env, name string, traced bool) (*outcome, error) {
	switch {
	case name == "write_live" && traced:
		return runWriteLiveTraced(e)
	case name == "write_live":
		return runWriteLive(e)
	case traced:
		return readWorkloads[name].runTraced(e)
	default:
		return readWorkloads[name].run(e)
	}
}

// hygiene asserts that nothing a workload started is still running: the
// goroutine count is back to what it was before any load.
func hygiene(baseline int) (checked int, failures []error) {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return 1, []error{fmt.Errorf("%d goroutines still running, %d before the load:\n%s", runtime.NumGoroutine(), baseline, buf)}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 1, nil
}

// printRepeats prints, per metric and workload, the median, quartiles and
// relative spread (interquartile distance over the median) of the runs,
// and whether the spread resolves the metric's bound.
func printRepeats(names []string, defs []metricDef, values map[string]map[string][]float64) bool {
	fmt.Printf("\n%-12s %-28s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	ok := true
	for _, name := range names {
		for _, d := range defs {
			vs := slices.Clone(values[name][d.Name])
			slices.Sort(vs)
			s := summary{Median: quantile(vs, 0.5)}
			s.Q1, s.Q3 = quartilesExclusive(vs)
			spread := ratio(s.Q3-s.Q1, s.Median)
			verdict := ""
			if d.Bound > 0 {
				verdict = "ok"
				if spread > d.Bound && d.Name != "setup_s" {
					verdict, ok = "unresolved", false
				}
			}
			fmt.Printf("%-12s %-28s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%  %s\n", name, d.Name, s.Median, s.Q1, s.Q3, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}
