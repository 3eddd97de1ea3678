// Command sirun answers a query over a generated or CSV-loaded database
// both ways — bounded (scale-independent) and naive — and reports the
// answers, the measured tuple accesses, the witness set D_Q, and the
// static bound, demonstrating Theorem 4.2 on real data.
//
// It drives the prepared-query serving API: the query is prepared once
// (analysis + plan compilation) and executed under a context, optionally
// with a runtime read budget (-max-reads) or a deadline (-timeout). A
// query that is not controllable for the fixed variables is refused, not
// scanned; materializing a view with -view can rescue it (Theorem 6.1).
//
// Usage:
//
//	sirun -data data/ -query "Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))" -fix "p=7"
//	sirun -persons 10000 -query ... -fix "p=7"         # generate instead of loading
//	sirun -query ... -fix "p=7" -max-reads 1000 -timeout 5s
//	sirun -query ... -fix "p=7" -limit 3               # stream the first 3 answers and stop reading
//	sirun -query ... -fix "p=7" -explain               # print the compiled physical plan (EXPLAIN)
//	sirun -query ... -fix "p=7" -analyze               # EXPLAIN ANALYZE: static bound vs measured per operator
//	sirun -query ... -fix "p=7" -explain -no-optimizer # ... the analysis-order plan instead
//	sirun -query ... -fix "p=7" -watch                 # live query: stream answer deltas until Ctrl-C
//	sirun -query ... -fix "p=7" -view "V(...) :- ..."  # materialize a view first; the plan may read it
//	sirun -query ... -fix "p=7" -naive=false           # skip the naive baseline (much faster at large |D|)
//
// With -limit N the cursor API is used instead: answers stream out as the
// bounded plan pulls them, and evaluation — including its tuple reads and
// budget consumption — stops after the N-th answer.
//
// With -watch the query is subscribed through the live-query API
// (PreparedQuery.Watch): a background writer commits a randomized mixed
// insert/delete stream through Engine.Commit and every answer delta
// prints as it is maintained — with the bounded per-commit maintenance
// cost next to it — until -watch-commits is exhausted or the process is
// interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// rescueHint follows ErrNotControllable: sirun never answers such a query
// by full scans, but a materialized view the query is controlled through
// rescues it (Theorem 6.1).
const rescueHint = `(no bounded plan for the fixed variables; rescue the query through a view (Theorem 6.1): re-run with -view "V(...) :- ..." naming a view the query is controlled through; core.Advise suggests the access entries it needs)`

func main() {
	dataDir := flag.String("data", "", "directory with catalog.txt and one <relation>.csv per relation, each with a header row of its attribute names")
	persons := flag.Int("persons", 5000, "generate a social graph of this size when -data is not given")
	seed := flag.Int64("seed", 1, "generation seed")
	querySrc := flag.String("query", workload.Q1Src, "query text")
	fix := flag.String("fix", "p=7", "fixed variable bindings, e.g. \"p=7,city='NYC'\"")
	naive := flag.Bool("naive", true, "also run the naive baseline")
	maxReads := flag.Int64("max-reads", 0, "runtime tuple-read budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "evaluation deadline (0 = none)")
	shards := flag.Int("shards", 0, "serve from a hash-sharded store with this many shards (0 = single-node)")
	limit := flag.Int("limit", 0, "stream at most this many answers through the cursor API and stop charging reads (0 = drain everything)")
	explain := flag.Bool("explain", false, "print the compiled physical plan (operator tree, chosen order, static cost) before executing")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute with per-operator runtime tracing and print static bound vs measured rows/reads/wall per operator")
	noOpt := flag.Bool("no-optimizer", false, "compile the analysis-emitted order instead of the cost-based plan")
	watch := flag.Bool("watch", false, "watch the query live instead: a background writer commits a randomized update stream and the maintained answer deltas print until interrupted (generated data only)")
	watchCommits := flag.Int("watch-commits", 0, "with -watch: stop after this many commits (0 = until interrupted)")
	watchInterval := flag.Duration("watch-interval", 100*time.Millisecond, "with -watch: delay between commits")
	var viewDefs []string
	flag.Func("view", "materialize this CQ as an engine-maintained view before preparing (repeatable); the plan may then serve from the view, and -explain/-analyze name it with its maintenance freshness", func(s string) error {
		viewDefs = append(viewDefs, s)
		return nil
	})
	flag.Parse()

	var db *relation.Database
	var acc *access.Schema
	var err error
	if *dataDir != "" {
		db, acc, err = loadData(*dataDir)
	} else {
		db, acc, err = generate(*persons, *seed)
	}
	if err != nil {
		fatal(err)
	}
	var st store.Backend
	if *shards > 0 {
		sh, err := shard.Open(db, acc, *shards)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("backend: %d shards, routing %v, sizes %v\n", sh.NumShards(), routeSummary(sh), sh.ShardSizes())
		st = sh
	} else {
		st, err = store.Open(db, acc)
		if err != nil {
			fatal(err)
		}
	}
	q, err := parser.ParseQuery(*querySrc)
	if err != nil {
		fatal(fmt.Errorf("query: %w", err))
	}
	fixed, err := parseBindings(*fix)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("database: |D| = %d tuples\n", st.Size())
	fmt.Printf("query: %s\n", q)
	fmt.Printf("fixed: %s\n\n", *fix)

	eng := core.NewEngine(st)
	if *noOpt {
		eng.SetOptimizer(core.OptimizerOff)
	}
	for _, src := range viewDefs {
		def, err := parser.ParseCQ(src)
		if err != nil {
			fatal(fmt.Errorf("-view %q: %w", src, err))
		}
		info, err := eng.CreateView(def)
		if err != nil {
			fatal(fmt.Errorf("-view %q: %w", src, err))
		}
		fmt.Printf("view: %s materialized (%d rows, entries %v)\n", info.Name, info.Rows, info.Entries)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts []core.ExecOption
	if *maxReads > 0 {
		opts = append(opts, core.WithMaxReads(*maxReads))
	}

	if *watch {
		if *dataDir != "" {
			fatal(fmt.Errorf("-watch needs the generated social workload (drop -data): the background writer mutates that schema"))
		}
		if *maxReads > 0 {
			fatal(fmt.Errorf("-max-reads configures one-shot executions; a -watch subscription's maintenance is budgeted at its own per-delta bound"))
		}
		cfg := workload.DefaultConfig()
		cfg.Persons = *persons
		cfg.Seed = *seed
		if err := watchQuery(ctx, eng, q, fixed, *fix, cfg, *watchCommits, *watchInterval, *explain); err != nil {
			fatal(err)
		}
		return
	}

	if *limit > 0 {
		if err := streamAnswers(ctx, eng, q, fixed, *limit, *explain, opts); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	prep, err := eng.Prepare(q, fixed.Vars())
	prepTime := time.Since(start)
	var ans *core.Answer
	if err == nil {
		if *explain {
			fmt.Println(prep.Explain())
		}
		start = time.Now()
		if *analyze {
			var rendered string
			rendered, ans, err = prep.Analyze(ctx, fixed, opts...)
			if err == nil {
				fmt.Println(rendered)
			}
		} else {
			ans, err = prep.Exec(ctx, fixed, opts...)
		}
	}
	switch {
	case errors.Is(err, core.ErrNotControllable):
		fatal(fmt.Errorf("%w\n  %s", err, rescueHint))
	case errors.Is(err, core.ErrBudgetExceeded):
		fatal(fmt.Errorf("%w\n  (raise -max-reads or tighten the access schema)", err))
	case errors.Is(err, core.ErrCanceled):
		fatal(fmt.Errorf("%w\n  (raise -timeout)", err))
	case err != nil:
		fatal(err)
	}
	execTime := time.Since(start)
	fmt.Printf("prepared in %s, executed in %s: %d answers\n",
		prepTime.Round(time.Microsecond), execTime.Round(time.Microsecond), ans.Tuples.Len())
	fmt.Printf("  measured: %s\n", ans.Cost)
	if ans.DQ != nil {
		fmt.Printf("  |D_Q| = %d distinct base tuples (per relation: %v)\n", ans.DQ.Distinct(), ans.DQ.PerRelation())
	}
	fmt.Printf("  static bound: %s\n\n", ans.Plan.Bound)
	fmt.Print(ans.Plan.Describe())

	for i, t := range ans.Tuples.Tuples() {
		if i == 10 {
			fmt.Printf("  ... (%d more)\n", ans.Tuples.Len()-10)
			break
		}
		fmt.Printf("  %s%s\n", strings.Join(ans.RemainingHead, ","), t)
	}

	if *naive {
		es := &store.ExecStats{}
		start = time.Now()
		res, err := eval.Answers(eval.NewStoreSource(st, es), q, fixed)
		if err != nil {
			fatal(err)
		}
		naiveTime := time.Since(start)
		fmt.Printf("\nnaive evaluation: %d answers in %s\n", res.Len(), naiveTime.Round(time.Microsecond))
		fmt.Printf("  measured: %s\n", es.Counters)
		if !res.Equal(ans.Tuples) {
			fatal(fmt.Errorf("ANSWER MISMATCH between bounded and naive evaluation"))
		}
		fmt.Println("  answers match the bounded evaluation ✓")
	}
}

// streamAnswers drives the cursor API: answers print the moment the plan
// produces them, with the cumulative measured reads next to each, and
// evaluation stops — reads and all — after the limit.
func streamAnswers(ctx context.Context, eng *core.Engine, q *query.Query, fixed query.Bindings, limit int, explain bool, opts []core.ExecOption) error {
	start := time.Now()
	rows, err := eng.QueryContext(ctx, q, fixed, append(opts, core.WithLimit(limit))...)
	switch {
	case errors.Is(err, core.ErrNotControllable):
		return fmt.Errorf("%w\n  %s", err, rescueHint)
	case err != nil:
		return err
	}
	defer rows.Close()
	if explain {
		fmt.Println(rows.Explain())
	}
	n := 0
	for rows.Next() {
		n++
		if n == 1 {
			fmt.Printf("first answer after %s:\n", time.Since(start).Round(time.Microsecond))
		}
		fmt.Printf("  %s%s   (cumulative reads: %d)\n",
			strings.Join(rows.Head(), ","), rows.Tuple(), rows.Cost().TupleReads)
	}
	switch err := rows.Err(); {
	case errors.Is(err, core.ErrBudgetExceeded):
		return fmt.Errorf("%w after %d answers\n  (raise -max-reads)", err, n)
	case errors.Is(err, core.ErrCanceled):
		return fmt.Errorf("%w after %d answers\n  (raise -timeout)", err, n)
	case err != nil:
		return err
	}
	if n >= limit {
		fmt.Printf("\n%d answer(s) in %s: limit %d reached — remaining evaluation, if any, was never run or charged\n",
			n, time.Since(start).Round(time.Microsecond), limit)
	} else {
		fmt.Printf("\n%d answer(s) in %s: the answer set ended before the limit (%d)\n",
			n, time.Since(start).Round(time.Microsecond), limit)
	}
	fmt.Printf("  measured: %s\n", rows.Cost())
	if dq := rows.DQ(); dq != nil {
		fmt.Printf("  |D_Q| = %d distinct base tuples (per relation: %v)\n", dq.Distinct(), dq.PerRelation())
	}
	fmt.Printf("  static full-drain bound: %s\n", rows.Plan().Bound)
	return nil
}

// watchQuery drives the live-query API: the query is prepared and watched
// (re-execution fallback engaged automatically when it is not
// incrementally maintainable), a background writer commits a randomized
// mixed insert/delete stream through Engine.Commit, and every answer
// delta streams to stdout with its maintenance cost and bound — until the
// commit budget is exhausted or the process is interrupted (Ctrl-C).
func watchQuery(parent context.Context, eng *core.Engine, q *query.Query, fixed query.Bindings, fixStr string, cfg workload.Config, maxCommits int, interval time.Duration, explain bool) error {
	// The parent carries -timeout; the signal context layers Ctrl-C on top,
	// so either ends the watch.
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()
	prep, err := eng.Prepare(q, fixed.Vars())
	if errors.Is(err, core.ErrNotControllable) {
		return fmt.Errorf("%w\n  %s", err, rescueHint)
	}
	if err != nil {
		return err
	}
	if explain {
		fmt.Println(prep.Explain())
	}
	live, err := prep.Watch(ctx, fixed, core.WithReexec())
	if err != nil {
		return err
	}
	defer live.Close()
	mode := "delta maintenance"
	switch {
	case !live.Maintained():
		mode = "bounded re-execution per commit"
	case !live.SupportsDeletions():
		mode = "delta maintenance; deletions resync by re-execution"
	}
	snap := live.Snapshot()
	fmt.Printf("watching %s for %s (%s); initial answers: %d\n", q.Name, fixStr, mode, snap.Len())
	for i, t := range snap.Tuples() {
		if i == 5 {
			fmt.Printf("  ... (%d more)\n", snap.Len()-5)
			break
		}
		fmt.Printf("  %s%s\n", strings.Join(live.Head(), ","), t)
	}
	fmt.Println("\ncommitting a randomized update stream; Ctrl-C to stop")

	// Background writer: batches of randomized commits generated against
	// the current state, biased toward the watched bindings.
	var hot []int64
	if p, ok := fixed["p"]; ok {
		hot = append(hot, p.AsInt())
	}
	writerDone := make(chan error, 1)
	go func() {
		// When the writer retires (budget spent, interrupted, or failed)
		// it closes the handle so the delta loop below drains and ends.
		defer live.Close()
		committed := 0
		batchSeed := cfg.Seed
		for {
			batch := workload.MixedCommits(eng.DB.CloneData(), cfg, 64, hot, batchSeed)
			batchSeed++
			for _, u := range batch {
				if maxCommits > 0 && committed >= maxCommits {
					writerDone <- nil
					return
				}
				select {
				case <-ctx.Done():
					writerDone <- nil
					return
				case <-time.After(interval):
				}
				if _, err := eng.Commit(ctx, u); err != nil {
					if errors.Is(err, core.ErrCanceled) {
						writerDone <- nil
					} else {
						writerDone <- err
					}
					return
				}
				committed++
			}
		}
	}()

	start := time.Now()
	deltas := 0
	var reads int64
	for d, err := range live.Deltas() {
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				break // interrupted: clean shutdown
			}
			return err
		}
		deltas++
		reads += d.Cost.TupleReads
		for _, t := range d.Ins {
			fmt.Printf("  +%s%s   (commit %d: %d reads ≤ bound %d)\n",
				strings.Join(live.Head(), ","), t, d.Seq, d.Cost.TupleReads, d.Bound)
		}
		for _, t := range d.Del {
			fmt.Printf("  -%s%s   (commit %d: %d reads ≤ bound %d)\n",
				strings.Join(live.Head(), ","), t, d.Seq, d.Cost.TupleReads, d.Bound)
		}
		if len(d.Ins) == 0 && len(d.Del) == 0 {
			fmt.Printf("  =no answer change   (commit %d: %d reads ≤ bound %d)\n", d.Seq, d.Cost.TupleReads, d.Bound)
		}
	}
	if err := <-writerDone; err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	live.Close()
	fmt.Printf("\n%d deltas in %s; %d maintenance reads total; final answers: %d (folded through commit %d)\n",
		deltas, time.Since(start).Round(time.Millisecond), reads, live.Snapshot().Len(), live.Seq())
	return nil
}

func generate(persons int, seed int64) (*relation.Database, *access.Schema, error) {
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = seed
	db, err := workload.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return db, workload.Access(cfg), nil
}

func loadData(dir string) (*relation.Database, *access.Schema, error) {
	catText, err := os.ReadFile(filepath.Join(dir, "catalog.txt"))
	if err != nil {
		return nil, nil, err
	}
	cat, err := parser.ParseCatalog(string(catText))
	if err != nil {
		return nil, nil, err
	}
	db := relation.NewDatabase(cat.Relational)
	for _, name := range cat.Relational.Names() {
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			return nil, nil, err
		}
		err = relation.ReadCSV(f, db.Rel(name))
		f.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	if err := cat.Access.Conforms(db); err != nil {
		return nil, nil, fmt.Errorf("data does not conform to its access schema: %w", err)
	}
	return db, cat.Access, nil
}

// routeSummary maps each relation to its routing-key attributes.
func routeSummary(s *shard.Store) map[string][]string {
	out := make(map[string][]string, s.Schema().Len())
	for _, name := range s.Schema().Names() {
		out[name] = s.Route(name)
	}
	return out
}

func parseBindings(s string) (query.Bindings, error) {
	out := query.Bindings{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad binding %q (want var=value)", part)
		}
		out[strings.TrimSpace(kv[0])] = relation.ParseValue(strings.TrimSpace(kv[1]))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sirun:", err)
	os.Exit(1)
}
