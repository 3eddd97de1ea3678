// Example sharded serves bounded social-search queries from a
// hash-partitioned 4-shard store while a background writer keeps
// committing (and undoing) friend-list updates through the engine's
// transactional write path — the serving shape the sharded backend
// exists for: reads stay bounded and route to single shards, writes
// contend only per-shard locks, and the per-call counters prove both.
//
// A live dashboard rides along: one person's Q1 answers are watched
// through the subscription API, so every commit touching their friend
// list streams a bounded-maintenance delta while thousands of bounded
// reads serve concurrently.
//
// Run with: go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	scaleindep "repro"
	"repro/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	cfg.Persons = 4000
	cfg.Seed = 3
	data, err := workload.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Partition across 4 shards. Routing keys are chosen from the access
	// schema (person by id, friend by id1, ...); WithRoute would override.
	st, err := scaleindep.OpenSharded(data, workload.Access(cfg), 4)
	if err != nil {
		log.Fatal(err)
	}
	eng := scaleindep.NewEngineOn(st)
	fmt.Printf("4-shard store over |D| = %d tuples; shard sizes %v\n", st.Size(), st.ShardSizes())
	for _, rel := range st.Schema().Names() {
		fmt.Printf("  %-8s routed by %v\n", rel, st.Route(rel))
	}

	// Foreground: prepare once, execute many — while the writer runs.
	q, err := scaleindep.ParseQuery(workload.Q1Src)
	if err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(q, scaleindep.NewVarSet("p"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprepared %s: static bound %s\n\n", q.Name, prep.Plan().Bound)
	ctx := context.Background()

	// Live dashboard: watch one churned person's NYC friends. Every commit
	// touching their friend list maintains this handle with bounded work
	// and streams a delta; the consumer below counts them.
	watchedID := int64(900003)
	live, err := prep.Watch(ctx, scaleindep.Bindings{"p": scaleindep.Int(watchedID)})
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	var dashIns, dashDel, dashReads atomic.Int64
	dashDone := make(chan struct{})
	go func() {
		defer close(dashDone)
		for d, err := range live.Deltas() {
			if err != nil {
				log.Fatalf("dashboard: %v", err)
			}
			dashIns.Add(int64(len(d.Ins)))
			dashDel.Add(int64(len(d.Del)))
			dashReads.Add(d.Cost.TupleReads)
		}
	}()

	// Background writer: continuously grow and shrink friend lists through
	// the engine's commit pipeline. Each batch routes to a single shard,
	// so it locks 1/4 of the store instead of all of it — and every batch
	// carries a commit sequence number and notifies the dashboard.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var batches atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ins := newFriendBatch(int64(900000 + i%64))
			if _, err := eng.Commit(ctx, ins); err != nil {
				log.Fatalf("writer: %v", err)
			}
			if _, err := eng.Commit(ctx, ins.Inverse()); err != nil {
				log.Fatalf("writer: %v", err)
			}
			batches.Add(2)
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	calls := 0
	var served scaleindep.Counters
	var maxReads int64
	for p := 0; time.Now().Before(deadline); p++ {
		ans, err := prep.Exec(ctx, scaleindep.Bindings{"p": scaleindep.Int(int64(p % cfg.Persons))},
			scaleindep.WithMaxReads(prep.Plan().Bound.Reads))
		if err != nil {
			log.Fatalf("exec p=%d: %v", p, err)
		}
		calls++
		served.Add(ans.Cost)
		if ans.Cost.TupleReads > maxReads {
			maxReads = ans.Cost.TupleReads
		}
	}
	close(stop)
	<-writerDone

	fmt.Printf("served %d bounded executions during %d concurrent commits\n", calls, batches.Load())
	fmt.Printf("  mean reads/call %.1f, max %d — every call ≤ the static bound %d\n",
		float64(served.TupleReads)/float64(calls), maxReads, prep.Plan().Bound.Reads)

	// Dashboard wrap-up: the stream must land exactly on a fresh execution.
	live.Close()
	<-dashDone
	finalAns, err := prep.Exec(ctx, scaleindep.Bindings{"p": scaleindep.Int(watchedID)})
	if err != nil {
		log.Fatal(err)
	}
	exact := live.Snapshot().Equal(finalAns.Tuples)
	fmt.Printf("\nlive dashboard on Q1(p=%d): %d answers appeared / %d disappeared over %d commits folded\n",
		watchedID, dashIns.Load(), dashDel.Load(), live.Seq())
	fmt.Printf("  %d maintenance reads total; snapshot ≡ fresh Exec: %v\n", dashReads.Load(), exact)
	if !exact {
		log.Fatal("live snapshot diverged")
	}

	fmt.Printf("\nshard sizes after the run: %v\n", st.ShardSizes())
	fmt.Printf("the %d served calls charged: %s (one lookup per fetch: each routed to a single shard)\n", calls, served)

	// A full scatter-gather read for contrast: one scan, |R| reads split
	// across every shard in parallel.
	es := &scaleindep.ExecStats{}
	if _, err := st.ScanInto(es, "friend"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscatter scan of friend: %s (one partial scan per shard)\n", es.Counters)
}

// newFriendBatch builds an insert-only update for one synthetic person:
// eight friend edges that all hash to that person's shard.
func newFriendBatch(id int64) *scaleindep.Update {
	u := scaleindep.NewUpdate()
	for k := int64(0); k < 8; k++ {
		u.Insert("friend", scaleindep.Tuple{scaleindep.Int(id), scaleindep.Int(k)})
	}
	return u
}
