package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// opStreamBytes serializes an op stream.
func opStreamBytes(ops []readOp) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&b, "%d/%d/%d/%d\n", o.q, o.variant, o.p, o.yy)
	}
	return b.Bytes()
}

// TestOpStreamsFollowTheSeed pins that the generated inputs are a function
// of the seed alone: one seed gives byte-identical op streams, arrival
// schedules and commit streams; another seed gives others.
func TestOpStreamsFollowTheSeed(t *testing.T) {
	cfg := workload.DefaultConfig()
	gen := func(seed int64) (reads, adhoc []byte, due, commits string) {
		rng := rand.New(rand.NewSource(seed))
		reads = opStreamBytes(genReadOps(rng, 5000, mixRead, cfg))
		adhoc = opStreamBytes(genAdhocOps(rng, 5000, variantsCold, cfg))
		due = fmt.Sprint(schedule(rng, 100, 1000))
		r, err := buildRig(rigOpts{persons: 200, seed: seed, commits: 50})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range r.stream {
			// Ins and Del are maps of slices: fmt prints maps in key order.
			commits += fmt.Sprintln(u.Ins, u.Del)
		}
		return reads, adhoc, due, commits
	}
	r1, a1, d1, c1 := gen(7)
	r2, a2, d2, c2 := gen(7)
	if !bytes.Equal(r1, r2) || !bytes.Equal(a1, a2) || d1 != d2 || c1 != c2 {
		t.Error("the same seed gave different inputs")
	}
	r3, a3, _, c3 := gen(8)
	if bytes.Equal(r1, r3) || bytes.Equal(a1, a3) || c1 == c3 {
		t.Error("a different seed gave the same inputs")
	}
}

// TestSameSeedSameCounts pins that what the runs count repeats exactly:
// the same seed twice gives identical reads per op, response bytes per op
// and answer checksums, on the traced runs (one client, so the op order is
// fixed too) and, for the checksum, on the untraced read_local run.
func TestSameSeedSameCounts(t *testing.T) {
	inTempDir(t)
	counted := []string{"store.reads_per_op", "store.reads_per_answer", "store.calls_per_op", "server.resp_bytes_per_op", "core.plan_cache_evictions"}
	for _, name := range []string{"read_local", "adhoc_cold", "read_wire"} {
		a, err := runWorkload(testEnv(21), name, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(testEnv(21), name, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range counted {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s: %s was %v, then %v, for the same seed", name, m, a.metrics[m], b.metrics[m])
			}
		}
		if a.metrics["store.reads_per_op"] == 0 {
			t.Errorf("%s: no reads counted", name)
		}
		if a.checksum != b.checksum || a.checksum == 0 {
			t.Errorf("%s: answer checksums %x and %x for the same seed", name, a.checksum, b.checksum)
		}
		c, err := runWorkload(testEnv(22), name, true)
		if err != nil {
			t.Fatal(err)
		}
		if c.checksum == a.checksum {
			t.Errorf("%s: another seed gave the same answer checksum %x", name, c.checksum)
		}
	}
	a, err := runWorkload(testEnv(21), "read_local", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(testEnv(21), "read_local", false)
	if err != nil {
		t.Fatal(err)
	}
	if a.checksum != b.checksum || a.checksum == 0 || a.failed()+b.failed() != 0 {
		t.Errorf("untraced read_local: checksums %x and %x, %d failed", a.checksum, b.checksum, a.failed()+b.failed())
	}
}
