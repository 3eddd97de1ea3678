package server

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestObservabilityJSONGolden pins the exact JSON key set of every struct
// on the observability wire surface — /statusz, the commit response, and
// everything they nest (EngineStats, PlanCacheStats, TenantStats,
// store.Counters, core.CommitPhases). All keys are snake_case; a Go field
// rename must not silently rename a dashboard's field. Every field is
// populated with a distinct value so a dropped or misrouted tag cannot
// hide behind a zero.
func TestObservabilityJSONGolden(t *testing.T) {
	golden := []struct {
		name string
		v    any
		want string
	}{
		{
			"statusz",
			Statusz{
				Engine: core.EngineStats{
					Size:            9,
					PlanCache:       core.PlanCacheStats{Hits: 1, Misses: 2, Evictions: 3},
					PlanCacheLen:    4,
					Optimizer:       "on",
					CommitSeq:       5,
					StoreSeq:        6,
					CommittedVolume: map[string]int64{"friend": 7},
					Watchers:        10,
				},
				Tenants: map[string]TenantStats{"t0": {
					Admitted:            11,
					RejectedBound:       12,
					RejectedBudget:      13,
					RejectedConcurrency: 14,
					Inflight:            15,
					MeasuredReads:       16,
					MeasuredAnswers:     17,
				}},
				Handles:  18,
				Draining: true,
			},
			`{"engine":{"size":9,"plan_cache":{"hits":1,"misses":2,"evictions":3},` +
				`"plan_cache_len":4,"optimizer":"on","commit_seq":5,"store_seq":6,` +
				`"committed_volume":{"friend":7},"watchers":10},` +
				`"tenants":{"t0":{"admitted":11,"rejected_bound":12,"rejected_budget":13,` +
				`"rejected_concurrency":14,"inflight":15,"measured_reads":16,"measured_answers":17}},` +
				`"handles":18,"draining":true}`,
		},
		{
			"commit_result",
			core.CommitResult{
				Seq:      1,
				StoreSeq: 2,
				Size:     3,
				Watchers: 4,
				Maintenance: store.Counters{
					TupleReads:   5,
					IndexLookups: 6,
					Scans:        7,
					Memberships:  8,
					TimeUnits:    9,
				},
				Phases: core.CommitPhases{
					Validate: 1 * time.Nanosecond,
					Maintain: 2 * time.Nanosecond,
					Apply:    3 * time.Nanosecond,
					Notify:   4 * time.Nanosecond,
				},
			},
			`{"seq":1,"store_seq":2,"size":3,"watchers":4,` +
				`"maintenance":{"tuple_reads":5,"index_lookups":6,"scans":7,"memberships":8,"time_units":9},` +
				`"phases":{"validate":1,"maintain":2,"apply":3,"notify":4}}`,
		},
	}
	for _, g := range golden {
		got, err := json.Marshal(g.v)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if string(got) != g.want {
			t.Errorf("%s JSON drifted:\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}

var snakeTag = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestWireTagsSnakeCase is the runtime twin of sivet's wirejson analyzer:
// it walks every struct reachable from the wire roots and asserts each
// exported field carries an explicit snake_case json tag (or "-"), so a
// new field cannot leak a CamelCase key even on a tree where sivet was
// not run.
func TestWireTagsSnakeCase(t *testing.T) {
	roots := []any{
		PrepareRequest{}, PrepareResponse{}, QueryRequest{}, QueryLine{},
		QueryStats{}, CommitRequest{}, CommitResponse{}, ViewEntry{},
		ViewRequest{}, ViewResponse{}, WatchSnapshot{}, WatchDelta{},
		ErrorBody{}, AdmissionError{}, Statusz{}, TenantStats{},
		core.EngineStats{}, core.CommitResult{}, store.Counters{},
	}
	seen := make(map[reflect.Type]bool)
	var walk func(rt reflect.Type)
	walk = func(rt reflect.Type) {
		for rt.Kind() == reflect.Pointer || rt.Kind() == reflect.Slice ||
			rt.Kind() == reflect.Array || rt.Kind() == reflect.Map {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct || seen[rt] {
			return
		}
		seen[rt] = true
		// Types with a custom MarshalJSON define their own wire shape.
		if rt.Implements(reflect.TypeFor[json.Marshaler]()) ||
			reflect.PointerTo(rt).Implements(reflect.TypeFor[json.Marshaler]()) {
			return
		}
		for i := range rt.NumField() {
			f := rt.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			name, _, _ := strings.Cut(tag, ",")
			switch {
			case !ok:
				t.Errorf("%s.%s: exported wire field has no json tag", rt, f.Name)
			case name == "-":
				continue
			case name == "":
				t.Errorf("%s.%s: json tag %q names no key", rt, f.Name, tag)
			case !snakeTag.MatchString(name):
				t.Errorf("%s.%s: json key %q is not snake_case", rt, f.Name, name)
			}
			walk(f.Type)
		}
	}
	for _, r := range roots {
		walk(reflect.TypeOf(r))
	}
	if len(seen) < len(roots) {
		t.Fatalf("walked %d struct types from %d roots; type aliasing collapsed the surface?", len(seen), len(roots))
	}
}

// goldenStream is the full /query stream of the stream fixture for k=1.
const goldenStream = `{"head":["v","w"],"bound":2200}
{"row":["plain",-3]}
{"row":["a\u0026b",-2]}
{"row":["1\u003e0",-1]}
{"row":["\u003ctag\u003e",0]}
{"row":["x\u2028y\u2029",1]}
{"row":["\ufffdz",2]}
{"row":["q\"\\",3]}
{"row":["tab\t",4]}
{"row":["é",5]}
{"stats":{"answers":9,"reads":18,"bound":2200}}
`

// TestQueryStreamGolden pins the /query stream byte for byte: the head;
// rows with ints and with strings that need every escape encoding/json
// makes (<, >, &, U+2028/U+2029, invalid UTF-8, quote and backslash, a
// control byte) or none (non-ASCII); the stats line; and a stream a read
// budget cuts after its first rows, with its error line. Both streams
// must equal what json.Encoder wrote per QueryLine — the reflection path
// the hand-written codec replaced — for the same execution in process.
func TestQueryStreamGolden(t *testing.T) {
	srv, eng := streamServer(t)
	q, err := parser.ParseServing(streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(q, query.NewVarSet("k"))
	if err != nil {
		t.Fatal(err)
	}
	encoderStream := func(maxReads int64) []byte {
		charge := prep.Plan().Bound.Reads
		opts := []core.ExecOption{core.WithoutTrace()}
		if maxReads > 0 {
			charge = min(charge, maxReads)
			opts = append(opts, core.WithMaxReads(maxReads))
		}
		rows, err := prep.Query(context.Background(), query.Bindings{"k": relation.Int(1)}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		out := encoderLine(t, QueryLine{Head: rows.Head(), Bound: charge})
		var n int64
		for rows.Next() {
			out = append(out, encoderLine(t, refRow(rows.Tuple()))...)
			n++
		}
		if err := rows.Err(); err != nil {
			return append(out, encoderLine(t, QueryLine{Error: bodyFor(err)})...)
		}
		st := &QueryStats{Answers: n, Reads: rows.Cost().TupleReads, Bound: charge}
		return append(out, encoderLine(t, QueryLine{Stats: st})...)
	}

	full := serveQuery(t, srv, 1, 0).body.Bytes()
	if want := encoderStream(0); !bytes.Equal(full, want) {
		t.Fatalf("/query stream drifted from json.Encoder:\n got %s\nwant %s", full, want)
	}
	if string(full) != goldenStream {
		t.Fatalf("/query stream drifted from its golden:\n got %s\nwant %s", full, goldenStream)
	}

	var last QueryLine
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Stats == nil {
		t.Fatalf("no stats line: %s (%v)", lines[len(lines)-1], err)
	}
	cut := last.Stats.Reads - 2
	got := serveQuery(t, srv, 1, cut).body.Bytes()
	want := encoderStream(cut)
	if !bytes.Contains(want, []byte(`{"row":`)) || !bytes.Contains(want, []byte(`{"error":{"code":"budget_exceeded"`)) {
		t.Fatalf("max_reads %d does not cut the stream mid-way:\n%s", cut, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mid-stream error stream drifted from json.Encoder:\n got %s\nwant %s", got, want)
	}
}
