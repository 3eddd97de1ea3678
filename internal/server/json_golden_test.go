package server

import (
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
