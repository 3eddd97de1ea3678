package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the tables the
// program prints from together, and checks the limits the driver enforces
// before it runs anything.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\nfile    %+v\nprogram %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\nfile    %+v\nprogram %+v", f.PerLayer, perLayer)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmarks"}) || !reflect.DeepEqual(f.Command, []string{"bash", "benchmarks/run.sh"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var largest float64
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		largest = max(largest, d.Bound)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must lead the end-to-end list, in s, lower is better, with the largest bound: %+v", endToEnd[0])
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestNothingNamesTheRun pins that what the engine and the serving tier are
// handed — request ids, tenant names, query texts — never carries a
// workload name, a phase label or anything else that identifies the run.
func TestNothingNamesTheRun(t *testing.T) {
	labels := append([]string{"small", "large", "main", "open", "mixed", "warm", "cold", "trace", "smoke", "seed"}, workloadNames...)
	var handed []string
	for id := int64(-3); id < 2000; id += 7 {
		handed = append(handed, requestID(id))
	}
	for c := 0; c < 4; c++ {
		handed = append(handed, tenantName(c))
	}
	for v := 0; v < variantsCold; v++ {
		handed = append(handed, variantText(uint8(v%numQueries), uint16(v)))
	}
	for _, s := range handed {
		for _, l := range labels {
			if strings.Contains(strings.ToLower(s), l) {
				t.Fatalf("%q, handed to the system under test, contains the label %q", s, l)
			}
		}
	}
}
