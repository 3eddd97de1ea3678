package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRoundTrip pins the exporter/parser pair: everything the registry
// writes must parse back strictly, with values intact.
func TestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("si_requests_total", "Requests served.", "name", "tenant").With("q1", "acme").Add(3)
	r.Counter("si_requests_total", "Requests served.", "name", "tenant").With("q2", `we"ird\tenant`).Inc()
	r.Gauge("si_handles", "Open handles.").With().Set(7.5)
	h := r.Histogram("si_latency_seconds", "Query latency.", "name").With("q1")
	for _, v := range []float64{0.001, 0.002, 0.002, 0.5, 0} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	fams, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\noutput:\n%s", err, out)
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3\n%s", len(fams), out)
	}
	cf := fams["si_requests_total"]
	if cf == nil || cf.Type != KindCounter {
		t.Fatalf("si_requests_total missing or mistyped: %+v", cf)
	}
	var got float64
	weird := ""
	for _, s := range cf.Samples {
		switch s.Labels["name"] {
		case "q1":
			if s.Labels["tenant"] == "acme" {
				got = s.Value
			}
		case "q2":
			weird = s.Labels["tenant"]
		}
	}
	if got != 3 {
		t.Fatalf("q1/acme counter = %v, want 3", got)
	}
	if weird != `we"ird\tenant` {
		t.Fatalf("label escaping did not round-trip: %q", weird)
	}
	hf := fams["si_latency_seconds"]
	if hf == nil || hf.Type != KindHistogram {
		t.Fatalf("si_latency_seconds missing or mistyped")
	}
	var count, sum float64
	for _, s := range hf.Samples {
		switch s.Name {
		case "si_latency_seconds_count":
			count = s.Value
		case "si_latency_seconds_sum":
			sum = s.Value
		}
	}
	if count != 5 {
		t.Fatalf("histogram count = %v, want 5", count)
	}
	if math.Abs(sum-0.505) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 0.505", sum)
	}
}

// TestHistogramQuantile checks the log-linear estimate stays within one
// bucket (~19% relative) of the true quantile.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000) // uniform on (0, 1]
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 0.5},
		{0.99, 0.99},
		{1.00, 1.0},
	} {
		got := h.Quantile(tc.p)
		if got < tc.want || got > tc.want*1.2+1e-12 {
			t.Fatalf("p%v = %v, want within [%v, %v]", tc.p*100, got, tc.want, tc.want*1.2)
		}
	}
	if h.Quantile(0.5) != h.QuantileDuration(0.5).Seconds() {
		t.Fatalf("QuantileDuration disagrees with Quantile")
	}
}

// TestHistogramDuration checks the duration helpers use seconds.
func TestHistogramDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(250 * time.Millisecond)
	got := h.QuantileDuration(1.0)
	if got < 250*time.Millisecond || got > 300*time.Millisecond {
		t.Fatalf("p100 of a single 250ms observation = %v", got)
	}
}

// TestParserStrictness rejects the malformations TestMetricszOverWire
// must catch.
func TestParserStrictness(t *testing.T) {
	bad := []struct{ name, in string }{
		{"sample without TYPE", "orphan_metric 1\n"},
		{"bad value", "# TYPE m counter\nm notanumber\n"},
		{"bad name", "# TYPE m counter\n2m 1\n"},
		{"unquoted label", "# TYPE m counter\nm{a=b} 1\n"},
		{"dup TYPE", "# TYPE m counter\n# TYPE m counter\nm 1\n"},
		{"histogram without count", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\n"},
		{"buckets decrease", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"inf bucket != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n"},
	}
	for _, tc := range bad {
		if _, err := ParseText(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parser accepted malformed input", tc.name)
		}
	}
	good := "# HELP m fine\n# TYPE m gauge\nm{x=\"1\"} 2\nm{x=\"2\"} -3.5e-7\n"
	if _, err := ParseText(strings.NewReader(good)); err != nil {
		t.Errorf("well-formed input rejected: %v", err)
	}
}

// TestCounterPanics pins the API misuse guards.
func TestCounterPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("negative counter add did not panic")
		}
	}()
	r.Counter("ok_total", "").With().Add(-1)
}
