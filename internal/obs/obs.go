// Package obs is the dependency-free observability substrate of the
// serving stack: a metrics registry (counters, gauges, log-linear
// histograms, all label-vectored) that exports in the Prometheus text
// exposition format, plus a strict parser for that format so tests
// (TestMetricszOverWire among them) can round-trip what the server serves.
//
// Design constraints, in order: zero third-party dependencies (the repo
// rule), cheap enough to be default-on in the serving hot path (lock-free
// atomic increments after a one-time child lookup; callers hold on to
// child handles), and a text output stable enough to pin in tests.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, matching the Prometheus TYPE keyword.
type Kind string

// The family kinds the registry supports.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry. A Registry is safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// family is one named metric: fixed label names, one child per observed
// label-value combination.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.RWMutex
	children map[string]*child
}

// child is one (family, label values) time series.
type child struct {
	labelVals []string
	bits      atomic.Uint64 // counter/gauge value as float64 bits
	hist      *Histogram    // histograms only
}

func (c *child) add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (c *child) set(v float64) { c.bits.Store(math.Float64bits(v)) }

func (c *child) value() float64 { return math.Float64frombits(c.bits.Load()) }

// register returns the named family, creating it on first use, and
// panics on a kind or label-arity mismatch with an earlier registration —
// such a mismatch is a programming error that would corrupt the export.
func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, labels: append([]string(nil), labels...), children: make(map[string]*child)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered with different kind or labels", name))
	}
	return f
}

func (f *family) child(labelVals []string) *child {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(labelVals)))
	}
	k := strings.Join(labelVals, "\x00")
	f.mu.RLock()
	c := f.children[k]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[k]; c != nil {
		return c
	}
	c = &child{labelVals: append([]string(nil), labelVals...)}
	if f.kind == KindHistogram {
		c.hist = NewHistogram()
	}
	f.children[k] = c
	return c
}

// Counter is a monotonically increasing series handle.
type Counter struct{ c *child }

// Add increases the counter; negative deltas panic.
func (c Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	c.c.add(v)
}

// Inc adds one.
func (c Counter) Inc() { c.c.add(1) }

// Value returns the current count (for tests and status pages).
func (c Counter) Value() float64 { return c.c.value() }

// Gauge is a freely settable series handle.
type Gauge struct{ c *child }

// Set replaces the gauge's value.
func (g Gauge) Set(v float64) { g.c.set(v) }

// Add shifts the gauge's value.
func (g Gauge) Add(v float64) { g.c.add(v) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.c.value() }

// CounterVec is a counter family; With resolves one labeled series.
type CounterVec struct{ f *family }

// With returns the series for the given label values (in registration
// order), creating it on first use. Handles are cheap to cache.
func (v CounterVec) With(labelVals ...string) Counter { return Counter{v.f.child(labelVals)} }

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// With resolves one labeled gauge.
func (v GaugeVec) With(labelVals ...string) Gauge { return Gauge{v.f.child(labelVals)} }

// HistogramVec is a histogram family.
type HistogramVec struct{ f *family }

// With resolves one labeled histogram.
func (v HistogramVec) With(labelVals ...string) *Histogram { return v.f.child(labelVals).hist }

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, labels)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, KindGauge, labels)}
}

// Histogram registers (or finds) a histogram family.
func (r *Registry) Histogram(name, help string, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, KindHistogram, labels)}
}

// families returns the registry's families sorted by name, for stable
// export.
func (r *Registry) families() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validName(s)
}
