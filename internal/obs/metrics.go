package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Naming scheme: every metric is superoffload_<subsystem>_<metric>,
// with counters suffixed _total and time accumulators suffixed
// _seconds_total. Each telemetry struct's Samples method owns one
// subsystem prefix (nvme, act, placement, comm, stv), which is
// what keeps the five engines' metrics non-colliding — the conformance
// test in the root package asserts it.

// Kind classifies a metric sample for the text exposition.
type Kind int

// The metric kinds the registry exposes.
const (
	// KindCounter is a monotonically nondecreasing total.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value that may move both ways.
	KindGauge
)

// String names the kind the way the text format spells it.
func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Sample is one metric observation: a name under the unified naming
// scheme, its kind, and its current value.
type Sample struct {
	// Name is the full metric name (superoffload_<subsystem>_<metric>).
	Name string
	// Kind is the sample's exposition kind.
	Kind Kind
	// Value is the current reading.
	Value float64
}

// Source is the shared surface the engines' telemetry structs publish
// through: a snapshot of named samples. Implementations must be usable
// on a value copy (the telemetry structs are snapshot-by-value types).
type Source interface {
	// Samples returns the source's current metric samples.
	Samples() []Sample
}

// Provider yields a live Source on demand — the registry calls it at
// every Gather, so metrics track a running engine. ok is false when
// the source currently has nothing to report (e.g. no NVMe tier).
type Provider func() (Source, bool)

// Registry aggregates metric instruments (counters, gauges,
// histograms) and live providers into one pollable, named sample
// space. All methods are safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]Source
	order       []string
	providers   []Provider
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: map[string]Source{}}
}

// Counter returns the registry's counter named name, creating it on
// first use. It panics if the name is already bound to a different
// instrument kind (a programming error, like a duplicate flag).
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.instrument(name, func() Source { return &Counter{name: name} }).(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a counter", name))
	}
	return c
}

// Gauge returns the registry's gauge named name, creating it on first
// use. It panics on an instrument-kind conflict.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.instrument(name, func() Source { return &Gauge{name: name} }).(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a gauge", name))
	}
	return g
}

// Histogram returns the registry's histogram named name with the given
// upper bucket bounds (ascending), creating it on first use. It panics
// on an instrument-kind conflict.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, ok := r.instrument(name, func() Source {
		return &Histogram{name: name, bounds: bounds, counts: make([]int64, len(bounds)+1)}
	}).(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
	}
	return h
}

// instrument looks up or creates a named instrument under the lock.
func (r *Registry) instrument(name string, build func() Source) Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.instruments[name]; ok {
		return s
	}
	s := build()
	r.instruments[name] = s
	r.order = append(r.order, name)
	return s
}

// Register adds a live metrics provider; its samples join every
// subsequent Gather.
func (r *Registry) Register(p Provider) {
	r.mu.Lock()
	r.providers = append(r.providers, p)
	r.mu.Unlock()
}

// Gather snapshots every instrument and provider into one sample list,
// sorted by name. Samples sharing a name are summed (several ranks or
// stores reporting the same subsystem fold into one series).
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	sources := make([]Source, 0, len(r.order))
	for _, name := range r.order {
		sources = append(sources, r.instruments[name])
	}
	providers := make([]Provider, len(r.providers))
	copy(providers, r.providers)
	r.mu.Unlock()

	byName := map[string]int{}
	var out []Sample
	add := func(s Sample) {
		if i, ok := byName[s.Name]; ok {
			out[i].Value += s.Value
			return
		}
		byName[s.Name] = len(out)
		out = append(out, s)
	}
	for _, src := range sources {
		for _, s := range src.Samples() {
			add(s)
		}
	}
	for _, p := range providers {
		if src, ok := p(); ok {
			for _, s := range src.Samples() {
				add(s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText writes the gathered samples in a Prometheus-style text
// exposition: a # TYPE line then "name value" per metric.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Gather() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n",
			s.Name, s.Kind, s.Name, formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders a sample value without trailing float noise on
// integral counts.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically nondecreasing total, safe for concurrent
// use.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Samples satisfies Source.
func (c *Counter) Samples() []Sample {
	return []Sample{{Name: c.name, Kind: KindCounter, Value: float64(c.v.Load())}}
}

// Gauge is a point-in-time value, safe for concurrent use.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Samples satisfies Source.
func (g *Gauge) Samples() []Sample {
	return []Sample{{Name: g.name, Kind: KindGauge, Value: g.Value()}}
}

// Histogram is a fixed-bound distribution, safe for concurrent use.
// Its samples expose the observation count, the sum, and cumulative
// per-bound counts (name_le_<bound>), Prometheus-style.
type Histogram struct {
	name   string
	bounds []float64

	mu     sync.Mutex
	counts []int64
	sum    float64
	n      int64
}

// Observe records one value into the distribution.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Samples satisfies Source.
func (h *Histogram) Samples() []Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Sample, 0, len(h.bounds)+3)
	out = append(out,
		Sample{Name: h.name + "_count", Kind: KindCounter, Value: float64(h.n)},
		Sample{Name: h.name + "_sum", Kind: KindCounter, Value: h.sum},
	)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		out = append(out, Sample{
			Name: h.name + "_le_" + strconv.FormatFloat(b, 'g', -1, 64),
			Kind: KindCounter, Value: float64(cum),
		})
	}
	out = append(out, Sample{Name: h.name + "_le_inf", Kind: KindCounter, Value: float64(h.n)})
	return out
}
