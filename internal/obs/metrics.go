package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
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

// Registry is a list of live metric providers polled into one named
// sample space. Each provider is called at every Gather, so metrics
// track a running engine; a provider with nothing to report returns no
// samples. All methods are safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	providers []func() []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a live metrics provider; its samples join every
// subsequent Gather.
func (r *Registry) Register(p func() []Sample) {
	r.mu.Lock()
	r.providers = append(r.providers, p)
	r.mu.Unlock()
}

// Gather polls every provider into one sample list, sorted by name.
// Samples sharing a name are summed (several ranks or stores reporting
// the same subsystem fold into one series).
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	providers := append([]func() []Sample(nil), r.providers...)
	r.mu.Unlock()

	byName := map[string]int{}
	var out []Sample
	for _, p := range providers {
		for _, s := range p() {
			if i, ok := byName[s.Name]; ok {
				out[i].Value += s.Value
				continue
			}
			byName[s.Name] = len(out)
			out = append(out, s)
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
