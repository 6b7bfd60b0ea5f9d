package superoffload

// Observability facade: re-exports the internal/obs tracing and metrics
// layer and wires whichever engine an InitX built into one registry.
// The flow is always the same three steps — NewTracer into
// OptimizerConfig.Tracer, RegisterMetrics(reg, engine), and either
// Tracer.WriteJSON for a Chrome trace file or ObsHandler on an HTTP
// listener for live /metrics + /trace polling (see examples/tracing).

import (
	"net/http"

	"superoffload/internal/obs"
)

// Tracer records per-op schedule spans, store IO events, and collective
// instants across every engine, for export as Chrome trace-event JSON;
// see obs.Tracer. A nil Tracer in OptimizerConfig disables tracing at
// zero cost.
type Tracer = obs.Tracer

// NewTracer starts an enabled tracer; its clock zero is now.
func NewTracer() *Tracer { return obs.NewTracer() }

// MetricsRegistry collects counters, gauges, and telemetry providers
// for the /metrics endpoint and Gather snapshots; see obs.Registry.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricSample is one gathered metric reading; see obs.Sample.
type MetricSample = obs.Sample

// MetricSource is the interface every telemetry snapshot implements to
// publish into a MetricsRegistry; see obs.Source.
type MetricSource = obs.Source

// ObsHandler serves the observability endpoints over HTTP: /metrics
// (text-format registry snapshot), /trace (Chrome trace JSON; ?follow=1
// streams), and /debug/pprof. Either argument may be nil; its endpoint
// then reports 404.
func ObsHandler(reg *MetricsRegistry, tr *Tracer) http.Handler {
	return obs.Handler(reg, tr)
}

// statsSource, telemetrySource, placementSource, actSource, and
// commSource are the telemetry surfaces RegisterMetrics probes for —
// Engine has them all, a test fake may implement a subset.
type statsSource interface{ Stats() Stats }
type telemetrySource interface {
	StoreTelemetry() (StoreTelemetry, bool)
}
type placementSource interface {
	PlacementTelemetry() (PlacementTelemetry, bool)
}
type actSource interface {
	ActTelemetry() (ActTelemetry, bool)
}
type commSource interface{ CommStats() SPCommStats }

// RegisterMetrics registers live telemetry providers for an engine (an
// *Engine, or any value with some of its telemetry methods) on the
// registry: validation stats, NVMe store accounting, placement clocks,
// activation tier traffic, and link traffic — whichever surfaces the
// value exposes. Each Gather re-reads the engine, so the registry serves
// mid-run values; every read path is lock-protected engine-side,
// making polling safe during training. Registering the same engine
// twice double-counts: Gather sums same-named samples.
func RegisterMetrics(reg *MetricsRegistry, engine any) {
	if s, ok := engine.(statsSource); ok {
		reg.Register(func() (MetricSource, bool) { return s.Stats(), true })
	}
	if s, ok := engine.(telemetrySource); ok {
		reg.Register(func() (MetricSource, bool) {
			t, ok := s.StoreTelemetry()
			return t, ok
		})
	}
	if s, ok := engine.(placementSource); ok {
		reg.Register(func() (MetricSource, bool) {
			t, ok := s.PlacementTelemetry()
			return t, ok
		})
	}
	if s, ok := engine.(actSource); ok {
		reg.Register(func() (MetricSource, bool) {
			t, ok := s.ActTelemetry()
			return t, ok
		})
	}
	if s, ok := engine.(commSource); ok {
		// Silent until a link carries something: a shape without
		// sequence or pipeline links publishes no comm metrics.
		reg.Register(func() (MetricSource, bool) {
			cs := s.CommStats()
			return cs, cs != SPCommStats{}
		})
	}
}
