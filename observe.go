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

// MetricsRegistry polls live telemetry providers for the /metrics
// endpoint and Gather snapshots; see obs.Registry.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricSample is one gathered metric reading; see obs.Sample.
type MetricSample = obs.Sample

// ObsHandler serves the observability endpoints over HTTP: /metrics
// (text-format registry snapshot), /trace (Chrome trace JSON; ?follow=1
// streams), and /debug/pprof. Either argument may be nil; its endpoint
// then reports 404.
func ObsHandler(reg *MetricsRegistry, tr *Tracer) http.Handler {
	return obs.Handler(reg, tr)
}

// TelemetrySource is the telemetry surface RegisterMetrics reads:
// validation stats, flash store accounting, placement clocks,
// activation tier traffic and link traffic. *Engine implements it; the
// three optional snapshots report ok false when the engine has no such
// tier.
type TelemetrySource interface {
	Stats() Stats
	StoreTelemetry() (StoreTelemetry, bool)
	PlacementTelemetry() (PlacementTelemetry, bool)
	ActTelemetry() (ActTelemetry, bool)
	CommStats() SPCommStats
}

// RegisterMetrics registers one live provider for an engine on the
// registry. Each Gather re-reads the engine, so the registry serves
// mid-run values; every read path is lock-protected engine-side, making
// polling safe during training. Registering the same engine twice
// double-counts: Gather sums same-named samples.
func RegisterMetrics(reg *MetricsRegistry, engine TelemetrySource) {
	reg.Register(func() []MetricSample {
		out := engine.Stats().Samples()
		if t, ok := engine.StoreTelemetry(); ok {
			out = append(out, t.Samples()...)
		}
		if t, ok := engine.PlacementTelemetry(); ok {
			out = append(out, t.Samples()...)
		}
		if t, ok := engine.ActTelemetry(); ok {
			out = append(out, t.Samples()...)
		}
		// Silent until a link carries something: a shape without
		// sequence or pipeline links publishes no comm metrics.
		if cs := engine.CommStats(); cs != (SPCommStats{}) {
			out = append(out, cs.Samples()...)
		}
		return out
	})
}
