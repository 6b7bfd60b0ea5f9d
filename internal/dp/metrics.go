package dp

import "superoffload/internal/obs"

// Samples publishes the engine's cumulative link traffic as
// superoffload_comm_* metrics. An SPCommStats value is a point-in-time
// snapshot; the facade's provider re-reads the engine's CommStats at
// every Gather.
func (s SPCommStats) Samples() []obs.Sample {
	c := func(name string, v int64) obs.Sample {
		return obs.Sample{Name: "superoffload_comm_" + name, Kind: obs.KindCounter, Value: float64(v)}
	}
	return []obs.Sample{
		c("a2a_payloads_total", s.A2APayloads),
		c("a2a_floats_total", s.A2AFloats),
		c("ring_hops_total", s.RingHops),
		c("ring_floats_total", s.RingFloats),
		c("stage_sends_total", s.StageSends),
		c("stage_floats_total", s.StageFloats),
	}
}
