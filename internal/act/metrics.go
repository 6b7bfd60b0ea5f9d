package act

import "superoffload/internal/obs"

// Samples publishes the activation tier's counters as superoffload_act_*
// metrics. A Telemetry value is a point-in-time snapshot; the facade's
// provider re-reads Store.Telemetry at every Gather.
func (t Telemetry) Samples() []obs.Sample {
	c := func(name string, v float64) obs.Sample {
		return obs.Sample{Name: "superoffload_act_" + name, Kind: obs.KindCounter, Value: v}
	}
	return []obs.Sample{
		c("passes_total", float64(t.Passes)),
		c("spills_total", float64(t.Spills)),
		c("fetches_total", float64(t.Fetches)),
		c("spilled_bytes_total", float64(t.BytesSpilled)),
		c("fetched_bytes_total", float64(t.BytesFetched)),
		c("write_seconds_total", t.WriteSeconds),
		c("read_seconds_total", t.ReadSeconds),
		c("stall_seconds_total", t.StallSeconds),
		c("compute_seconds_total", t.ComputeSeconds),
	}
}
