package stv

// Metrics bridge: each telemetry snapshot type in the package names its
// counters under the unified superoffload_<subsystem>_<metric> scheme.
// A snapshot is a point-in-time value; the facade's one provider per
// engine re-reads the snapshots at every Gather.

import (
	"superoffload/internal/obs"
	"superoffload/internal/place"
)

// Samples publishes the store counters as superoffload_nvme_* metrics.
func (t StoreTelemetry) Samples() []obs.Sample {
	c := func(name string, v float64) obs.Sample {
		return obs.Sample{Name: "superoffload_nvme_" + name, Kind: obs.KindCounter, Value: v}
	}
	return []obs.Sample{
		c("reads_total", float64(t.Reads)),
		c("writes_total", float64(t.Writes)),
		c("read_bytes_total", float64(t.BytesRead)),
		c("written_bytes_total", float64(t.BytesWritten)),
		c("read_seconds_total", t.ReadSeconds),
		c("write_seconds_total", t.WriteSeconds),
		c("stall_seconds_total", t.StallSeconds),
		c("compute_seconds_total", t.ComputeSeconds),
	}
}

// Samples publishes the superchip executor's modeled accounting as
// superoffload_placement_* metrics, with per-tier phase breakdowns
// under superoffload_placement_<tier>_* (tier labels from
// place.Tier.String).
func (t PlacementTelemetry) Samples() []obs.Sample {
	c := func(name string, v float64) obs.Sample {
		return obs.Sample{Name: "superoffload_placement_" + name, Kind: obs.KindCounter, Value: v}
	}
	out := []obs.Sample{
		c("steps_total", float64(t.Steps)),
		c("backward_seconds_total", t.BackwardSeconds),
		c("pipelined_seconds_total", t.PipelinedSeconds),
		c("serialized_seconds_total", t.SerializedSeconds),
		c("forward_seconds_total", t.ForwardSeconds),
		c("act_write_seconds_total", t.ActWriteSeconds),
		c("act_read_seconds_total", t.ActReadSeconds),
		c("act_stall_seconds_total", t.ActStallSeconds),
	}
	for i, tier := range t.Tiers {
		label := place.Tier(i).String()
		out = append(out,
			obs.Sample{Name: "superoffload_placement_" + label + "_buckets", Kind: obs.KindGauge, Value: float64(tier.Buckets)},
			c(label+"_d2h_seconds_total", tier.D2HSeconds),
			c(label+"_adam_seconds_total", tier.AdamSeconds),
			c(label+"_h2d_seconds_total", tier.H2DSeconds),
			c(label+"_nvme_seconds_total", tier.NVMeSeconds),
		)
	}
	return out
}

// Samples publishes the STV validation outcomes as superoffload_stv_*
// metrics.
func (s Stats) Samples() []obs.Sample {
	c := func(name string, v int) obs.Sample {
		return obs.Sample{Name: "superoffload_stv_" + name, Kind: obs.KindCounter, Value: float64(v)}
	}
	return []obs.Sample{
		c("steps_total", s.Steps),
		c("commits_total", s.Commits),
		c("clip_rolls_total", s.ClipRolls),
		c("skip_rolls_total", s.SkipRolls),
		c("redos_total", s.Redos),
		c("rollbacks_total", s.Rollbacks()),
	}
}
