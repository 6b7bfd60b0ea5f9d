package stv

import (
	"superoffload/internal/hw"
	"superoffload/internal/obs"
)

// NVMeStoreConfig parameterizes the single-lane preset (NewNVMeStore);
// Dir, ResidentBuckets, ComputeTime and Tracer are MLPStoreConfig's.
type NVMeStoreConfig struct {
	Dir string
	// Spec is the one path's transfer-time model (default hw.NodeNVMe()).
	Spec            hw.NVMeSpec
	ResidentBuckets int
	ComputeTime     func(elems int) float64
	Tracer          *obs.Tracer
	// TrackLabel prefixes the trace track names (default "nvme"): the
	// consumer's instants on "<label>", the lane's spans on "<label> path 0".
	TrackLabel string
}

// StoreTelemetry is the flash tier's modeled-time accounting. All seconds
// are virtual (hw.NVMeSpec-throttled), not wall clock.
type StoreTelemetry struct {
	Reads        int
	Writes       int
	BytesRead    int64
	BytesWritten int64
	// ReadSeconds/WriteSeconds are modeled device occupancy.
	ReadSeconds  float64
	WriteSeconds float64
	// StallSeconds is modeled consumer time spent waiting for fetches.
	StallSeconds float64
	// ComputeSeconds is modeled Adam time over mutating holds.
	ComputeSeconds float64
}

// PipelinedSeconds is the modeled consumer wall time of the overlapped
// schedule: compute plus the fetch stalls prefetching could not hide.
func (t StoreTelemetry) PipelinedSeconds() float64 { return t.ComputeSeconds + t.StallSeconds }

// SerializedSeconds is the modeled wall time of a schedule with no
// overlap: every fetch, step, and flush lands on the critical path.
func (t StoreTelemetry) SerializedSeconds() float64 {
	return t.ReadSeconds + t.WriteSeconds + t.ComputeSeconds
}

// Sub returns the telemetry delta since an earlier snapshot.
func (t StoreTelemetry) Sub(o StoreTelemetry) StoreTelemetry {
	return StoreTelemetry{
		Reads:          t.Reads - o.Reads,
		Writes:         t.Writes - o.Writes,
		BytesRead:      t.BytesRead - o.BytesRead,
		BytesWritten:   t.BytesWritten - o.BytesWritten,
		ReadSeconds:    t.ReadSeconds - o.ReadSeconds,
		WriteSeconds:   t.WriteSeconds - o.WriteSeconds,
		StallSeconds:   t.StallSeconds - o.StallSeconds,
		ComputeSeconds: t.ComputeSeconds - o.ComputeSeconds,
	}
}

// Add accumulates another store's telemetry (per-rank stores of a
// data-parallel engine sum into one figure).
func (t StoreTelemetry) Add(o StoreTelemetry) StoreTelemetry {
	return StoreTelemetry{
		Reads:          t.Reads + o.Reads,
		Writes:         t.Writes + o.Writes,
		BytesRead:      t.BytesRead + o.BytesRead,
		BytesWritten:   t.BytesWritten + o.BytesWritten,
		ReadSeconds:    t.ReadSeconds + o.ReadSeconds,
		WriteSeconds:   t.WriteSeconds + o.WriteSeconds,
		StallSeconds:   t.StallSeconds + o.StallSeconds,
		ComputeSeconds: t.ComputeSeconds + o.ComputeSeconds,
	}
}

// NVMeStore is the single-lane preset of MLPStore: one flash path, no
// DRAM cache tier. It exists for its constructor's spelling and its flat
// Telemetry; every other method and the failure contract are MLPStore's.
type NVMeStore struct{ *MLPStore }

// NewNVMeStore builds a one-path, cache-less MLPStore over cfg.Spec.
func NewNVMeStore(cfg NVMeStoreConfig) (*NVMeStore, error) {
	if cfg.Spec.ReadBW == 0 {
		cfg.Spec = hw.NodeNVMe()
	}
	if cfg.TrackLabel == "" {
		cfg.TrackLabel = "nvme"
	}
	s, err := NewMLPStore(MLPStoreConfig{
		Dir:             cfg.Dir,
		Paths:           hw.IOPaths{cfg.Spec},
		ResidentBuckets: cfg.ResidentBuckets,
		ComputeTime:     cfg.ComputeTime,
		Tracer:          cfg.Tracer,
		TrackLabel:      cfg.TrackLabel,
	})
	if err != nil {
		return nil, err
	}
	return &NVMeStore{s}, nil
}

// Telemetry returns a snapshot of the modeled-time counters.
func (s *NVMeStore) Telemetry() StoreTelemetry {
	t, _ := s.NVMeTelemetry()
	return t
}
