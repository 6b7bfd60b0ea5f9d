package stv

import (
	"sync"

	"superoffload/internal/act"
	"superoffload/internal/hw"
	"superoffload/internal/nn"
	"superoffload/internal/place"
)

// Heterogeneous placement on the real engine. A place.Plan assigns every
// bucket an update tier; the PlacementExecutor is the virtual-clock
// superchip model that times each optimizer step's GPU backward + cast,
// C2C gradient traffic, CPU (or GPU) Adam, and weight return on
// place.StepTimes' throttled clocks — the placement counterpart of the
// NVMe store's pipelined-vs-serialized accounting. Placement never
// touches numerics: every tier applies the same Adam kernel, so
// trajectories, rollbacks, and checkpoints stay bit-identical to the
// homogeneous trainer (GPU-resident buckets' speculative step simply IS
// their synchronous in-step update, with the version it read retained
// until the global verdict lands).

// PlacementTier is one tier's cumulative share of the executor's modeled
// time.
type PlacementTier struct {
	// Buckets counts the buckets this holder models on the tier (static
	// per executor; engines sum it across ranks).
	Buckets int
	// D2HSeconds, AdamSeconds, H2DSeconds, and NVMeSeconds accumulate the
	// tier's modeled phase times over all recorded steps. Conversions are
	// fused into the transfers they precede (see place.TierSeconds): the
	// gradient cast is inside D2HSeconds, the weight re-cast inside
	// H2DSeconds.
	D2HSeconds  float64
	AdamSeconds float64
	H2DSeconds  float64
	NVMeSeconds float64
}

// add accumulates another tier share (Buckets sum too: across ranks the
// per-rank shards partition the plan).
func (t PlacementTier) add(o PlacementTier) PlacementTier {
	return PlacementTier{
		Buckets:     t.Buckets + o.Buckets,
		D2HSeconds:  t.D2HSeconds + o.D2HSeconds,
		AdamSeconds: t.AdamSeconds + o.AdamSeconds,
		H2DSeconds:  t.H2DSeconds + o.H2DSeconds,
		NVMeSeconds: t.NVMeSeconds + o.NVMeSeconds,
	}
}

// PlacementTelemetry is the executor's modeled-time accounting. All
// seconds are virtual (hw.SuperchipSpec-throttled), not wall clock;
// multi-rank engines sum per-rank figures, so divide by the rank count
// for a per-superchip estimate.
type PlacementTelemetry struct {
	// Steps counts recorded optimizer steps.
	Steps int
	// BackwardSeconds is modeled GPU backward time.
	BackwardSeconds float64
	// PipelinedSeconds is the overlapped schedule's completion time:
	// backward plus the optimizer work the clocks could not hide.
	PipelinedSeconds float64
	// SerializedSeconds is the no-overlap reference (backward plus every
	// phase of every bucket end to end).
	SerializedSeconds float64
	// ForwardSeconds, ActWriteSeconds, ActReadSeconds, and
	// ActStallSeconds are the activation tier's modeled phases (see
	// place.Breakdown); all zero unless an activation store is attached.
	ForwardSeconds  float64
	ActWriteSeconds float64
	ActReadSeconds  float64
	ActStallSeconds float64
	// Tiers is the per-tier breakdown, indexed by place.Tier.
	Tiers [place.NumTiers]PlacementTier
}

// HiddenFraction reports how much of the serialized schedule the
// pipelined one hides (0 when nothing was recorded).
func (t PlacementTelemetry) HiddenFraction() float64 {
	if t.SerializedSeconds == 0 {
		return 0
	}
	return 1 - t.PipelinedSeconds/t.SerializedSeconds
}

// Add accumulates another executor's telemetry (per-rank shards of a
// multi-rank engine sum into one figure).
func (t PlacementTelemetry) Add(o PlacementTelemetry) PlacementTelemetry {
	out := PlacementTelemetry{
		Steps:             max(t.Steps, o.Steps),
		BackwardSeconds:   t.BackwardSeconds + o.BackwardSeconds,
		PipelinedSeconds:  t.PipelinedSeconds + o.PipelinedSeconds,
		SerializedSeconds: t.SerializedSeconds + o.SerializedSeconds,
		ForwardSeconds:    t.ForwardSeconds + o.ForwardSeconds,
		ActWriteSeconds:   t.ActWriteSeconds + o.ActWriteSeconds,
		ActReadSeconds:    t.ActReadSeconds + o.ActReadSeconds,
		ActStallSeconds:   t.ActStallSeconds + o.ActStallSeconds,
	}
	for i := range out.Tiers {
		out.Tiers[i] = t.Tiers[i].add(o.Tiers[i])
	}
	return out
}

// PlacementExecutor times one holder's optimizer steps against a modeled
// superchip. Each rank of the engine models its owned ZeRO shard (the
// per-rank placement; the whole partition on one superchip), with ready
// times spaced over the full backward.
type PlacementExecutor struct {
	spec    hw.SuperchipSpec
	work    []place.BucketWork
	nGlobal int
	hidden  int
	params  int64
	act     place.ActShape

	mu  sync.Mutex
	tel PlacementTelemetry
}

// NewPlacementExecutor builds the executor over a holder's buckets — all
// of a trainer's, or a rank's owned shard, in ascending index order — of
// a partition of nGlobal buckets. m is the replica whose backward feeds
// the clocks, and st, when non-nil, its activation store, whose
// spill/prefetch schedule the recorded steps then model around the
// optimizer phases. The clocks are those of the paper's platform,
// hw.DefaultSuperchip. Nil without a plan; every method is nil-safe.
func NewPlacementExecutor(plan *place.Plan, m *nn.GPT, st *act.Store, buckets []*Bucket, nGlobal int) *PlacementExecutor {
	if plan == nil {
		return nil
	}
	e := &PlacementExecutor{
		spec: hw.DefaultSuperchip(), nGlobal: nGlobal,
		hidden: m.Cfg.Hidden, params: int64(m.NumParams()),
	}
	for _, bk := range buckets {
		wk := place.BucketWork{Index: bk.idx, Elems: bk.Size(), Tier: plan.Tier(bk.idx)}
		e.work = append(e.work, wk)
		e.tel.Tiers[wk.Tier].Buckets++
	}
	if st != nil {
		e.act = place.ActShape{Layers: m.Cfg.Layers, Resident: st.Resident(), Heads: m.Cfg.Heads, NVMe: st.OnNVMe()}
	}
	return e
}

// Record charges one optimizer step to the virtual clocks: tokens is the
// batch rows × positions backward processed this step (summed over
// accumulation micro-batches) and seq the sequence length feeding the
// GEMM-efficiency model. Nil-safe, so call sites need no placement guard.
func (e *PlacementExecutor) Record(tokens, seq int) {
	if e == nil {
		return
	}
	bd := place.StepTimes(e.spec, e.work, e.nGlobal, place.Shape{
		Tokens: tokens, Hidden: e.hidden, Seq: seq, Params: e.params, Act: e.act,
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tel.Steps++
	e.tel.BackwardSeconds += bd.Backward
	e.tel.PipelinedSeconds += bd.Pipelined
	e.tel.SerializedSeconds += bd.Serialized
	e.tel.ForwardSeconds += bd.Forward
	e.tel.ActWriteSeconds += bd.ActWrite
	e.tel.ActReadSeconds += bd.ActRead
	e.tel.ActStallSeconds += bd.ActStall
	for i, ts := range bd.Tiers {
		pt := &e.tel.Tiers[i]
		pt.D2HSeconds += ts.D2H
		pt.AdamSeconds += ts.Adam
		pt.H2DSeconds += ts.H2D
		pt.NVMeSeconds += ts.NVMe
	}
}

// Telemetry returns a snapshot of the cumulative modeled-time counters.
func (e *PlacementExecutor) Telemetry() PlacementTelemetry {
	if e == nil {
		return PlacementTelemetry{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tel
}
