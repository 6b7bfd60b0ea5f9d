// Package dp is the multi-superchip training engine: one engine over an
// (R, S, P) shape — R data-parallel replica groups × S Ulysses sequence
// ranks per cell × P pipeline stages per column — running R·S·P simulated
// superchip ranks over the real GPT numerics of internal/nn, with a
// ZeRO-style partition of the fp32 master weights and Adam moments across
// all ranks (following the partitioned-optimizer-state design of
// ZeRO-Offload that SuperOffload extends to Superchips — the paper's 2×
// and 4× GH200 configurations). Data parallelism, sequence parallelism,
// the R×S mesh and the 1F1B pipeline are shapes of this engine, not
// separate runtimes; a size-1 axis allocates no links and emits no ops.
//
// The partition follows the existing internal/stv bucket boundaries, so
// buckets remain the unit of offload, reduction, and rollback. Each step,
// every cell (the S ranks of one group and stage) produces its stage's
// gradient for the group's row slice, the cells reduce-scatter bucket
// slices to the global bucket owners, owners step speculatively, and a
// post-step fp16 weight all-gather republishes every replica. Rank links
// are modeled as goroutine channels; STV's speculative per-bucket step and
// background validation overlap with communication exactly as §4.4
// prescribes, and rollback stays exact across ranks: a clip or NaN
// verdict rolls back the globally reduced step on every rank.
//
// Determinism contract: for the same global batch, every (R,S,P) shape
// reproduces — bit for bit — the loss trajectory, rollback decisions,
// stats and checkpoints of a single-rank stv.Trainer that processes the
// same R-way row decomposition via gradient accumulation. S and P are
// invisible to the numerics. All cross-rank reductions happen in a fixed
// order: gradient contributions sum in (micro-batch, group) order, global
// gradient-norm partials sum in bucket order, and losses sum in
// (micro-batch, group) order.
package dp

import (
	"superoffload/internal/act"
	"superoffload/internal/obs"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/stv"
)

// Config parameterizes the engine. The optimizer fields mirror stv.Config
// so every shape stays trajectory-compatible with the single-rank
// trainer. Ranks, SeqRanks and PipeRanks are the (R,S,P) shape; 0 means 1
// on every axis.
type Config struct {
	// Ranks is the data-parallel degree R: the number of replica groups
	// a global batch's rows split across (the paper evaluates 1, 2, 4,
	// and 16 superchips).
	Ranks int
	// SeqRanks is the per-cell sequence-parallel degree S. The model's
	// head count and every batch's sequence length must divide by S.
	SeqRanks int
	// PipeRanks is the pipeline-parallel degree P — the number of stage
	// ranks each (group, sequence) column splits the transformer depth
	// over. The model must have at least P transformer blocks.
	PipeRanks int
	// Adam is the optimizer hyperparameter set.
	Adam optim.Config
	// ClipNorm is the global gradient-norm clipping threshold (0
	// disables clipping).
	ClipNorm float64
	// BucketElems is the per-bucket element budget shared with stv.
	BucketElems int
	// Synchronous resolves every validation before Step returns (the
	// synchronize-then-execute baseline); the default overlaps
	// validation with the next step's forward (STV).
	Synchronous bool
	// Scaler enables mixed-precision loss scaling; nil trains unscaled.
	Scaler *optim.LossScaler
	// Schedule, when non-nil, returns a learning-rate multiplier for the
	// given 1-based step.
	Schedule func(step int) float64
	// InjectBad, when non-nil, is consulted per step; returning true
	// corrupts the reduced gradient of bucket 0 with +Inf (fault
	// injection for overflow/rollback tests).
	InjectBad func(step int) bool
	// NewStore, when non-nil, builds the bucket store holding each
	// rank's ZeRO shard of optimizer state (each rank gets its own store
	// keyed by global bucket index). Nil keeps every shard DRAM-resident.
	// The engine owns the stores: Close closes them.
	NewStore func(rank int) (stv.BucketStore, error)
	// Placement assigns every global bucket an update tier (GPU-resident
	// tail, CPU Adam, or the NVMe window). Each rank runs a virtual-clock
	// superchip executor over its owned shard of the plan — the per-rank
	// placement — and the engine sums their telemetry. Nil disables
	// placement modeling. Tiers never change numerics, so any plan keeps
	// the engine bit-identical to the homogeneous single-rank trainer.
	Placement *place.Plan
	// Tracer, when non-nil, records per-op schedule spans (one track per
	// rank), coordinator step spans, and collective instants for export
	// as Chrome trace-event JSON. Nil disables tracing at zero cost —
	// the interpreter's hot path takes one predictable branch per op.
	Tracer *obs.Tracer
	// NewActStore, when non-nil, builds the activation offloading tier
	// (internal/act) of every final-stage rank: per-layer forward
	// activations spill out of the rank's replica behind the store's
	// resident window and prefetch back ahead of backward. Only final
	// stages get one because act.Store is strictly single-pass and only
	// the last stage's 1F1B schedule completes each forward pass before
	// the next begins (at P=1 that is every rank). Spilling is
	// numerically invisible. The engine owns the stores: Close closes
	// them.
	NewActStore func(rank int) (*act.Store, error)
}

// goMsg releases a rank into the backward phase of the current step with
// the state the coordinator resolved after validation (loss scale may have
// just changed).
type goMsg struct {
	adam   optim.Config
	scale  float64 // current loss scale
	inject bool    // corrupt the reduced gradient of bucket 0
}

// Command kinds for a rank's top-level loop (comm.go's command).
const (
	cmdStep    = iota
	cmdResolve // apply a resolution outside a step (Flush)
	cmdStop
)

// withDefaults fills the size-1 axes and the bucket budget.
func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.SeqRanks == 0 {
		c.SeqRanks = 1
	}
	if c.PipeRanks == 0 {
		c.PipeRanks = 1
	}
	if c.BucketElems <= 0 {
		c.BucketElems = stv.DefaultBucketElems
	}
	return c
}
