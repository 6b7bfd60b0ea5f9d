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
// are modeled as goroutine channels; the owners step speculatively ahead
// of validation as §4.4 prescribes, and rollback stays exact across
// ranks: a clip or NaN verdict rolls back the globally reduced step on
// every rank.
//
// Determinism contract: for the same global batch, every (R,S,P) shape
// reproduces — bit for bit — the loss trajectory, rollback decisions,
// stats and checkpoints of the (1,1,1) engine, and of the serial
// reference internal/stv/stvref, processing the same R-way row
// decomposition via gradient accumulation. S and P are
// invisible to the numerics. All cross-rank reductions happen in a fixed
// order: gradient contributions sum in (micro-batch, group) order, the
// owners' per-bucket sums of squares sum in bucket order, and losses sum in
// (micro-batch, group) order.
package dp

import (
	"superoffload/internal/act"
	"superoffload/internal/stv"
)

// Config parameterizes the engine: the optimizer and schedule options,
// the (R,S,P) shape (0 means 1 on every axis) and the per-rank store
// factories.
type Config struct {
	stv.Config
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
	// NewStore, when non-nil, builds the bucket store holding each
	// rank's ZeRO shard of optimizer state (each rank gets its own store
	// keyed by global bucket index). Nil keeps every shard DRAM-resident.
	// The engine owns the stores: Close closes them.
	NewStore func(rank int) (stv.BucketStore, error)
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
	c.BucketElems = c.BucketBudget()
	return c
}
