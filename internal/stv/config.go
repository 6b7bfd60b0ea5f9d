package stv

import (
	"math"

	"superoffload/internal/obs"
	"superoffload/internal/optim"
	"superoffload/internal/place"
)

// Mode selects the optimizer scheduling scheme.
type Mode int

const (
	// STV is speculation-then-validation: step speculatively per bucket,
	// apply the verdict after the next window's first forward, roll back
	// on failure (Fig. 8). It is the zero Mode.
	STV Mode = iota
	// STE is synchronize-then-execute: wait for all gradients, validate,
	// clip, then step (ZeRO-Offload's schedule, Fig. 3).
	STE
)

// String names the schedule for logs and experiment tables.
func (m Mode) String() string {
	if m == STE {
		return "STE"
	}
	return "STV"
}

// Config is the engine's optimizer and schedule options; internal/dp's
// engine embeds it beside its (R,S,P) shape and per-rank store
// factories.
type Config struct {
	Adam optim.Config
	// ClipNorm is the global gradient-norm clipping threshold (0
	// disables clipping).
	ClipNorm float64
	// BucketElems is the per-bucket element budget; 0 or less means
	// DefaultBucketElems (see BucketBudget).
	BucketElems int
	// Mode is the schedule; the zero value is STV.
	Mode Mode
	// Scaler enables mixed-precision loss scaling; nil trains unscaled.
	Scaler *optim.LossScaler
	// InjectBad, when non-nil, is consulted once per optimizer step with
	// the step index; returning true corrupts the staged (under dp, the
	// reduced) gradient of bucket 0 with +Inf — the fault-injection hook
	// overflow tests use.
	InjectBad func(step int) bool
	// Schedule, when non-nil, returns a learning-rate multiplier for
	// the given 1-based step (warm-up, cosine decay, ...). Rollback
	// re-execution uses the same step's rate, preserving exactness.
	Schedule func(step int) float64
	// Placement assigns each bucket an update tier (GPU-resident tail,
	// CPU Adam, or the NVMe window) for the virtual-clock superchip
	// executor; under dp each rank models its owned shard of the plan.
	// Nil trains homogeneously with no placement modeling.
	// Tiers change only where modeled time is charged and (through the
	// store) where state resides — numerics are tier-invariant, so any
	// plan trains bit-identically to no plan.
	Placement *place.Plan
	// Tracer, when non-nil, records one span per schedule op on one
	// track per rank ("trainer" for the single rank), plus coordinator
	// and comm tracks when there are several. Nil disables tracing at
	// zero cost.
	Tracer *obs.Tracer
}

// WarmupCosine returns the standard warm-up + cosine-decay schedule used
// by GPT pre-training recipes.
func WarmupCosine(warmup, total int, minFrac float64) func(int) float64 {
	return func(step int) float64 {
		if step < warmup {
			return float64(step+1) / float64(warmup)
		}
		if step >= total {
			return minFrac
		}
		progress := float64(step-warmup) / float64(total-warmup)
		cos := 0.5 * (1 + math.Cos(math.Pi*progress))
		return minFrac + (1-minFrac)*cos
	}
}

// DefaultBucketElems is the per-bucket element budget when Config leaves
// BucketElems unset: 32M elements, the paper's 64 MB fp16 bucket (§4.3).
const DefaultBucketElems = 32 << 20

// BucketBudget is the per-bucket element budget the config partitions
// under: BucketElems, or DefaultBucketElems when that is 0 or less. Every
// engine and the facade's placement planner partition through it, so they
// agree on the bucket count.
func (c Config) BucketBudget() int {
	if c.BucketElems <= 0 {
		return DefaultBucketElems
	}
	return c.BucketElems
}
