package optim

import "math"

// SumSquares returns the float64 sum of squares of one gradient shard —
// the per-bucket partial a distributed global-norm reduction exchanges.
func SumSquares(g []float32) float64 {
	var s float64
	for _, x := range g {
		s += float64(x) * float64(x)
	}
	return s
}

// GlobalNorm returns the L2 norm over all gradient shards, accumulated in
// float64 — the quantity gradient clipping needs globally (§4.4: "the
// clipping of the gradient norm requires calculating the global gradient
// norm"). Partial sums are formed per shard and combined in shard order,
// so a data-parallel engine that reduces per-bucket partials in bucket
// order computes the identical value bit-for-bit.
func GlobalNorm(shards [][]float32) float64 {
	var s float64
	for _, g := range shards {
		s += SumSquares(g)
	}
	return math.Sqrt(s)
}

// ClipScale returns the factor gradients must be scaled by for the global
// norm to respect maxNorm (1.0 when no clipping is needed).
func ClipScale(globalNorm, maxNorm float64) float64 {
	if maxNorm <= 0 || globalNorm <= maxNorm || globalNorm == 0 {
		return 1.0
	}
	return maxNorm / globalNorm
}

// MixedShard is one bucket of mixed-precision training state: fp32 master
// weights and Adam moments (CPU-resident in the paper). The fp16 working
// weights are the masters rounded through fp16, which the holder
// publishes into the model (fp16.Round).
type MixedShard struct {
	Master []float32 // fp32 master parameters
	State  *State
}

// NewMixedShard initializes a shard from fp32 parameters.
func NewMixedShard(params []float32) *MixedShard {
	return &MixedShard{
		Master: append([]float32(nil), params...),
		State:  NewState(len(params)),
	}
}

// StepFrom applies one fused mixed-precision update: m's fp32 masters and
// moments become src's advanced by one GraceAdam step (§4.6); src is m
// itself for an in-place step. grad is fp32 (the Cast_gpu→Move_fp32 path
// of §4.5 delivers fp32 gradients to the CPU); unless gs is 1 the step
// first scales it in place by gs (GraceAdamTo).
func (m *MixedShard) StepFrom(src *MixedShard, cfg Config, grad []float32, gs float32) {
	m.State.Step = src.State.Step + 1
	GraceAdamTo(cfg, m.Master, m.State, src.Master, grad, gs, src.State, m.State.Step)
}

// LossScaler implements static-threshold dynamic loss scaling: the scale
// doubles after a growth interval of good steps and halves on overflow,
// the standard mixed-precision recipe whose overflow checks STV validates
// asynchronously.
type LossScaler struct {
	Scale          float64
	GrowthInterval int
	// GoodSteps is the current overflow-free streak. It is part of the
	// checkpointed state: resuming without it would delay the next scale
	// doubling and silently fork the trajectory.
	GoodSteps int
	MinScale  float64
	MaxScale  float64
}

// NewLossScaler returns the standard 2^16 initial scale.
func NewLossScaler() *LossScaler {
	return &LossScaler{Scale: 65536, GrowthInterval: 2000, MinScale: 1, MaxScale: 1 << 24}
}

// Update advances the scaler after a step: overflow halves the scale and
// resets the streak; otherwise the streak grows and may double the scale.
// It returns true when the step must be skipped (overflow).
func (s *LossScaler) Update(overflow bool) bool {
	if overflow {
		s.Scale /= 2
		if s.Scale < s.MinScale {
			s.Scale = s.MinScale
		}
		s.GoodSteps = 0
		return true
	}
	s.GoodSteps++
	if s.GoodSteps >= s.GrowthInterval {
		s.Scale *= 2
		if s.Scale > s.MaxScale {
			s.Scale = s.MaxScale
		}
		s.GoodSteps = 0
	}
	return false
}
