package stv

import (
	"fmt"
	"math"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/nn"
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

// Config is the option set of both engines: a Trainer takes it as is,
// and internal/dp's engine embeds it beside its (R,S,P) shape.
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
	// Store selects where bucket optimizer state (both versions of the
	// fp32 masters and Adam moments) lives between touches. Nil keeps
	// everything resident in DRAM; an MLPStore spills to backing files
	// with a small resident window; a PlacedStore routes residency by
	// the placement plan's tiers. The trainer owns the store: Close
	// closes it. The multi-rank engine builds one per rank instead
	// (dp.Config.NewStore) and rejects this field.
	Store BucketStore
	// Placement assigns each bucket an update tier (GPU-resident tail,
	// CPU Adam, or the NVMe window) for the virtual-clock superchip
	// executor; under dp each rank models its owned shard of the plan.
	// Nil trains homogeneously with no placement modeling.
	// Tiers change only where modeled time is charged and (through the
	// store) where state resides — numerics are tier-invariant, so any
	// plan trains bit-identically to the homogeneous trainer.
	Placement *place.Plan
	// Act, when non-nil, is the activation offloading tier: per-layer
	// forward activations spill out of the replica behind the store's
	// resident window and prefetch back ahead of backward. Numerically
	// invisible (restores are bit-exact); the trainer owns the store and
	// attaches it to the model — Close closes it. The multi-rank engine
	// builds one per final-stage rank instead (dp.Config.NewActStore)
	// and rejects this field.
	Act *act.Store
	// Tracer, when non-nil, gives the trainer a "trainer" trace track:
	// per micro-batch a forward and a backward span (the latter includes
	// staging the gradients), a resolve span where a verdict is applied,
	// and one speculate span for normalise + optimizer step + sum of
	// squares (STE's synchronous resolve nests inside it). The multi-rank
	// engine records one track per rank instead, plus coordinator and
	// comm tracks. Nil disables tracing at zero cost.
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

// Trainer drives mixed-precision training of a real GPT with either
// schedule.
type Trainer struct {
	Model *nn.GPT
	Cfg   Config

	store   BucketStore
	buckets []*Bucket
	exec    *PlacementExecutor // nil without a placement plan
	track   *obs.Track         // step-phase spans; nil when tracing is off

	// ctl is the step-control state (step counter, loss scale, pending
	// verdict, counters).
	ctl *Verdict
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

// NewTrainer buckets the model and prepares the optimizer state. A
// placement plan, when present, must cover the resulting bucket count
// exactly (NewTrainer panics otherwise — the partition is deterministic,
// so a mismatch is a construction bug, not a runtime condition).
func NewTrainer(m *nn.GPT, cfg Config) *Trainer {
	cfg.BucketElems = cfg.BucketBudget()
	store := cfg.Store
	if store == nil {
		store = NewDRAMStore()
	}
	t := &Trainer{
		Model:   m,
		Cfg:     cfg,
		store:   store,
		buckets: partitionParams(m.Params(), cfg.BucketElems, store),
		ctl:     NewVerdict(cfg),
		track:   cfg.Tracer.Track("trainer"),
	}
	if cfg.Placement != nil {
		if err := cfg.Placement.Validate(len(t.buckets)); err != nil {
			panic(fmt.Sprintf("stv: %v", err))
		}
	}
	if cfg.Act != nil {
		m.SetActivationTap(cfg.Act)
	}
	t.exec = NewPlacementExecutor(cfg.Placement, m, cfg.Act, t.buckets, len(t.buckets))
	return t
}

// NumBuckets reports the partition size (diagnostics).
func (t *Trainer) NumBuckets() int { return len(t.buckets) }

// Close releases the bucket store's (and activation store's) backing
// resources. Idempotent; Step, Flush, Save and Load fail afterwards.
// Resolve any pending verdict (Flush) first.
func (t *Trainer) Close() error {
	if t.ctl.Live() != nil {
		return nil
	}
	t.ctl.Close()
	err := t.store.Close()
	if t.Cfg.Act != nil {
		if aerr := t.Cfg.Act.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// ActTelemetry returns the activation store's traffic and modeled-time
// accounting; ok is false without an activation tier.
func (t *Trainer) ActTelemetry() (act.Telemetry, bool) {
	if t.Cfg.Act == nil {
		return act.Telemetry{}, false
	}
	return t.Cfg.Act.Telemetry(), true
}

// Stats returns validation counters. Safe to call concurrently with a
// running step (telemetry pollers).
func (t *Trainer) Stats() Stats { return t.ctl.Stats() }

// StepIndex reports how many optimizer steps the trainer has attempted
// (restored by Load).
func (t *Trainer) StepIndex() int { return t.ctl.StepIndex() }

// StoreTelemetry returns the modeled NVMe-tier accounting; ok is false
// when optimizer state is DRAM-resident (nothing to model).
func (t *Trainer) StoreTelemetry() (StoreTelemetry, bool) {
	if src, ok := t.store.(TelemetrySource); ok {
		return src.NVMeTelemetry()
	}
	return StoreTelemetry{}, false
}

// PlacementTelemetry returns the virtual-clock superchip executor's
// modeled accounting; ok is false without a placement plan.
func (t *Trainer) PlacementTelemetry() (PlacementTelemetry, bool) {
	if t.exec == nil {
		return PlacementTelemetry{}, false
	}
	return t.exec.Telemetry(), true
}

// Step runs one training iteration on the batch and returns its loss: a
// StepAccum window of one.
func (t *Trainer) Step(b data.Batch) (float64, error) {
	return t.StepAccum([]data.Batch{b})
}

// StepAccum runs one optimizer step over the given micro-batches (§5.2's
// OOM-mitigation strategy 1) and returns their mean loss. Each
// micro-batch runs forward and backward from zeroed gradients and stages
// its raw contribution into every bucket, one whole contribution at a
// time in micro-batch order; the sum is then normalised by
// 1/(lossScale·M). Summing whole per-micro-batch contributions (rather
// than accumulating inside the model's gradient tensors across backward
// passes) fixes the floating-point reduction order, so an R-rank
// data-parallel engine that reduces per-rank contributions in rank order
// reproduces the accumulated update bit for bit.
//
// Under STV the sequencing mirrors Fig. 8: the previous step's verdict is
// applied only after the window's first forward pass; if it demands a
// rollback the weights change and that forward is redone — the "RB → F1"
// arrow in the figure. The speculative per-bucket step then fires once,
// over the normalised sum, and each bucket's sum of squares is taken as
// it steps: the step's validation is that one number, left pending for
// the next window. STE (Fig. 3) resolves it at once, on the critical path,
// and steps from the verdict with Bucket.DirectStep: in place, no
// rollback, and a skipped step does no optimizer work at all.
func (t *Trainer) StepAccum(batches []data.Batch) (float64, error) {
	if t.Cfg.Mode != STE && t.Cfg.Mode != STV {
		return 0, fmt.Errorf("stv: unknown mode %d", t.Cfg.Mode)
	}
	if err := t.ctl.Live(); err != nil {
		return 0, err
	}
	if len(t.buckets) == 0 || len(batches) == 0 {
		return 0, nil
	}
	adam := t.ctl.BeginStep()
	var loss float64
	tokens := 0 // the backward volume the placement executor charges
	for m, b := range batches {
		l, cache := t.forward(b)
		if m == 0 && t.resolve().WeightsChanged() {
			t.ctl.Redo()
			l, cache = t.forward(b)
		}
		sp := t.track.Begin("backward")
		t.Model.Params().ZeroGrads()
		t.Model.Backward(cache, t.ctl.Scale())
		for _, bk := range t.buckets {
			bk.AccumGrad(m == 0)
		}
		sp.End()
		loss += l
		tokens += b.BatchSize * b.Seq
	}
	loss /= float64(len(batches))

	sp := t.track.Begin("speculate")
	defer sp.End()
	if t.Cfg.InjectBad != nil && t.Cfg.InjectBad(t.ctl.StepIndex()) {
		t.buckets[0].grad[0] = float32(math.Inf(1))
	}
	inv := float32(1 / (t.ctl.Scale() * float64(len(batches))))
	speculative := t.Cfg.Mode == STV
	var sumsq float64 // in bucket order from 0: optim.GlobalNorm's grouping
	for _, bk := range t.buckets {
		if speculative {
			// In the real system this overlaps the remaining backward on
			// the GPU.
			bk.SpeculativeStep(adam, inv)
		} else {
			bk.ScaleGrad(inv)
		}
		sumsq += optim.SumSquares(bk.grad)
	}
	t.ctl.Launched(adam, sumsq)
	if !speculative {
		res := t.resolve() // its span nests inside speculate
		if res.Action == Skip {
			return loss, nil
		}
		for _, bk := range t.buckets {
			bk.DirectStep(adam, res.ClipScale)
		}
	}
	t.exec.Record(tokens, batches[0].Seq)
	return loss, nil
}

// forward runs one micro-batch's forward pass under its trace span.
func (t *Trainer) forward(b data.Batch) (float64, *nn.FwdCache) {
	sp := t.track.Begin("forward")
	defer sp.End()
	return t.Model.Forward(b.Tokens, b.Targets, b.BatchSize, b.Seq)
}

// resolve turns the pending verdict, if any, into a resolution and applies
// it to every bucket: commit, roll back, or re-execute clipped.
// Under STE no bucket is ever dirty (DirectStep steps in place), so
// Apply finds nothing to do and StepAccum steps from the returned verdict.
func (t *Trainer) resolve() Resolution {
	sp := t.track.Begin("resolve")
	defer sp.End()
	res := t.ctl.Resolve()
	for _, bk := range t.buckets {
		bk.Apply(res)
	}
	return res
}

// Flush resolves any pending verdict (call at end of training so the
// final step is validated). Returns whether the final step was rolled
// back or re-executed.
func (t *Trainer) Flush() (bool, error) {
	if err := t.ctl.Live(); err != nil {
		return false, err
	}
	return t.resolve().WeightsChanged(), nil
}

// MasterWeights exposes the CPU-side fp32 master parameters, concatenated
// in bucket order — the ground truth for exactness comparisons.
func (t *Trainer) MasterWeights() []float32 { return MasterWeights(t.buckets) }
