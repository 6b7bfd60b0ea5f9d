package stv

import (
	"fmt"
	"math"
	"sync"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/hw"
	"superoffload/internal/nn"
	"superoffload/internal/obs"
	"superoffload/internal/optim"
	"superoffload/internal/place"
)

// Mode selects the optimizer scheduling scheme.
type Mode int

const (
	// STE is synchronize-then-execute: wait for all gradients, validate,
	// clip, then step (ZeRO-Offload's schedule, Fig. 3).
	STE Mode = iota
	// STV is speculation-then-validation: step speculatively per bucket,
	// validate in the background, roll back on failure (Fig. 8).
	STV
)

// String names the schedule for logs and experiment tables.
func (m Mode) String() string {
	if m == STE {
		return "STE"
	}
	return "STV"
}

// Config parameterizes a Trainer.
type Config struct {
	Adam optim.Config
	Impl optim.Impl
	// ClipNorm is the global gradient-norm clipping threshold (0
	// disables clipping).
	ClipNorm float64
	// BucketElems is the per-bucket element budget (the 64 MB fp16
	// bucket is 32M elements; tests use small values).
	BucketElems int
	Mode        Mode
	// Scaler enables mixed-precision loss scaling; nil trains unscaled.
	Scaler *optim.LossScaler
	// InjectBad, when non-nil, is consulted after each backward pass
	// with the step index; returning true corrupts one gradient with
	// +Inf — the fault-injection hook overflow tests and the Fig. 14
	// experiment use.
	InjectBad func(step int) bool
	// Schedule, when non-nil, returns a learning-rate multiplier for
	// the given 1-based step (warm-up, cosine decay, ...). Rollback
	// re-execution uses the same step's rate, preserving exactness.
	Schedule func(step int) float64
	// Store selects where bucket optimizer state (fp32 masters, Adam
	// moments, rollback snapshots) lives between touches. Nil keeps
	// everything resident in DRAM; an MLPStore spills to backing files
	// with a small resident window; a PlacedStore routes residency by
	// the placement plan's tiers. The trainer owns the store: Close
	// closes it.
	Store BucketStore
	// Placement assigns each bucket an update tier (GPU-resident tail,
	// CPU Adam, or the NVMe window) for the virtual-clock superchip
	// executor. Nil trains homogeneously with no placement modeling.
	// Tiers change only where modeled time is charged and (through the
	// store) where state resides — numerics are tier-invariant, so any
	// plan trains bit-identically to the homogeneous trainer.
	Placement *place.Plan
	// Superchip is the hardware model the placement executor times
	// against; the zero value means hw.DefaultSuperchip(). Ignored when
	// Placement is nil.
	Superchip hw.SuperchipSpec
	// Act, when non-nil, is the activation offloading tier: per-layer
	// forward activations spill out of the replica behind the store's
	// resident window and prefetch back ahead of backward. Numerically
	// invisible (restores are bit-exact); the trainer owns the store and
	// attaches it to the model — Close closes it.
	Act *act.Store
	// Tracer, when non-nil, gives the trainer a "trainer" trace track
	// with one span per step phase (forward, resolve, backward,
	// speculate). Nil disables tracing at zero cost.
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
		cos := 0.5 * (1 + cosApprox(progress))
		return minFrac + (1-minFrac)*cos
	}
}

// cosApprox computes cos(pi*x) for x in [0,1] via math.Cos; kept as a
// helper so the schedule stays testable.
func cosApprox(x float64) float64 { return math.Cos(math.Pi * x) }

// Stats counts validation outcomes — the Fig. 14 telemetry.
type Stats struct {
	Steps     int // optimizer steps attempted
	Commits   int // steps that validated clean
	ClipRolls int // rollback + re-execute with clipped gradients
	SkipRolls int // rollback + skip (NaN/Inf)
	Redos     int // forward passes redone after a rollback
}

// Rollbacks returns total rollback events.
func (s Stats) Rollbacks() int { return s.ClipRolls + s.SkipRolls }

// valResult is what the background validator reports: the deferred global
// state of §4.4.
type valResult struct {
	bad        bool
	globalNorm float64
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

	// stats sits behind statsMu so an observability endpoint can poll
	// Stats concurrently with a running step.
	statsMu sync.Mutex
	stats   Stats

	// STV pipeline state: an in-flight validation for the last
	// speculative step.
	pending     bool
	pendingAdam optim.Config // the hyperparameters the in-flight step used
	validCh     chan valResult
	lastLoss    float64
	stepIndex   int

	// valShards caches the per-bucket gradient slice headers the
	// validator scans; bucket staging buffers never move, so it is built
	// once instead of per step.
	valShards [][]float32
}

// gradShards returns the stable per-bucket gradient views for validation.
func (t *Trainer) gradShards() [][]float32 {
	if t.valShards == nil {
		t.valShards = make([][]float32, len(t.buckets))
		for i, bk := range t.buckets {
			t.valShards[i] = bk.grad
		}
	}
	return t.valShards
}

// stepAdam returns the Adam config for the current step, with the
// learning-rate schedule applied.
func (t *Trainer) stepAdam() optim.Config {
	a := t.Cfg.Adam
	if t.Cfg.Schedule != nil {
		a.LR *= t.Cfg.Schedule(t.stepIndex)
	}
	return a
}

// DefaultBucketElems is the per-bucket element budget when Config leaves
// BucketElems unset: 32M elements, the paper's 64 MB fp16 bucket (§4.3).
const DefaultBucketElems = 32 << 20

// NewTrainer buckets the model and prepares the optimizer state. A
// placement plan, when present, must cover the resulting bucket count
// exactly (NewTrainer panics otherwise — the partition is deterministic,
// so a mismatch is a construction bug, not a runtime condition).
func NewTrainer(m *nn.GPT, cfg Config) *Trainer {
	if cfg.Impl == nil {
		cfg.Impl = optim.GraceAdam
	}
	if cfg.BucketElems <= 0 {
		cfg.BucketElems = DefaultBucketElems
	}
	store := cfg.Store
	if store == nil {
		store = NewDRAMStore()
	}
	t := &Trainer{
		Model:   m,
		Cfg:     cfg,
		store:   store,
		buckets: partitionParams(m.Params(), cfg.BucketElems, store),
		validCh: make(chan valResult, 1),
		track:   cfg.Tracer.Track("trainer"),
	}
	if cfg.Placement != nil {
		if err := cfg.Placement.Validate(len(t.buckets)); err != nil {
			panic(fmt.Sprintf("stv: %v", err))
		}
		idx := make([]int, len(t.buckets))
		elems := make([]int, len(t.buckets))
		for i, bk := range t.buckets {
			idx[i], elems[i] = i, bk.Size()
		}
		t.exec = NewPlacementExecutor(cfg.Superchip, *cfg.Placement, idx, elems,
			len(t.buckets), m.Cfg.Hidden, int64(m.NumParams()))
	}
	if cfg.Act != nil {
		m.SetActivationTap(cfg.Act)
		t.exec.SetAct(ActShapeFor(m, cfg.Act))
	}
	return t
}

// ActShapeFor describes a model's activation store to the virtual-clock
// step model — the bridge every engine uses to put spill/prefetch time
// on its placement executor's clocks. Zero when the store is nil.
func ActShapeFor(m *nn.GPT, s *act.Store) place.ActShape {
	if s == nil {
		return place.ActShape{}
	}
	return place.ActShape{
		Layers:   m.Cfg.Layers,
		Resident: s.Resident(),
		Heads:    m.Cfg.Heads,
		NVMe:     s.OnNVMe(),
	}
}

// NumBuckets reports the partition size (diagnostics).
func (t *Trainer) NumBuckets() int { return len(t.buckets) }

// Store returns the trainer's bucket store (telemetry access).
func (t *Trainer) Store() BucketStore { return t.store }

// Close releases the bucket store's (and activation store's) backing
// resources. The trainer is unusable afterwards; resolve any in-flight
// validation (Flush) first.
func (t *Trainer) Close() error {
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
func (t *Trainer) Stats() Stats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats
}

// bumpStats applies a mutation to the validation counters under the
// stats lock.
func (t *Trainer) bumpStats(f func(*Stats)) {
	t.statsMu.Lock()
	f(&t.stats)
	t.statsMu.Unlock()
}

// PlacementTelemetry returns the virtual-clock superchip executor's
// modeled accounting; ok is false without a placement plan.
func (t *Trainer) PlacementTelemetry() (PlacementTelemetry, bool) {
	if t.exec == nil {
		return PlacementTelemetry{}, false
	}
	return t.exec.Telemetry(), true
}

// Step runs one training iteration on the batch and returns its loss.
//
// Under STV the sequencing mirrors Fig. 8: the forward pass runs first;
// only then is the previous step's validation resolved (it has been
// running in the background). If validation demands a rollback, the
// weights change and the forward pass is redone — the "RB → F1" arrow in
// the figure.
func (t *Trainer) Step(b data.Batch) (float64, error) {
	switch t.Cfg.Mode {
	case STE:
		return t.stepSTE(b)
	case STV:
		return t.stepSTV(b)
	}
	return 0, fmt.Errorf("stv: unknown mode %d", t.Cfg.Mode)
}

// scale returns the current loss scale (1 when scaling is disabled).
func (t *Trainer) scale() float64 {
	if t.Cfg.Scaler == nil {
		return 1
	}
	return t.Cfg.Scaler.Scale
}

// backwardAndStage runs backward and stages unscaled gradients in every
// bucket.
func (t *Trainer) backwardAndStage(b data.Batch) float64 {
	sp := t.track.Begin("forward")
	loss, cache := t.Model.Forward(b.Tokens, b.Targets, b.BatchSize, b.Seq)
	sp.End()
	t.Model.Params().ZeroGrads()
	sp = t.track.Begin("backward")
	t.Model.Backward(cache, t.scale())
	sp.End()
	t.maybeInject()
	inv := float32(1 / t.scale())
	for _, bk := range t.buckets {
		bk.StageGrads(inv)
	}
	return loss
}

func (t *Trainer) maybeInject() {
	if t.Cfg.InjectBad != nil && t.Cfg.InjectBad(t.stepIndex) {
		g := t.Model.Params()[0].G.Data
		g[0] = float32(math.Inf(1))
	}
}

// validate computes the deferred global state over staged gradients.
func (t *Trainer) validate() valResult {
	shards := t.gradShards()
	return valResult{bad: optim.HasBad(shards), globalNorm: optim.GlobalNorm(shards)}
}

// ---- STE (ZeRO-Offload schedule) ----

func (t *Trainer) stepSTE(b data.Batch) (float64, error) {
	t.stepIndex++
	loss := t.backwardAndStage(b)
	t.bumpStats(func(s *Stats) { s.Steps++ })

	// Synchronize: full validation before any optimizer work (Fig. 3's
	// gray block on the critical path).
	sp := t.track.Begin("resolve")
	v := t.validate()
	sp.End()
	if v.bad {
		t.bumpStats(func(s *Stats) { s.SkipRolls++ })
		if t.Cfg.Scaler != nil {
			t.Cfg.Scaler.Update(true)
		}
		return loss, nil // skip step entirely
	}
	if t.Cfg.Scaler != nil {
		t.Cfg.Scaler.Update(false)
	}
	t.applyDirectStep(v)
	t.exec.Record(b.BatchSize*b.Seq, b.Seq)
	return loss, nil
}

// applyDirectStep applies a committed (synchronous) optimizer step over
// all buckets with the clip scale derived from the validated global norm.
func (t *Trainer) applyDirectStep(v valResult) {
	clip := optim.ClipScale(v.globalNorm, t.Cfg.ClipNorm)
	if clip != 1.0 {
		t.bumpStats(func(s *Stats) { s.ClipRolls++ }) // a clip event, for comparability with STV
	} else {
		t.bumpStats(func(s *Stats) { s.Commits++ })
	}
	adam := t.stepAdam()
	sp := t.track.Begin("speculate")
	for _, bk := range t.buckets {
		bk.DirectStep(adam, t.Cfg.Impl, clip)
	}
	sp.End()
}

// ---- STV (SuperOffload schedule) ----

func (t *Trainer) stepSTV(b data.Batch) (float64, error) {
	t.stepIndex++
	// Forward; resolve the previous iteration's validation "after the
	// forward pass" (§4.4). A rollback changes weights ⇒ redo forward.
	for {
		sp := t.track.Begin("forward")
		loss, cache := t.Model.Forward(b.Tokens, b.Targets, b.BatchSize, b.Seq)
		sp.End()
		sp = t.track.Begin("resolve")
		rolledBack, err := t.resolvePending()
		sp.End()
		if err != nil {
			return 0, err
		}
		if rolledBack {
			t.bumpStats(func(s *Stats) { s.Redos++ })
			continue
		}
		t.lastLoss = loss
		t.Model.Params().ZeroGrads()
		sp = t.track.Begin("backward")
		t.Model.Backward(cache, t.scale())
		sp.End()
		break
	}
	t.maybeInject()
	inv := float32(1 / t.scale())
	adam := t.stepAdam()
	sp := t.track.Begin("speculate")
	for _, bk := range t.buckets {
		bk.StageGrads(inv)
		// Speculative per-bucket step: in the real system this
		// overlaps the remaining backward on the GPU.
		bk.SpeculativeStep(adam, t.Cfg.Impl)
	}
	sp.End()
	t.bumpStats(func(s *Stats) { s.Steps++ })
	t.exec.Record(b.BatchSize*b.Seq, b.Seq)
	t.launchValidation()
	return t.lastLoss, nil
}

// launchValidation starts the background validator (the Python-
// multiprocessing worker of §4.4): global norm and NaN/Inf scan off the
// critical path, delivered through the queue.
func (t *Trainer) launchValidation() {
	t.pendingAdam = t.stepAdam()
	// The staged gradients stay untouched until resolvePending consumes
	// this result (the next step's StageGrads runs after resolution), so
	// the background scan reads stable data.
	go func(v chan<- valResult, shards [][]float32) {
		v <- valResult{bad: optim.HasBad(shards), globalNorm: optim.GlobalNorm(shards)}
	}(t.validCh, t.gradShards())
	t.pending = true
}

// resolvePending consumes an outstanding validation, applying rollback /
// re-execution / commit. Returns whether weights changed (forward must be
// redone).
func (t *Trainer) resolvePending() (bool, error) {
	if !t.pending {
		return false, nil
	}
	v := <-t.validCh
	t.pending = false

	if v.bad {
		// Scenario 1: NaN/Inf ⇒ the iteration is skipped; undo the
		// speculative update entirely.
		for _, bk := range t.buckets {
			bk.Rollback()
		}
		t.bumpStats(func(s *Stats) { s.SkipRolls++ })
		if t.Cfg.Scaler != nil {
			t.Cfg.Scaler.Update(true)
		}
		return true, nil
	}
	if t.Cfg.Scaler != nil {
		t.Cfg.Scaler.Update(false)
	}
	clip := optim.ClipScale(v.globalNorm, t.Cfg.ClipNorm)
	if clip != 1.0 {
		// Scenario 2: clipping violated ⇒ revert and re-execute with
		// clipped gradients, using the hyperparameters the
		// speculative step used (the schedule may have moved on).
		for _, bk := range t.buckets {
			bk.ReExecuteClipped(t.pendingAdam, t.Cfg.Impl, clip)
		}
		t.bumpStats(func(s *Stats) { s.ClipRolls++ })
		return true, nil
	}
	for _, bk := range t.buckets {
		bk.Commit()
	}
	t.bumpStats(func(s *Stats) { s.Commits++ })
	return false, nil
}

// Flush resolves any in-flight validation (call at end of training so the
// final step is validated). Returns whether the final step was rolled
// back or re-executed.
func (t *Trainer) Flush() (bool, error) { return t.resolvePending() }

// MasterWeights exposes the CPU-side fp32 master parameters, concatenated
// in bucket order — the ground truth for exactness comparisons.
func (t *Trainer) MasterWeights() []float32 {
	n := 0
	for _, bk := range t.buckets {
		n += bk.Size()
	}
	out := make([]float32, 0, n)
	for _, bk := range t.buckets {
		out = bk.AppendMaster(out)
	}
	return out
}
