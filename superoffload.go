// Package superoffload is a Go reproduction of "SuperOffload: Unleashing
// the Power of Large-Scale LLM Training on Superchips" (ASPLOS 2026): a
// Superchip-centric offloading system that overlaps CPU optimizer work
// with GPU computation via speculation-then-validation, picks bucket sizes
// and weight residency adaptively, and chooses casting placement for the
// NVLink-C2C link.
//
// The package exposes three layers:
//
//   - A real training engine (Init/Step, mirroring the paper's Fig. 1
//     two-line enablement) that trains an actual GPT on real numerics with
//     speculative per-bucket Adam steps, validation deferred to the next
//     step, and exact rollback — plus its multi-superchip form: InitMesh runs one
//     engine over an R×S×P shape (R data-parallel groups with
//     ZeRO-sharded optimizer state, bucketized gradient reduce-scatter
//     and post-step weight all-gather; S sequence-parallel ranks per
//     cell — SuperOffload-Ulysses, §4.7 — with per-layer attention
//     all-to-alls and a deterministic weight-gradient ring; P 1F1B
//     pipeline stages per column), with Init, InitDP and InitPipe as
//     shape presets over it — all on loss trajectories bit-identical to
//     one superchip's.
//
//   - A planner (Plan/Describe) that sizes workloads against modeled
//     GH200 clusters and predicts throughput for SuperOffload and the
//     seven baseline systems.
//
//   - The experiment harness (RunExperiment) that regenerates every table
//     and figure of the paper's evaluation; see EXPERIMENTS.md.
package superoffload

import (
	"fmt"
	"io"
	"math"
	"slices"

	"superoffload/internal/act"
	"superoffload/internal/core"
	"superoffload/internal/data"
	"superoffload/internal/dp"
	"superoffload/internal/experiments"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/sched"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// ---- real training engine (Fig. 1 facade) ----

// ConfigError is how NewModel and every InitX refuse a configuration, and
// Step and StepAccum a batch: Field is the path in the facade's types
// ("ModelConfig.Heads", "OptimizerConfig.Offload.IOPaths",
// "MeshConfig.SeqRanks", "Batch.Seq"; "Model" for a nil model), Value
// what was given and Want what would be accepted. A failure of the
// machine, such as an unwritable Offload.Dir, stays a plain error.
type ConfigError = data.ConfigError

// rule is one rule on a field of caller input: broken reports that
// field, which holds value, is not want.
type rule struct {
	field  string
	value  any
	broken bool
	want   string
}

// check returns the *ConfigError for the first broken rule, its field
// under the config type named by prefix, or nil.
func check(prefix string, rules ...rule) error {
	for _, r := range rules {
		if r.broken {
			return &ConfigError{Field: prefix + r.field, Value: r.value, Want: r.want}
		}
	}
	return nil
}

// ModelConfig describes a transformer to train for real. Heads 0 selects
// Hidden/64 (at least 1) and MaxSeq 0 selects 128; negative values are
// rejected.
type ModelConfig struct {
	Layers int
	Hidden int
	Heads  int
	Vocab  int
	MaxSeq int
}

// Model is a real GPT with hand-written forward/backward.
type Model struct {
	gpt *nn.GPT
}

// NewModel builds a model with deterministic initialization from seed.
func NewModel(cfg ModelConfig, seed uint64) (*Model, error) {
	heads := cfg.Heads
	if heads == 0 {
		heads = max(cfg.Hidden/64, 1)
	}
	if err := check("ModelConfig.",
		rule{"Layers", cfg.Layers, cfg.Layers < 1, ">= 1"},
		rule{"Hidden", cfg.Hidden, cfg.Hidden < 8, ">= 8"},
		rule{"Vocab", cfg.Vocab, cfg.Vocab < 2, ">= 2"},
		rule{"Heads", cfg.Heads, cfg.Heads < 0, ">= 0 (0 means ModelConfig.Hidden/64, at least 1)"},
		rule{"MaxSeq", cfg.MaxSeq, cfg.MaxSeq < 0, ">= 0 (0 means 128)"},
		rule{"Heads", heads, cfg.Hidden%heads != 0, fmt.Sprintf("a divisor of ModelConfig.Hidden (%d)", cfg.Hidden)},
	); err != nil {
		return nil, err
	}
	cfg.Heads = heads
	if cfg.MaxSeq == 0 {
		cfg.MaxSeq = 128
	}
	mc := model.Config{Name: "user", Layers: cfg.Layers, Hidden: cfg.Hidden, Heads: cfg.Heads, Vocab: cfg.Vocab}
	return &Model{gpt: nn.NewGPT(mc, cfg.MaxSeq, tensor.NewRNG(seed))}, nil
}

// NumParams returns the trainable parameter count.
func (m *Model) NumParams() int { return m.gpt.NumParams() }

// OptimizerConfig is the Adam hyperparameter set plus SuperOffload's
// scheduling knobs. LR 0 selects the default Adam recipe, and then Beta1,
// Beta2, Eps and WeightDecay must be 0 too; otherwise both betas lie in
// [0, 1), Eps is finite and positive and WeightDecay finite and ≥ 0.
type OptimizerConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	// ClipNorm enables global-norm gradient clipping (0 disables;
	// negative or NaN is rejected).
	ClipNorm float64
	// BucketElems overrides the per-bucket parameter budget (0: the
	// default of 32M elements = one 64 MB fp16 bucket, §4.3; negative is
	// rejected).
	BucketElems int
	// Synchronous falls back to the synchronize-then-execute schedule
	// (for comparisons); the default is speculation-then-validation.
	Synchronous bool
	// LossScaling enables dynamic fp16 loss scaling.
	LossScaling bool
	// WarmupSteps/TotalSteps enable the warm-up + cosine-decay learning
	// rate schedule when TotalSteps > 0; MinLRFrac is the decay floor
	// (fraction of LR, in [0, 1]); 0 ≤ WarmupSteps ≤ TotalSteps, and
	// both others are 0 without a schedule. Rollback re-execution uses
	// the rolled-back step's own rate, preserving exactness.
	WarmupSteps int
	TotalSteps  int
	MinLRFrac   float64
	// Offload selects the optimizer-state residency tier.
	Offload OffloadConfig
	// Placement selects the heterogeneous bucket placement (the paper's
	// §4.3 adaptive GPU/CPU weight-update split) and enables the
	// virtual-clock superchip executor.
	Placement PlacementConfig
	// Activation selects the activation offloading tier (per-layer
	// forward activations spill behind a write-behind window and prefetch
	// back ahead of backward, SSDTrain-style).
	Activation ActivationConfig
	// Tracer, when non-nil, records per-op schedule spans, store IO
	// events, and collective instants across whichever engine InitX
	// builds (one track per rank, store worker, and comm plane); export
	// with Tracer.WriteJSON or serve live through ObsHandler. Nil — the
	// default — disables tracing at zero cost.
	Tracer *Tracer
}

// ActivationConfig selects the activation offloading tier: per-layer
// forward activations spill out of the replica as the forward pass's
// write-behind window slides past them and prefetch back ahead of the
// backward pass with async double buffering. Spilling is numerically
// invisible — restores are bit-exact — so any configuration trains
// identically to the resident engine; what changes is the modeled HBM
// footprint and the spill/prefetch time on the virtual clocks.
type ActivationConfig struct {
	// Offload is "" (activations stay resident), "dram" (spill into a
	// host-memory cache over the C2C link), or "nvme" (spill into a
	// backing file at modeled flash rates).
	Offload string
	// Dir is the nvme tier's backing directory (default: the system temp
	// directory). Each rank gets its own file.
	Dir string
	// ResidentLayers is the write-behind window W: the W most recent
	// forward layers stay resident, everything older spills. 0 selects
	// the floor, 2 (the layer being differentiated plus the fetch in
	// flight); 1 or negative is rejected.
	ResidentLayers int
	// HBMBudgetBytes overrides the modeled per-superchip HBM capacity the
	// facade guards step shapes against (0: the modeled GH200's 96 GiB;
	// negative is rejected).
	// A step whose fp16 replica plus resident activation window exceeds
	// the budget is rejected before training touches it — enabling
	// offload shrinks the window from all layers to ResidentLayers, which
	// is what lets overflowing seq×batch shapes train.
	HBMBudgetBytes int64
}

// shape describes the activation tier of a model to the placement layer:
// every layer resident without offload, the hw.ActWindow of
// ResidentLayers with it.
func (a ActivationConfig) shape(m *Model) place.ActShape {
	layers := m.gpt.Cfg.Layers
	resident := layers
	if a.Offload != "" {
		resident = hw.ActWindow(a.ResidentLayers, layers)
	}
	return place.ActShape{Layers: layers, Resident: resident, Heads: m.gpt.Cfg.Heads, NVMe: a.Offload == "nvme"}
}

// storeFactory translates the activation selection into a per-rank store
// constructor (nil means resident activations, the engines' default).
// The tracer, when non-nil, gives each rank's store its own trace track.
func (a ActivationConfig) storeFactory(m *Model, tracer *Tracer) func(rank int) (*act.Store, error) {
	if a.Offload == "" {
		return nil
	}
	tier := act.NVMe
	if a.Offload == "dram" {
		tier = act.DRAM
	}
	hidden, params := m.gpt.Cfg.Hidden, int64(m.NumParams())
	return func(rank int) (*act.Store, error) {
		return act.NewStore(act.Config{
			Tier: tier, Dir: a.Dir, ResidentLayers: a.ResidentLayers,
			Hidden: hidden, Params: params,
			Tracer: tracer, TrackLabel: fmt.Sprintf("rank %d act", rank),
		})
	}
}

// ActTelemetry is the activation store's traffic and modeled-time
// accounting (spills, fetches, prefetch stalls, pipelined vs serialized
// seconds); see act.Telemetry.
type ActTelemetry = act.Telemetry

// hbmGuard models the per-superchip HBM footprint of a step — the fp16
// replica with its fp16 gradients (4 bytes/param) plus the resident
// activation window — and rejects shapes that overflow the modeled
// budget before any rank touches them. Activation offloading shrinks the
// window from every layer to ActivationConfig.ResidentLayers, which is
// exactly what lets long-sequence shapes clear the guard.
type hbmGuard struct {
	budget           int64
	params           int64
	hidden           int
	act              place.ActShape
	rowsDiv, seqDiv  int
	offloadAvailable bool // false when Activation.Offload is already on
}

// newHBMGuard builds the guard for an engine whose ranks each hold
// rows/rowsDiv × seq/seqDiv tokens of the batch.
func (cfg OptimizerConfig) newHBMGuard(m *Model, rowsDiv, seqDiv int) *hbmGuard {
	budget := cfg.Activation.HBMBudgetBytes
	if budget == 0 {
		budget = hw.DefaultSuperchip().Chip.GPU.MemBytes
	}
	return &hbmGuard{
		budget: budget, params: int64(m.NumParams()),
		hidden: m.gpt.Cfg.Hidden, act: cfg.Activation.shape(m),
		rowsDiv: rowsDiv, seqDiv: seqDiv,
		offloadAvailable: cfg.Activation.Offload == "",
	}
}

// check validates one batch's shape against the modeled budget.
func (g *hbmGuard) check(b Batch) error {
	tokens := (b.BatchSize / max(g.rowsDiv, 1)) * (b.Seq / max(g.seqDiv, 1))
	need := 4*g.params + place.ActResidentBytes(place.Shape{Tokens: tokens, Hidden: g.hidden, Seq: b.Seq, Act: g.act})
	if need <= g.budget {
		return nil
	}
	hint := "shrink Batch.BatchSize or Batch.Seq"
	if g.offloadAvailable {
		hint = "set OptimizerConfig.Activation.Offload or shrink Batch.BatchSize"
	}
	return &ConfigError{Field: "Batch.BatchSize", Value: b.BatchSize, Want: fmt.Sprintf(
		"a %d×%d step within the %d MiB modeled HBM budget, not ~%d MiB with %d resident layers; %s",
		b.BatchSize, b.Seq, g.budget>>20, need>>20, g.act.Resident, hint)}
}

// OffloadConfig selects where the fp32 master weights and Adam moments
// live between bucket touches (the third memory tier of the documented
// ext-nvme extension, on the real engine).
type OffloadConfig struct {
	// Backend is "dram" (or empty: everything stays host-resident) or
	// "nvme" (bucket state spills to a backing file with a small
	// resident window, throttled by the modeled NVMe array).
	Backend string
	// Dir is the directory for nvme backing files (default: the system
	// temp directory). Each rank gets its own file.
	Dir string
	// ResidentBuckets caps the nvme store's resident window (0: the
	// floor, 2 — the bucket being stepped plus the one being prefetched;
	// 1 or negative is rejected).
	ResidentBuckets int
	// IOPaths splits the modeled NVMe array into this many independently
	// scheduled flash paths (MLP-Offload's multi-path layer): bucket
	// records stripe across per-path backing files with one IO worker
	// each, and a failed path quarantines while its records re-route to
	// survivors. 0 or 1 means one path (the whole array as one lane);
	// more than one needs the nvme backend.
	IOPaths int
	// CacheBuckets caps the DRAM cache tier the store keeps in front of
	// flash (0 disables the cache tier; more needs the nvme backend).
	CacheBuckets int
}

// storeFactory translates the offload selection into a per-rank bucket
// store constructor (nil means DRAM-resident, the engines' default; nvme
// is the flash store). The tracer, when non-nil, gives each rank's store
// its own trace tracks.
func (o OffloadConfig) storeFactory(tracer *Tracer) func(rank int) (stv.BucketStore, error) {
	if o.Backend != "nvme" {
		return nil
	}
	return func(rank int) (stv.BucketStore, error) {
		return stv.NewMLPStore(stv.MLPStoreConfig{
			Dir:             o.Dir,
			Paths:           hw.NodeIOPaths(max(o.IOPaths, 1)),
			ResidentBuckets: o.ResidentBuckets,
			CacheBuckets:    o.CacheBuckets,
			Tracer:          tracer,
			TrackLabel:      fmt.Sprintf("rank %d nvme", rank),
		})
	}
}

// placementPlan translates the placement selection into a per-bucket tier
// plan over the model's partition under sc's bucket budget (nil when Mode
// is empty). With the nvme offload backend, the offloaded body
// additionally spills through the windowed flash store (CPUAdam tiers
// become NVMeWindow).
func (cfg OptimizerConfig) placementPlan(m *Model, sc stv.Config) *place.Plan {
	pc := cfg.Placement
	if pc.Mode == "" {
		return nil
	}
	groups := stv.PartitionGroups(m.gpt.Params(), sc.BucketBudget())
	elems := make([]int, len(groups))
	for i, g := range groups {
		elems[i] = g.TotalSize()
	}
	nb := len(elems)
	var plan place.Plan
	switch pc.Mode {
	case "cpu":
		plan = place.Uniform(nb, place.CPUAdam)
	case "gpu":
		plan = place.Uniform(nb, place.GPUResident)
	default: // "auto"
		if pc.GPUBuckets > 0 {
			plan = place.GPUTail(nb, pc.GPUBuckets)
		} else {
			batch, seq := max(pc.Batch, 1), pc.Seq
			if seq == 0 {
				seq = m.gpt.MaxSeq
			}
			shape := place.Shape{
				Tokens: batch * seq, Hidden: m.gpt.Cfg.Hidden, Seq: seq,
				Params: int64(m.NumParams()),
			}
			if cfg.Activation.Offload != "" {
				// Co-plan optimizer and activation placement under one
				// HBM budget: the resident activation window claims its
				// bytes first, shrinking the GPU-retained bucket tail.
				shape.Act = cfg.Activation.shape(m)
			}
			plan = place.Auto(hw.DefaultSuperchip(), elems, shape, 0)
		}
	}
	if cfg.Offload.Backend == "nvme" {
		plan = plan.WithNVMeBody()
	}
	return &plan
}

// check holds the config to every rule OptimizerConfig and its three
// tier configs document, in the order they are reported.
func (cfg OptimizerConfig) check() error {
	adam := func(v, lo, hi float64) bool { // LR 0, the default recipe, sets them all
		return cfg.LR == 0 && v == 0 || cfg.LR > 0 && v >= lo && v < hi
	}
	const recipe = ", or 0 while OptimizerConfig.LR is 0 (the default recipe)"
	o, p, a := cfg.Offload, cfg.Placement, cfg.Activation
	flash := o.Backend == "nvme"
	return check("OptimizerConfig.",
		rule{"ClipNorm", cfg.ClipNorm, !(cfg.ClipNorm >= 0), "0 (clipping off) or positive"}, // !(>=) catches NaN
		rule{"LR", cfg.LR, !(cfg.LR >= 0 && cfg.LR <= math.MaxFloat64), "finite, and 0 (the default recipe) or positive"},
		rule{"Beta1", cfg.Beta1, !adam(cfg.Beta1, 0, 1), "in [0, 1)" + recipe},
		rule{"Beta2", cfg.Beta2, !adam(cfg.Beta2, 0, 1), "in [0, 1)" + recipe},
		rule{"Eps", cfg.Eps, !adam(cfg.Eps, math.SmallestNonzeroFloat64, math.Inf(1)), "finite and positive" + recipe},
		rule{"WeightDecay", cfg.WeightDecay, !adam(cfg.WeightDecay, 0, math.Inf(1)), "finite and >= 0" + recipe},
		rule{"WarmupSteps", cfg.WarmupSteps, cfg.WarmupSteps < 0, ">= 0"},
		rule{"TotalSteps", cfg.TotalSteps, cfg.TotalSteps < 0, ">= 0 (0 means no schedule)"},
		rule{"WarmupSteps", cfg.WarmupSteps, cfg.WarmupSteps > cfg.TotalSteps, fmt.Sprintf("<= OptimizerConfig.TotalSteps (%d)", cfg.TotalSteps)},
		rule{"MinLRFrac", cfg.MinLRFrac, !(cfg.MinLRFrac >= 0 && cfg.MinLRFrac <= 1), "in [0, 1]"},
		rule{"MinLRFrac", cfg.MinLRFrac, cfg.TotalSteps == 0 && cfg.MinLRFrac != 0, "0 while OptimizerConfig.TotalSteps is 0 (no schedule)"},
		rule{"BucketElems", cfg.BucketElems, cfg.BucketElems < 0, ">= 0 (0 means the 32M-element default)"},
		rule{"Offload.Backend", o.Backend, !slices.Contains([]string{"", "dram", "nvme"}, o.Backend), `"", "dram" or "nvme"`},
		rule{"Offload.ResidentBuckets", o.ResidentBuckets, o.ResidentBuckets != 0 && o.ResidentBuckets < stv.MinResidentBuckets,
			fmt.Sprintf(">= %d (the flash store's minimum window)", stv.MinResidentBuckets)},
		rule{"Offload.IOPaths", o.IOPaths, o.IOPaths < 0, ">= 0"},
		rule{"Offload.IOPaths", o.IOPaths, !flash && o.IOPaths > 1, `at most 1 unless OptimizerConfig.Offload.Backend is "nvme": paths belong to the flash tier`},
		rule{"Offload.CacheBuckets", o.CacheBuckets, o.CacheBuckets < 0, ">= 0"},
		rule{"Offload.CacheBuckets", o.CacheBuckets, !flash && o.CacheBuckets > 0, `0 unless OptimizerConfig.Offload.Backend is "nvme": the cache fronts the flash tier`},
		rule{"Placement.Mode", p.Mode, !slices.Contains([]string{"", "auto", "cpu", "gpu"}, p.Mode), `"", "auto", "cpu" or "gpu"`},
		rule{"Placement.GPUBuckets", p.GPUBuckets, p.GPUBuckets < 0, ">= 0"},
		rule{"Placement.GPUBuckets", p.GPUBuckets, p.GPUBuckets > 0 && p.Mode != "auto", `0 unless OptimizerConfig.Placement.Mode is "auto"`},
		rule{"Placement.Batch", p.Batch, p.Batch < 0, ">= 0 (0 means 1)"},
		rule{"Placement.Seq", p.Seq, p.Seq < 0, ">= 0 (0 means ModelConfig.MaxSeq)"},
		rule{"Activation.Offload", a.Offload, !slices.Contains([]string{"", "dram", "nvme"}, a.Offload), `"", "dram" or "nvme"`},
		rule{"Activation.ResidentLayers", a.ResidentLayers, a.ResidentLayers != 0 && a.ResidentLayers < hw.ActMinResidentLayers,
			fmt.Sprintf(">= %d (the activation store's minimum write-behind window)", hw.ActMinResidentLayers)},
		rule{"Activation.HBMBudgetBytes", a.HBMBudgetBytes, a.HBMBudgetBytes < 0, ">= 0 (0 means the modeled GH200's HBM)"},
	)
}

// trainSetup checks the model and optimizer config and builds the one
// engine config every InitX takes — the stv.Config with its placement
// plan, plus the per-rank bucket and activation store factories — so the
// engines never diverge on validation or wiring. With a placement, only
// an nvme backend's body buckets spill (through a per-rank PlacedStore).
func (cfg OptimizerConfig) trainSetup(m *Model) (dp.Config, error) {
	if m == nil {
		return dp.Config{}, &ConfigError{Field: "Model", Want: "a model built by NewModel"}
	}
	if err := cfg.check(); err != nil {
		return dp.Config{}, err
	}
	sc := stv.Config{
		Adam:     optim.Config{LR: cfg.LR, Beta1: cfg.Beta1, Beta2: cfg.Beta2, Eps: cfg.Eps, WeightDecay: cfg.WeightDecay},
		ClipNorm: cfg.ClipNorm, BucketElems: cfg.BucketElems, Tracer: cfg.Tracer,
	}
	if sc.Adam.LR == 0 {
		sc.Adam = optim.DefaultConfig()
	}
	if cfg.Synchronous {
		sc.Mode = stv.STE
	}
	if cfg.LossScaling {
		sc.Scaler = optim.NewLossScaler()
	}
	if cfg.TotalSteps > 0 {
		sc.Schedule = stv.WarmupCosine(cfg.WarmupSteps, cfg.TotalSteps, cfg.MinLRFrac)
	}
	sc.Placement = cfg.placementPlan(m, sc)
	factory := cfg.Offload.storeFactory(cfg.Tracer)
	dc := dp.Config{Config: sc, NewStore: factory, NewActStore: cfg.Activation.storeFactory(m, cfg.Tracer)}
	if p := sc.Placement; p != nil && factory != nil {
		// A non-nil factory means the nvme backend, which the placement
		// re-routes through a tier-aware PlacedStore so only the plan's
		// NVMe-tier body spills.
		dc.NewStore = func(rank int) (stv.BucketStore, error) {
			return stv.NewPlacedStoreFlash(*p, func() (stv.BucketStore, error) { return factory(rank) })
		}
	}
	return dc, nil
}

// StoreTelemetry is the flash store's modeled-time accounting (reads,
// writes, stalls, overlapped compute); see stv.StoreTelemetry.
type StoreTelemetry = stv.StoreTelemetry

// PlacementConfig selects the adaptive weight-update placement: which
// buckets update synchronously on the GPU (the §4.3 GPU-retained tail)
// versus flowing over NVLink-C2C to the CPU Adam — and, combined with
// the nvme offload backend, which spill through the windowed flash
// store. Any placement trains bit-identically to the homogeneous
// engine; what changes is residency and the modeled step time the
// virtual-clock superchip executor reports.
type PlacementConfig struct {
	// Mode selects the plan: "" (homogeneous, no placement modeling),
	// "auto" (the paper's GPU-retained tail — pinned by GPUBuckets or
	// derived by grid search over the virtual-clock model), "cpu"
	// (every bucket on the CPU Adam path), or "gpu" (every bucket
	// GPU-resident).
	Mode string
	// GPUBuckets pins the GPU-retained tail size in auto mode (0
	// derives it; values beyond the bucket count clamp). Other modes
	// take no tail and reject a positive value.
	GPUBuckets int
	// Batch and Seq hint the per-step shape the auto grid search times
	// against (defaults: 1 row × the model's max sequence length).
	Batch int
	Seq   int
}

// PlacementTelemetry is the virtual-clock superchip executor's modeled
// accounting (backward, per-tier phase seconds, pipelined vs serialized
// step time); see stv.PlacementTelemetry.
type PlacementTelemetry = stv.PlacementTelemetry

// DefaultOptimizer returns the standard GPT training recipe.
func DefaultOptimizer() OptimizerConfig {
	d := optim.DefaultConfig()
	return OptimizerConfig{LR: d.LR, Beta1: d.Beta1, Beta2: d.Beta2, Eps: d.Eps, ClipNorm: 1.0}
}

// Batch is one training batch in flattened (batch*seq) layout.
type Batch = data.Batch

// Engine trains a Model with SuperOffload's schedule: CPU-resident fp32
// master weights and Adam moments, bucketized speculative updates,
// validation deferred to the next step, and exact rollback (§4.4) — on one simulated
// superchip (Init) or across an R×S×P shape of them (InitMesh and its
// presets); one superchip is the 1×1×1 shape. For the same global batch
// the loss trajectory — rollbacks, checkpoints and all — is bit-identical
// across shapes: an R-group engine reproduces one superchip processing
// the same R-way row decomposition (S and P are invisible to the
// numerics), and checkpoints move freely between them.
type Engine struct {
	t             *dp.Engine
	guard         *hbmGuard
	vocab, maxSeq int // what Batch.Check holds every batch to
}

// Init wraps a model and optimizer into a SuperOffload engine — the
// counterpart of the paper's `SuperOffload.init(model, optimizer)`: the
// 1×1×1 InitMesh, one superchip whose forward and backward split the
// batch rows over the cores it has. Call Close when done.
func Init(m *Model, cfg OptimizerConfig) (*Engine, error) {
	return InitMesh(m, cfg, MeshConfig{})
}

// Step runs one training iteration (forward, backward, speculative
// optimizer step and its sum of squares) over the global batch and
// returns its loss: a StepAccum window of one.
func (e *Engine) Step(b Batch) (float64, error) { return e.StepAccum([]Batch{b}) }

// StepAccum runs one optimizer step over several accumulated global
// micro-batches (the §5.2 OOM-mitigation path) and returns the mean loss.
// On a multi-rank engine every micro-batch shards over the ranks, and the
// window is the pipeline's natural shape: M micro-batches fill the 1F1B
// schedule, shrinking each stage's idle bubble to (P-1)/(M+P-1) of its
// compute. A batch the model cannot take — no rows, token or target
// slices that are not BatchSize×Seq long, a sequence past the model's
// MaxSeq, a token or target outside its vocabulary, rows or a sequence
// the mesh cannot split — or that overflows the modeled HBM budget is
// refused as a *ConfigError naming its Batch field, in the caller's
// goroutine, before any of the window trains.
func (e *Engine) StepAccum(batches []Batch) (float64, error) {
	for _, b := range batches {
		if err := b.Check(e.vocab, e.maxSeq); err != nil {
			return 0, err
		}
		if err := e.guard.check(b); err != nil {
			return 0, err
		}
	}
	return e.t.StepAccum(batches)
}

// Save serializes the training state (fp32 masters, Adam moments, step
// counters, loss scale) over the global bucket order, so the bytes do not
// depend on the engine's shape. Call Flush first; a pending verdict
// blocks checkpointing.
func (e *Engine) Save(w io.Writer) error { return e.t.Save(w) }

// Load restores state saved by any engine's Save into an engine over the
// same model architecture and bucket configuration. A checkpoint that
// fails its crc32 checksums, is cut short, or has counters no run writes
// (negative steps, a non-finite or out-of-range loss scale) is rejected,
// and a rejected Load changes nothing.
func (e *Engine) Load(r io.Reader) error { return e.t.Load(r) }

// Flush resolves the final step's pending verdict; call once after the
// last Step.
func (e *Engine) Flush() error {
	_, err := e.t.Flush()
	return err
}

// Stats reports validation outcomes (commits, clip rollbacks, NaN skips).
type Stats = stv.Stats

// Stats returns the engine's validation counters.
func (e *Engine) Stats() Stats { return e.t.Stats() }

// NumBuckets reports how many offload buckets the parameter space uses.
func (e *Engine) NumBuckets() int { return e.t.NumBuckets() }

// Ranks reports the data-parallel degree R (the number of replica
// groups); 1 on the single superchip, like the other two axes.
func (e *Engine) Ranks() int { return e.t.Ranks() }

// SeqRanks reports the per-cell sequence-parallel degree S.
func (e *Engine) SeqRanks() int { return e.t.SeqRanks() }

// PipeRanks reports the pipeline-parallel degree P (stages per column).
func (e *Engine) PipeRanks() int { return e.t.PipeRanks() }

// CommStats reports the cumulative link traffic: every cell's all-to-all
// and ring links plus the stage-boundary tensor sends. All-zero on one
// superchip, which has no links.
func (e *Engine) CommStats() SPCommStats { return e.t.CommStats() }

// StoreTelemetry returns the modeled NVMe-tier accounting, summed over
// every rank's store; ok is false when optimizer state is DRAM-resident
// (nothing to model).
func (e *Engine) StoreTelemetry() (StoreTelemetry, bool) { return e.t.StoreTelemetry() }

// PlacementTelemetry returns the virtual-clock superchip executors'
// modeled accounting, summed over every rank; ok is false without a
// placement plan.
func (e *Engine) PlacementTelemetry() (PlacementTelemetry, bool) {
	return e.t.PlacementTelemetry()
}

// ActTelemetry returns the activation stores' traffic and modeled-time
// accounting, summed over the final-stage ranks; ok is false without an
// activation tier.
func (e *Engine) ActTelemetry() (ActTelemetry, bool) { return e.t.ActTelemetry() }

// Close stops the rank goroutines (resolving any pending validation
// first) and closes every bucket and activation store
// — the nvme backends hold backing files and IO workers. Call Flush
// first. Idempotent; Step, StepAccum, Flush, Save and Load fail after it.
func (e *Engine) Close() error { return e.t.Close() }

// ---- multi-superchip engine ----

// MeshConfig is the multi-superchip shape: R data-parallel groups × S
// Ulysses sequence ranks × P pipeline stages, R·S·P simulated superchip
// ranks in all — the paper's multi-superchip evaluation shapes (Fig.
// 11a/b, Fig. 12) and the pipeline axis on top. 0 means 1 on every axis.
type MeshConfig struct {
	// Ranks is the data-parallel degree R: the number of replica groups
	// the global batch's rows split across.
	Ranks int
	// SeqRanks is the per-group sequence-parallel degree S. The model's
	// head count must divide by S, and every batch's sequence length
	// must too.
	SeqRanks int
	// PipeRanks is the pipeline-parallel degree P: each (group,
	// sequence) column splits the transformer depth over P stage ranks
	// running 1F1B. The model must have at least P transformer blocks.
	PipeRanks int
}

// DPConfig configures multi-superchip data parallelism.
type DPConfig struct {
	// Ranks is the simulated Superchip count R (the paper's headline
	// configurations are 2× and 4× GH200 with ZeRO-3-style sharding).
	Ranks int
}

// SPCommStats counts the engine's link traffic (all-to-all
// payloads/floats, weight-gradient ring hops/floats, stage-boundary
// sends/floats) — what crosses a link, so a size-1 axis counts nothing
// and a pure data-parallel shape reads all-zero.
type SPCommStats = dp.SPCommStats

// InitMesh wraps a model and optimizer into the multi-superchip
// SuperOffload engine of shape mc. A global batch's rows split across the
// R groups; within a cell, every rank's forward/backward runs over its
// sequence shard with attention head-parallelized over channel
// all-to-alls and the weight gradients reduced over a deterministic ring
// in global row order; along a column, P stages each own a contiguous
// block range and run 1F1B over the step's micro-batches. The fp32
// masters and Adam moments are ZeRO-partitioned over all R·S·P ranks
// along bucket boundaries behind pluggable bucket stores; gradients
// reduce-scatter and post-step fp16 weights all-gather around STV's
// speculative step, and a clip or NaN rollback rolls back the globally
// reduced step on every rank. With
// PipeRanks > 1, use StepAccum with several micro-batches to actually
// overlap the stages — one micro-batch degenerates to sequential stages.
// Call Close when done to stop the rank goroutines.
func InitMesh(m *Model, cfg OptimizerConfig, mc MeshConfig) (*Engine, error) {
	dc, err := cfg.trainSetup(m)
	if err != nil {
		return nil, err
	}
	dc.Ranks, dc.SeqRanks, dc.PipeRanks = mc.Ranks, mc.SeqRanks, mc.PipeRanks
	e, err := dp.New(m.gpt, dc)
	if err != nil {
		return nil, err
	}
	return &Engine{t: e, guard: cfg.newHBMGuard(m, mc.Ranks, mc.SeqRanks), vocab: m.gpt.Cfg.Vocab, maxSeq: m.gpt.MaxSeq}, nil
}

// InitDP is the data-parallel shape preset: R ranks each running
// forward/backward on their slice of the global batch's rows over a full
// replica (the paper's 2× and 4× GH200 ZeRO-3-style configurations).
func InitDP(m *Model, cfg OptimizerConfig, dpc DPConfig) (*Engine, error) {
	return InitMesh(m, cfg, MeshConfig{Ranks: dpc.Ranks})
}

// InitPipe is InitMesh under the name the 3-D R×S×P callers use.
func InitPipe(m *Model, cfg OptimizerConfig, mc MeshConfig) (*Engine, error) {
	return InitMesh(m, cfg, mc)
}

// NewCorpus returns the deterministic synthetic corpus used throughout the
// examples and experiments (the Pile stand-in; see DESIGN.md).
func NewCorpus(vocab int, seed uint64) *data.Corpus { return data.NewCorpus(vocab, seed) }

// ---- planning / simulation ----

// PlanRequest describes a workload to size on modeled GH200 hardware.
type PlanRequest struct {
	// Model is an Appendix A label ("5B", "13B", ...).
	Model string
	// Chips is the Superchip count (1, 2, 4, 8, 16, ...).
	Chips int
	// GlobalBatch and Seq define the iteration.
	GlobalBatch int
	Seq         int
}

// PlanResult is the planner's verdict for one system.
type PlanResult struct {
	System      string
	Fits        bool
	OOMReason   string
	TFLOPS      float64
	MFU         float64
	IterSeconds float64
	GPUIdleFrac float64
	MicroBatch  int
	GradAccum   int
	Checkpoint  bool
}

func toWorkload(req PlanRequest) (sched.Workload, error) {
	m, err := model.ByName(req.Model)
	if err != nil {
		return sched.Workload{}, err
	}
	if req.Chips < 1 {
		req.Chips = 1
	}
	if req.GlobalBatch < 1 {
		req.GlobalBatch = 8 * req.Chips
	}
	if req.Seq < 1 {
		req.Seq = 1024
	}
	return sched.Workload{Cluster: hw.ClusterFor(req.Chips), Model: m, GlobalBatch: req.GlobalBatch, Seq: req.Seq}, nil
}

func fromResult(r sched.Result) PlanResult {
	return PlanResult{
		System: r.System, Fits: r.Fits, OOMReason: r.OOM,
		TFLOPS: r.TFLOPS, MFU: r.MFU, IterSeconds: r.IterTime, GPUIdleFrac: r.GPUIdleFrac,
		MicroBatch: r.Exec.MicroBatch, GradAccum: r.Exec.GradAccum, Checkpoint: r.Exec.Checkpoint,
	}
}

// Plan sizes the workload under SuperOffload.
func Plan(req PlanRequest) (PlanResult, error) {
	w, err := toWorkload(req)
	if err != nil {
		return PlanResult{}, err
	}
	return fromResult(core.New().Plan(w)), nil
}

// PlanDescription is SuperOffload's decision record for a workload: the
// §4.2 policy, the §4.5 casting path, and the §4.3 bucket plan.
type PlanDescription struct {
	Policy     string  // "weight-stationary" or "weight-flow"
	CastPath   string  // "Cast_gpu↔Move_fp32" or "Cast_cpu↔Move_fp16"
	BucketMB   int     // transfer bucket size
	NBuckets   int     // bucket count for the per-rank shard
	GPUBuckets int     // §4.3 GPU-retained bucket tail (0 = fully offloaded)
	Efficiency float64 // Eq. 1-3 efficiency of weight streaming
	MicroBatch int
	GradAccum  int
	Checkpoint bool
	// ActResidentLayers and ActSpill are the activation tier's co-plan
	// under the same HBM budget: the largest write-behind window that
	// fits next to the optimizer placement, and whether it spills at all
	// (false means every layer stays resident and the tier is moot).
	ActResidentLayers int
	ActSpill          bool
}

// Describe returns the planner's decisions without running the full grid
// search (fast path for tooling).
func Describe(req PlanRequest) (PlanDescription, error) {
	w, err := toWorkload(req)
	if err != nil {
		return PlanDescription{}, err
	}
	p, ok := core.New().Describe(w)
	if !ok {
		return PlanDescription{}, fmt.Errorf("superoffload: %s does not fit %d chip(s)", req.Model, w.Chips())
	}
	return PlanDescription{
		Policy:     p.Policy.String(),
		CastPath:   p.CastPath.String(),
		BucketMB:   int(p.BucketBytes >> 20),
		NBuckets:   p.NBuckets,
		GPUBuckets: p.GPUBuckets,
		Efficiency: p.Efficiency,
		MicroBatch: p.Exec.MicroBatch,
		GradAccum:  p.Exec.GradAccum,
		Checkpoint: p.Exec.Checkpoint,

		ActResidentLayers: p.ActResidentLayers,
		ActSpill:          p.ActSpill,
	}, nil
}

// PlacementDescription is the analytic planner's adaptive weight-update
// placement for a workload, in a form the real engine consumes.
type PlacementDescription struct {
	// NBuckets and GPUBuckets are the analytic partition and its
	// GPU-retained tail (§4.3).
	NBuckets   int
	GPUBuckets int
	// Plan is the per-bucket tier census, e.g. "gpu×12+cpu×142".
	Plan string
	// Flags is the supertrain fragment reproducing the placement on the
	// real engine. -gpu-buckets pins the analytic tail as an absolute
	// count (clamped to the engine's own partition); when the target
	// partition is a different size, scale by the GPUBuckets/NBuckets
	// fraction (place.FromCore's mapping) or omit -gpu-buckets so the
	// engine derives its own tail with the same §4.3 policy.
	Flags string
}

// DescribePlacement maps the analytic planner's placement decision for
// the workload onto the real engine's configuration surface (the
// superplan -emit-placement path).
func DescribePlacement(req PlanRequest) (PlacementDescription, error) {
	w, err := toWorkload(req)
	if err != nil {
		return PlacementDescription{}, err
	}
	p, ok := core.New().Describe(w)
	if !ok {
		return PlacementDescription{}, fmt.Errorf("superoffload: %s does not fit %d chip(s)", req.Model, w.Chips())
	}
	plan := place.FromCore(p, p.NBuckets)
	return PlacementDescription{
		NBuckets:   p.NBuckets,
		GPUBuckets: p.GPUBuckets,
		Plan:       plan.String(),
		Flags:      fmt.Sprintf("-placement auto -gpu-buckets %d", p.GPUBuckets),
	}, nil
}

// Compare sizes the workload under SuperOffload and every baseline.
func Compare(req PlanRequest) ([]PlanResult, error) {
	w, err := toWorkload(req)
	if err != nil {
		return nil, err
	}
	var out []PlanResult
	for _, s := range experiments.Systems() {
		out = append(out, fromResult(s.Plan(w)))
	}
	return out, nil
}

// ModelNames lists the Appendix A workload labels.
func ModelNames() []string {
	var out []string
	for _, c := range model.AppendixA() {
		out = append(out, c.Name)
	}
	return out
}

// ---- experiments ----

// RunExperiment regenerates one of the paper's tables or figures by id
// (e.g. "fig10", "table2"); ExperimentNames lists the ids.
func RunExperiment(name string) (string, error) { return experiments.Run(name) }

// ExperimentNames lists the available experiment ids.
func ExperimentNames() []string { return experiments.Names() }
