package main

import (
	"fmt"
	"io"
	"path/filepath"

	"superoffload"
	"superoffload/internal/data"
)

// The shared shape. Every workload trains the same model on the same
// kind of batch, so a difference between two rows of the results is a
// difference in which layers the configuration exercises, never in how
// much arithmetic there is to do.
var modelShape = superoffload.ModelConfig{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, MaxSeq: 32}

const (
	seqLen      = 32
	bucketElems = 65536 // 22 buckets over the 830,208 parameters
	warmupSteps = 10    // untimed; part of setup_s
	// oracleSteps is how many leading steps (warm-up included) are
	// checked against the plain single-worker reference trajectory.
	oracleSteps = 20
)

// engine is the facade surface every InitX result shares — what
// cmd/supertrain drives, plus the checkpoint calls.
type engine interface {
	Step(b superoffload.Batch) (float64, error)
	StepAccum(bs []superoffload.Batch) (float64, error)
	Flush() error
	Save(w io.Writer) error
	Load(r io.Reader) error
	Stats() superoffload.Stats
	StoreTelemetry() (superoffload.StoreTelemetry, bool)
	PlacementTelemetry() (superoffload.PlacementTelemetry, bool)
	ActTelemetry() (superoffload.ActTelemetry, bool)
	Close() error
}

// commStatser is implemented by the engines with sequence-parallel or
// pipeline links (mesh and pipe here).
type commStatser interface {
	CommStats() superoffload.SPCommStats
}

// workload is one supertrain-shaped configuration. Names are permanent:
// later PRs are compared against earlier ones by name.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	clip      float64
	offload   superoffload.OffloadConfig    // Dir is filled per run
	act       superoffload.ActivationConfig // Dir is filled per run
	ranks     int                           // data-parallel groups R
	seqRanks  int                           // sequence ranks per group S
	pipeRanks int                           // pipeline stages per column P
	// A step consumes micros batches of rows×seqLen tokens: one batch
	// through Step, several through StepAccum.
	micros, rows int
	// twin is the paper-scale planner request this toy shape stands in
	// for; core.* probes size it with superoffload.Plan.
	twin superoffload.PlanRequest
}

var workloads = []workload{
	{
		name: "dense-1r",
		why:  "plain single worker, DRAM state: nn forward+backward is ~90% of the step, so kernel, nn and optim work shows here cleanest",
		clip: 4.0, ranks: 1, seqRanks: 1, pipeRanks: 1, micros: 1, rows: 4,
		twin: superoffload.PlanRequest{Model: "13B", Chips: 1, GlobalBatch: 8, Seq: 1024},
	},
	{
		name: "rollback-1r",
		why:  "dense-1r with ClipNorm 0.25, so every step clip-rolls-back: restore, re-execute and a second forward; taxes on the rollback path show only here",
		clip: 0.25, ranks: 1, seqRanks: 1, pipeRanks: 1, micros: 1, rows: 4,
		twin: superoffload.PlanRequest{Model: "13B", Chips: 1, GlobalBatch: 8, Seq: 1024},
	},
	{
		name: "flash-1r",
		why:  "single-lane NVMeStore window 2 plus NVMe activation spill: every acquire is a real file read, the cold streaming use of the store layer",
		clip: 4.0, ranks: 1, seqRanks: 1, pipeRanks: 1, micros: 1, rows: 4,
		offload: superoffload.OffloadConfig{Backend: "nvme", ResidentBuckets: 2},
		act:     superoffload.ActivationConfig{Offload: "nvme", ResidentLayers: 2},
		twin:    superoffload.PlanRequest{Model: "25B", Chips: 1, GlobalBatch: 8, Seq: 1024},
	},
	{
		name: "dp2-mlpcache",
		why:  "2 DP ranks over MLPStore with 2 paths and a 16-bucket DRAM cache: acquires hit the cache, writes still stripe; the engine at S=P=1",
		clip: 4.0, ranks: 2, seqRanks: 1, pipeRanks: 1, micros: 1, rows: 4,
		offload: superoffload.OffloadConfig{Backend: "nvme", ResidentBuckets: 2, IOPaths: 2, CacheBuckets: 16},
		twin:    superoffload.PlanRequest{Model: "25B", Chips: 2, GlobalBatch: 16, Seq: 1024},
	},
	{
		name: "mesh-2x2",
		why:  "2x2 DP x Ulysses mesh, DRAM state: all-to-alls, the gradient ring and the cross-group reduce dominate the non-compute time",
		clip: 4.0, ranks: 2, seqRanks: 2, pipeRanks: 1, micros: 1, rows: 4,
		twin: superoffload.PlanRequest{Model: "20B", Chips: 4, GlobalBatch: 32, Seq: 1024},
	},
	{
		name: "pipe-1x1x2",
		why:  "2 pipeline stages, StepAccum of 4 micro-batches x 2 rows: the 1F1B schedule, boundary sends and pipeline wait are visible only here",
		clip: 4.0, ranks: 1, seqRanks: 1, pipeRanks: 2, micros: 4, rows: 2,
		twin: superoffload.PlanRequest{Model: "13B", Chips: 2, GlobalBatch: 16, Seq: 1024},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// worldSize is the number of simulated superchip ranks the engine runs.
func (w workload) worldSize() int { return w.ranks * w.seqRanks * w.pipeRanks }

// multiRank reports whether the workload runs internal/dp's engine.
func (w workload) multiRank() bool { return w.worldSize() > 1 }

// tokensPerStep is the global token count one optimizer step consumes.
func (w workload) tokensPerStep() int { return w.micros * w.rows * seqLen }

// optimizer returns the workload's full optimizer configuration with
// flash files under dir.
func (w workload) optimizer(dir string, tracer *superoffload.Tracer) superoffload.OptimizerConfig {
	cfg := w.referenceOptimizer()
	cfg.Offload = w.offload
	cfg.Activation = w.act
	if dir != "" {
		cfg.Offload.Dir = filepath.Join(dir, "state")
		cfg.Activation.Dir = filepath.Join(dir, "act")
	}
	// The virtual superchip clocks run on every workload, so the
	// place.modeled_* rows exist everywhere.
	cfg.Placement = superoffload.PlacementConfig{Mode: "auto", GPUBuckets: 4, Batch: 4, Seq: seqLen}
	cfg.Tracer = tracer
	return cfg
}

// referenceOptimizer is the plain configuration the correctness oracle
// trains: same hyperparameters and bucket partition, DRAM state, no
// placement, no offload.
func (w workload) referenceOptimizer() superoffload.OptimizerConfig {
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = w.clip
	cfg.LossScaling = true
	cfg.BucketElems = bucketElems
	return cfg
}

// newEngine builds the workload's engine the way cmd/supertrain picks
// one from its flags.
func (w workload) newEngine(m *superoffload.Model, cfg superoffload.OptimizerConfig) (engine, error) {
	mesh := superoffload.MeshConfig{Ranks: w.ranks, SeqRanks: w.seqRanks, PipeRanks: w.pipeRanks}
	switch {
	case w.pipeRanks > 1:
		return superoffload.InitPipe(m, cfg, mesh)
	case w.seqRanks > 1:
		return superoffload.InitMesh(m, cfg, mesh)
	case w.ranks > 1:
		return superoffload.InitDP(m, cfg, superoffload.DPConfig{Ranks: w.ranks})
	}
	return superoffload.Init(m, cfg)
}

// nextInput draws one step's micro-batches from the corpus.
func (w workload) nextInput(c *data.Corpus) []superoffload.Batch {
	bs := make([]superoffload.Batch, w.micros)
	for i := range bs {
		bs[i] = c.NextBatch(w.rows, seqLen)
	}
	return bs
}

// step runs one optimizer step the way the workload's engine expects it.
func step(e engine, bs []superoffload.Batch) (float64, error) {
	if len(bs) == 1 {
		return e.Step(bs[0])
	}
	return e.StepAccum(bs)
}

// referenceInput rewrites one step's micro-batches as the single-rank
// decomposition the multi-rank engines are bit-identical to: every
// micro-batch's rows split R ways, in (micro-batch, group) order. S and
// P are invisible to the numerics.
func (w workload) referenceInput(bs []superoffload.Batch) []superoffload.Batch {
	if w.ranks == 1 {
		return bs
	}
	out := make([]superoffload.Batch, 0, len(bs)*w.ranks)
	for _, b := range bs {
		per := b.BatchSize / w.ranks
		for g := 0; g < w.ranks; g++ {
			lo, hi := g*per*b.Seq, (g+1)*per*b.Seq
			out = append(out, superoffload.Batch{
				Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq,
			})
		}
	}
	return out
}

func (w workload) String() string {
	return fmt.Sprintf("%s (R=%d S=%d P=%d, %d micro x %d rows)", w.name, w.ranks, w.seqRanks, w.pipeRanks, w.micros, w.rows)
}
