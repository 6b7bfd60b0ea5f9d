package experiments

import (
	"bytes"

	"superoffload/internal/act"
	"superoffload/internal/place"

	"superoffload/internal/data"
	"superoffload/internal/dp"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// windows returns a per-step batch source: each call draws micros global
// batches of rows×seq from c and cuts every one into r row slices, in
// (micro-batch, group) order. r > 1 is the decomposition a single-rank
// reference accumulates to reproduce an R-group engine's step — data
// parallelism is gradient accumulation across groups; r = 1 leaves the
// batches whole.
func windows(c *data.Corpus, rows, seq, micros, r int) func() []data.Batch {
	return func() []data.Batch {
		w := make([]data.Batch, 0, micros*r)
		for m := 0; m < micros; m++ {
			b := c.NextBatch(rows, seq)
			per := b.BatchSize / r
			for g := 0; g < r; g++ {
				lo, hi := g*per*b.Seq, (g+1)*per*b.Seq
				w = append(w, data.Batch{Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq})
			}
		}
		return w
	}
}

// trainSteps is the loop every real-engine experiment runs: steps
// optimizer steps, each over next()'s micro-batches, then Flush so the
// last step is validated. Returns the per-step losses; errors panic
// (experiment-internal).
func trainSteps(eng *dp.Engine, steps int, next func() []data.Batch) []float64 {
	losses := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		l, err := eng.StepAccum(next())
		if err != nil {
			panic(err)
		}
		losses = append(losses, l)
	}
	if _, err := eng.Flush(); err != nil {
		panic(err)
	}
	return losses
}

// Length and bucket budget of the ext-*-stv runs.
const (
	extSteps       = 30
	extBucketElems = 4096
)

// tiers is what an ext-*-stv run varies: the bucket store, activation
// store and placement plan of its one rank (nil: DRAM, resident,
// homogeneous). The run's engine closes the stores.
type tiers struct {
	store stv.BucketStore
	act   *act.Store
	plan  *place.Plan
}

// extRun is the run the ext-{nvme,mlp,act,placement}-stv experiments
// share: the single-superchip STV engine over a fresh GPT of the given
// architecture (LR 3e-3, clip 4.0, extBucketElems-element buckets)
// trained extSteps steps on corpus seed 23, then closed; the helper owns
// the config but the tiers.
func extRun(cfg model.Config, t tiers) ([]float64, stv.Stats, stv.PlacementTelemetry) {
	dc := dp.Config{Config: stv.Config{Adam: shapeAdam(), ClipNorm: 4.0, BucketElems: extBucketElems, Placement: t.plan}}
	if t.store != nil {
		dc.NewStore = func(int) (stv.BucketStore, error) { return t.store, nil }
	}
	if t.act != nil {
		dc.NewActStore = func(int) (*act.Store, error) { return t.act, nil }
	}
	tr, err := dp.New(nn.NewGPT(cfg, 16, tensor.NewRNG(21)), dc)
	if err != nil {
		panic(err)
	}
	defer tr.Close()
	losses := trainSteps(tr, extSteps, windows(data.NewCorpus(cfg.Vocab, 23), 4, 16, 1, 1))
	tel, _ := tr.PlacementTelemetry()
	return losses, tr.Stats(), tel
}

// sameLosses renders the exactness verdict of the ext-*-stv reports:
// every run's loss trajectory bit-identical to ref's.
func sameLosses(ref []float64, runs ...[]float64) string {
	for _, r := range runs {
		if len(r) != len(ref) {
			return "DIVERGED (bug!)"
		}
		for i := range ref {
			if r[i] != ref[i] {
				return "DIVERGED (bug!)"
			}
		}
	}
	return "bit-identical"
}

// trajectory is what a finished run leaves to compare against another:
// losses, validation counters, and the checkpoint bytes.
type trajectory struct {
	losses []float64
	stats  stv.Stats
	ckpt   []byte
}

// runTrajectory trains eng with trainSteps, checkpoints it and closes it.
// Close surfaces latched NVMe background-IO failures; dropping its error
// would render a success table from a corrupted run.
func runTrajectory(eng *dp.Engine, steps int, next func() []data.Batch) trajectory {
	t := trajectory{losses: trainSteps(eng, steps, next)}
	var ckpt bytes.Buffer
	if err := eng.Save(&ckpt); err != nil {
		panic(err)
	}
	t.stats, t.ckpt = eng.Stats(), ckpt.Bytes()
	if err := eng.Close(); err != nil {
		panic(err)
	}
	return t
}

// shapeRuns is the setup ext-ulysses-stv, ext-mesh-stv and ext-pipe-stv
// share: one model and batch geometry trained by the (R,S,P) engine in
// several shapes, each checked against the (1,1,1) engine accumulating
// the same R-way row decomposition.
type shapeRuns struct {
	cfg                  model.Config
	steps, micros, batch int
	refs                 map[int]trajectory // single-rank references by R
}

// Geometry and optimizer the three shape experiments share. ClipNorm 3.0
// forces a commit/rollback mix on this model.
const (
	shapeSeq         = 16
	shapeBucketElems = 4096
	shapeClipNorm    = 3.0
)

func (x *shapeRuns) model() *nn.GPT { return nn.NewGPT(x.cfg, shapeSeq, tensor.NewRNG(21)) }

func (x *shapeRuns) feed(r int) func() []data.Batch {
	return windows(data.NewCorpus(x.cfg.Vocab, 23), x.batch, shapeSeq, x.micros, r)
}

func shapeAdam() optim.Config {
	a := optim.DefaultConfig()
	a.LR = 3e-3
	return a
}

// shapeConfig is the STV option set the shape experiments' engines and
// their (1,1,1) references share.
func shapeConfig() stv.Config {
	return stv.Config{Adam: shapeAdam(), ClipNorm: shapeClipNorm, BucketElems: shapeBucketElems}
}

// reference is the single-superchip trajectory for data-parallel degree
// r (and the experiment's micro-batch count): the (1,1,1) engine
// accumulates each step's micros×r row slices in (micro-batch, group)
// order — the fold the engine's cross-cell reduce performs. Trained once
// per r.
func (x *shapeRuns) reference(r int) trajectory {
	ref, ok := x.refs[r]
	if !ok {
		eng, err := dp.New(x.model(), dp.Config{Config: shapeConfig()})
		if err != nil {
			panic(err)
		}
		ref = runTrajectory(eng, x.steps, x.feed(r))
		if x.refs == nil {
			x.refs = map[int]trajectory{}
		}
		x.refs[r] = ref
	}
	return ref
}

// run trains the (r,s,p) engine on the undivided global batches, over
// DRAM-resident state or (nvme) a 2-bucket flash window per rank.
func (x *shapeRuns) run(r, s, p int, nvme bool) (trajectory, dp.SPCommStats) {
	var newStore func(rank int) (stv.BucketStore, error)
	if nvme {
		newStore = func(int) (stv.BucketStore, error) {
			return stv.NewNVMeStore(stv.NVMeStoreConfig{ResidentBuckets: 2})
		}
	}
	eng, err := dp.New(x.model(), dp.Config{
		Config: shapeConfig(), Ranks: r, SeqRanks: s, PipeRanks: p, NewStore: newStore,
	})
	if err != nil {
		panic(err)
	}
	t := runTrajectory(eng, x.steps, x.feed(1))
	return t, eng.CommStats()
}

// exactVs renders a run's two exactness columns against the r-way
// reference: the loss trajectory and the checkpoint bytes.
func (x *shapeRuns) exactVs(r int, t trajectory) (losses, ckpt string) {
	ref := x.reference(r)
	losses, ckpt = sameLosses(ref.losses, t.losses), "yes"
	if !bytes.Equal(t.ckpt, ref.ckpt) {
		ckpt = "NO (bug!)"
	}
	return losses, ckpt
}
