package dp

import (
	"fmt"
	"math"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

func tinyGPT(seed uint64) *nn.GPT {
	// 4 heads so the sequence-parallel tests can shard across S ∈ {1,2,4}.
	cfg := model.Config{Name: "t", Layers: 2, Hidden: 32, Heads: 4, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// deepGPT is the pipeline tests' model: 4 transformer blocks so the
// depth splits across P ∈ {1,2,4}, 4 heads so sequences shard across
// S ∈ {1,2}.
func deepGPT(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "p", Layers: 4, Hidden: 32, Heads: 4, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// shapeConfig parameterizes the (R,S,P) equivalence runs.
func shapeConfig(r, s, p int) Config {
	a := optim.DefaultConfig()
	a.LR = 3e-3
	return Config{
		Ranks:       r,
		SeqRanks:    s,
		PipeRanks:   p,
		Adam:        a,
		ClipNorm:    1.0,
		BucketElems: 20000, // several buckets for the tiny models
	}
}

func stvConfig(c Config) stv.Config {
	return stv.Config{
		Adam:        c.Adam,
		ClipNorm:    c.ClipNorm,
		BucketElems: c.BucketElems,
		Mode:        stv.STV,
		Scaler:      c.Scaler,
		Schedule:    c.Schedule,
		InjectBad:   c.InjectBad,
	}
}

// splitBatch mirrors splitRows for building the single-rank reference
// decomposition.
func splitBatch(b data.Batch, ranks int, t *testing.T) []data.Batch {
	t.Helper()
	if b.BatchSize%ranks != 0 {
		t.Fatalf("batch %d not divisible by %d", b.BatchSize, ranks)
	}
	per := b.BatchSize / ranks
	out := make([]data.Batch, ranks)
	for r := 0; r < ranks; r++ {
		lo, hi := r*per*b.Seq, (r+1)*per*b.Seq
		out[r] = data.Batch{Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq}
	}
	return out
}

// pairRun describes one engine-vs-reference run: the model constructor,
// the engine's shape and optimizer config, the matching single-rank
// config, and the data stream (accum global micro-batches of batch×seq
// tokens per step).
type pairRun struct {
	gpt          func(seed uint64) *nn.GPT
	cfg          Config
	ref          stv.Config
	steps, accum int
	dataSeed     uint64
	batch, seq   int
}

// runPair trains an engine of cfg's (R,S,P) shape and a single-rank
// stv.Trainer on the same global batches. The trainer consumes each
// global micro-batch as the R-way row decomposition via gradient
// accumulation, in (micro, group) order — the engine's reference; S and
// P must both be invisible, so at R=1 the trainer sees the undivided
// batches. Returns both loss trajectories; callers own Close.
func runPair(t *testing.T, p pairRun) (*Engine, *stv.Trainer, []float64, []float64) {
	t.Helper()
	eng, err := New(p.gpt(42), p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := stv.NewTrainer(p.gpt(42), p.ref)

	corpus := data.NewCorpus(64, p.dataSeed)
	refCorpus := data.NewCorpus(64, p.dataSeed)
	var engLosses, refLosses []float64
	for i := 0; i < p.steps; i++ {
		var window, refWindow []data.Batch
		for m := 0; m < p.accum; m++ {
			window = append(window, corpus.NextBatch(p.batch, p.seq))
			refWindow = append(refWindow, splitBatch(refCorpus.NextBatch(p.batch, p.seq), eng.Ranks(), t)...)
		}
		l, err := eng.StepAccum(window)
		if err != nil {
			t.Fatal(err)
		}
		engLosses = append(engLosses, l)

		rl, err := ref.StepAccum(refWindow)
		if err != nil {
			t.Fatal(err)
		}
		refLosses = append(refLosses, rl)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	return eng, ref, engLosses, refLosses
}

// assertSameTrajectory checks losses, final master weights, and stats
// bit for bit.
func assertSameTrajectory(t *testing.T, engLosses, refLosses []float64, eng *Engine, ref *stv.Trainer) {
	t.Helper()
	shape := fmt.Sprintf("R=%d,S=%d,P=%d", eng.Ranks(), eng.SeqRanks(), eng.PipeRanks())
	for i := range engLosses {
		if engLosses[i] != refLosses[i] {
			t.Fatalf("%s: loss diverges at step %d: engine %v vs single-rank %v",
				shape, i, engLosses[i], refLosses[i])
		}
	}
	ew, rw := eng.MasterWeights(), ref.MasterWeights()
	if len(ew) != len(rw) {
		t.Fatalf("%s: master sizes differ: %d vs %d", shape, len(ew), len(rw))
	}
	for i := range ew {
		if ew[i] != rw[i] {
			t.Fatalf("%s: master weights diverge at %d: %v vs %v", shape, i, ew[i], rw[i])
		}
	}
	if eng.Stats() != ref.Stats() {
		t.Errorf("%s: stats diverge: engine %+v vs single-rank %+v", shape, eng.Stats(), ref.Stats())
	}
}

// TestEquivalenceAcrossRanks is the engine's central invariant: for a
// fixed seed and global batch, R ∈ {1,2,4} ranks reproduce the single-rank
// trainer's loss trajectory bit for bit (the single-rank trainer processes
// the same R-way micro-batch decomposition, since data parallelism over R
// ranks is gradient accumulation over R micro-batches). ClipNorm 1.0
// makes the run trigger clip rollbacks, so the exactness claim covers the
// rollback path too.
func TestEquivalenceAcrossRanks(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		cfg := shapeConfig(ranks, 1, 1)
		eng, ref, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: stvConfig(cfg), steps: 25, accum: 1, dataSeed: 123, batch: 4, seq: 8})
		if eng.Stats().Rollbacks() == 0 {
			t.Errorf("R=%d: run triggered no rollbacks; equivalence untested on rollback path", ranks)
		}
		assertSameTrajectory(t, dpLosses, refLosses, eng, ref)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEquivalenceWithInjectedOverflow covers the NaN/Inf skip-rollback
// scenario: both engines observe a corrupted global gradient on the same
// step and must skip it identically, with the loss scaler halving in both.
func TestEquivalenceWithInjectedOverflow(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		cfg := shapeConfig(ranks, 1, 1)
		cfg.InjectBad = func(step int) bool { return step == 5 || step == 9 }
		cfg.Scaler = optim.NewLossScaler()
		ref := stvConfig(cfg)
		ref.Scaler = optim.NewLossScaler()
		eng, trainer, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 15, accum: 1, dataSeed: 7, batch: 4, seq: 8})
		if eng.Stats().SkipRolls != 2 {
			t.Errorf("R=%d: skip rollbacks = %d, want 2", ranks, eng.Stats().SkipRolls)
		}
		if cfg.Scaler.Scale != ref.Scaler.Scale {
			t.Errorf("R=%d: loss scales diverge: %v vs %v", ranks, cfg.Scaler.Scale, ref.Scaler.Scale)
		}
		assertSameTrajectory(t, dpLosses, refLosses, eng, trainer)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEquivalenceWithSchedule: exactness must survive a moving learning
// rate, including clip re-execution with the rolled-back step's own rate.
func TestEquivalenceWithSchedule(t *testing.T) {
	cfg := shapeConfig(2, 1, 1)
	cfg.ClipNorm = 2.5
	cfg.Schedule = stv.WarmupCosine(5, 20, 0.1)
	eng, ref, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: stvConfig(cfg), steps: 20, accum: 1, dataSeed: 17, batch: 4, seq: 8})
	if eng.Stats().ClipRolls == 0 {
		t.Error("test needs clip events to be meaningful")
	}
	assertSameTrajectory(t, dpLosses, refLosses, eng, ref)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStepAccumEquivalence: the §5.2 gradient-accumulation path composes
// with data parallelism — M global micro-batches over R ranks must match
// the single-rank trainer accumulating the same M·R slices in
// (micro-batch, rank) order.
func TestStepAccumEquivalence(t *testing.T) {
	const ranks, accum, steps = 2, 3, 10
	cfg := shapeConfig(ranks, 1, 1)
	eng, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := stv.NewTrainer(tinyGPT(42), stvConfig(cfg))

	corpus := data.NewCorpus(64, 31)
	refCorpus := data.NewCorpus(64, 31)
	for i := 0; i < steps; i++ {
		var window []data.Batch
		for m := 0; m < accum; m++ {
			window = append(window, corpus.NextBatch(2, 8))
		}
		l, err := eng.StepAccum(window)
		if err != nil {
			t.Fatal(err)
		}
		var refWindow []data.Batch
		for m := 0; m < accum; m++ {
			refWindow = append(refWindow, splitBatch(refCorpus.NextBatch(2, 8), ranks, t)...)
		}
		rl, err := ref.StepAccum(refWindow)
		if err != nil {
			t.Fatal(err)
		}
		if l != rl {
			t.Fatalf("accum loss diverges at step %d: %v vs %v", i, l, rl)
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	dw, rw := eng.MasterWeights(), ref.MasterWeights()
	for i := range dw {
		if dw[i] != rw[i] {
			t.Fatalf("accumulated masters diverge at %d", i)
		}
	}
}

// TestSynchronousMatchesSTV: the synchronize-then-execute schedule must
// land on bit-identical weights (the repo-wide STV ≡ STE exactness claim,
// now across ranks).
func TestSynchronousMatchesSTV(t *testing.T) {
	run := func(sync bool) []float32 {
		cfg := shapeConfig(2, 1, 1)
		cfg.Synchronous = sync
		eng, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		corpus := data.NewCorpus(64, 11)
		for i := 0; i < 15; i++ {
			if _, err := eng.Step(corpus.NextBatch(4, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		return eng.MasterWeights()
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("synchronous diverges from STV at %d", i)
		}
	}
}

// TestTrainingLearnsAcrossRanks: beyond exactness, the multi-rank engine
// must actually train.
func TestTrainingLearnsAcrossRanks(t *testing.T) {
	cfg := shapeConfig(4, 1, 1)
	eng, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	corpus := data.NewCorpus(64, 99)
	var losses []float64
	for i := 0; i < 120; i++ {
		l, err := eng.Step(corpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss corrupted at step %d: %v", i, l)
		}
		losses = append(losses, l)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	first, last := avg(losses[:10]), avg(losses[len(losses)-10:])
	if last > first*0.85 {
		t.Errorf("multi-rank training not learning: first %.3f last %.3f", first, last)
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
