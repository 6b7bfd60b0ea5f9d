package stv_test

import (
	"math"
	"runtime"
	"testing"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/dp"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/stv/stvtest"
	"superoffload/internal/tensor"
)

func tinyGPT(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "t", Layers: 2, Hidden: 32, Heads: 2, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

func trainerConfig(mode stv.Mode) config {
	a := optim.DefaultConfig()
	a.LR = 3e-3
	return config{Config: stv.Config{
		Adam:        a,
		ClipNorm:    1.0,
		BucketElems: 20000, // several buckets for the tiny model
		Mode:        mode,
	}}
}

func runTraining(t *testing.T, mode stv.Mode, steps int, inject func(int) bool, scaler *optim.LossScaler) (*engine, []float64) {
	t.Helper()
	m := tinyGPT(42)
	cfg := trainerConfig(mode)
	cfg.InjectBad = inject
	cfg.Scaler = scaler
	tr := newEngine(m, cfg)
	corpus := data.NewCorpus(64, 123)
	var losses []float64
	for i := 0; i < steps; i++ {
		b := corpus.NextBatch(2, 8)
		loss, err := tr.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr, losses
}

// TestSTVMatchesSTEBitExact is the central exactness claim of §4.4: STV is
// "an exact optimization" — same data, same faults, same final weights as
// the synchronous schedule.
func TestSTVMatchesSTEBitExact(t *testing.T) {
	inject := func(step int) bool { return step == 4 || step == 11 }
	ste, _ := runTraining(t, stv.STE, 25, inject, optim.NewLossScaler())
	spec, _ := runTraining(t, stv.STV, 25, inject, optim.NewLossScaler())

	a, b := ste.MasterWeights(), spec.MasterWeights()
	if len(a) != len(b) {
		t.Fatalf("weight counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights diverge at %d: STE %v vs STV %v", i, a[i], b[i])
		}
	}
	// The model's published fp16-rounded weights must agree too.
	for pi, p := range ste.Model.Params() {
		q := spec.Model.Params()[pi]
		for i := range p.W.Data {
			if p.W.Data[i] != q.W.Data[i] {
				t.Fatalf("model weights diverge: param %s idx %d", p.Name, i)
			}
		}
	}
}

func TestSTVRollbackCountsMatchSTE(t *testing.T) {
	inject := func(step int) bool { return step == 3 }
	ste, _ := runTraining(t, stv.STE, 20, inject, optim.NewLossScaler())
	spec, _ := runTraining(t, stv.STV, 20, inject, optim.NewLossScaler())
	if ste.Stats().SkipRolls != spec.Stats().SkipRolls {
		t.Errorf("skip counts differ: STE %d, STV %d", ste.Stats().SkipRolls, spec.Stats().SkipRolls)
	}
	if ste.Stats().ClipRolls != spec.Stats().ClipRolls {
		t.Errorf("clip counts differ: STE %d, STV %d", ste.Stats().ClipRolls, spec.Stats().ClipRolls)
	}
	if spec.Stats().SkipRolls != 1 {
		t.Errorf("expected exactly 1 skip, got %d", spec.Stats().SkipRolls)
	}
	if spec.Stats().Redos == 0 {
		t.Error("rollbacks should force forward redos under STV")
	}
}

func TestTrainingLearnsUnderSTV(t *testing.T) {
	_, losses := runTraining(t, stv.STV, 120, nil, nil)
	first := avg(losses[:10])
	last := avg(losses[len(losses)-10:])
	if last > first*0.85 {
		t.Errorf("STV training not learning: first %.3f last %.3f", first, last)
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss corrupted: %v", l)
		}
	}
}

func TestClipRollbackFrequencyTracksThreshold(t *testing.T) {
	// Rollback frequency under STV must track the clipping threshold:
	// far above typical gradient norms (~3 on this workload) clipping
	// never fires; far below, it fires on nearly every step — and
	// training stays exact and stable either way. (The "frequent during
	// warm-up, then rare" envelope of Fig. 14 is exercised at paper
	// scale by the experiments package.)
	run := func(clip float64) *engine {
		m := tinyGPT(7)
		cfg := trainerConfig(stv.STV)
		cfg.ClipNorm = clip
		tr := newEngine(m, cfg)
		corpus := data.NewCorpus(64, 9)
		for i := 0; i < 40; i++ {
			if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	loose := run(50.0)
	tight := run(0.35)
	if loose.Stats().ClipRolls != 0 {
		t.Errorf("loose threshold clipped %d times, want 0", loose.Stats().ClipRolls)
	}
	if tight.Stats().ClipRolls < 30 {
		t.Errorf("tight threshold clipped only %d/40 steps", tight.Stats().ClipRolls)
	}
	if tight.Stats().Commits+tight.Stats().Rollbacks() != tight.Stats().Steps {
		t.Errorf("stats don't add up: %+v", tight.Stats())
	}
}

func TestSkipOnInjectedOverflow(t *testing.T) {
	inject := func(step int) bool { return step == 2 }
	scaler := optim.NewLossScaler()
	tr, _ := runTraining(t, stv.STV, 6, inject, scaler)
	if tr.Stats().SkipRolls != 1 {
		t.Fatalf("skips = %d, want 1", tr.Stats().SkipRolls)
	}
	if scaler.Scale >= 65536 {
		t.Errorf("loss scale should have halved: %v", scaler.Scale)
	}
}

func TestFlushResolvesFinalStep(t *testing.T) {
	m := tinyGPT(3)
	cfg := trainerConfig(stv.STV)
	// Inject on the last step: only Flush can catch it.
	cfg.InjectBad = func(step int) bool { return step == 5 }
	tr := newEngine(m, cfg)
	corpus := data.NewCorpus(64, 5)
	for i := 0; i < 5; i++ {
		if _, err := tr.Step(corpus.NextBatch(1, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().SkipRolls != 0 {
		t.Fatalf("premature skip")
	}
	rolled, err := tr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !rolled || tr.Stats().SkipRolls != 1 {
		t.Errorf("flush did not resolve final validation: rolled=%v skips=%d", rolled, tr.Stats().SkipRolls)
	}
}

func TestUnknownModeErrors(t *testing.T) {
	cfg := trainerConfig(stv.STV)
	cfg.Mode = stv.Mode(99)
	if e, err := dp.New(tinyGPT(1), dp.Config{Config: cfg.Config}); err == nil {
		e.Close()
		t.Fatal("expected error for unknown mode")
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestClipRollbackAllocatesNothing: a step whose predecessor is clipped
// runs the forward and the per-bucket update body twice (the speculative
// step and its clipped re-execution) and nothing else, so it may allocate
// at most twice what a committing step does — the body's own allocations,
// not a gradient-sized scratch copy per bucket on top of them.
func TestClipRollbackAllocatesNothing(t *testing.T) {
	batches := []data.Batch{data.NewCorpus(64, 9).NextBatch(2, 8)}
	stepAllocs := func(clipNorm float64) float64 {
		cfg := trainerConfig(stv.STV)
		cfg.BucketElems = 2000 // many buckets, so a per-bucket allocation shows
		cfg.ClipNorm = clipNorm
		tr := newEngine(tinyGPT(5), cfg)
		if tr.NumBuckets() < 8 {
			t.Fatalf("want many buckets, have %d", tr.NumBuckets())
		}
		step := func() {
			if _, err := tr.StepAccum(batches); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step() // warm: second versions and the forward cache are allocated once
		}
		before := tr.Stats().ClipRolls
		allocs := testing.AllocsPerRun(10, step) // one warm-up call + 10 measured
		if d := tr.Stats().ClipRolls - before; (clipNorm == 0 && d != 0) || (clipNorm > 0 && d != 11) {
			t.Fatalf("ClipNorm %v: %d of 11 steps clipped", clipNorm, d)
		}
		return allocs
	}
	commit, clip := stepAllocs(0), stepAllocs(1e-3)
	if clip > 2*commit {
		t.Errorf("a clip-rollback step allocates %v times, a commit step %v: the rollback allocates beyond the step body", clip, commit)
	}
}

// TestLanedTrainerLeavesNoGoroutine: at two Ps a two-row micro-batch
// runs the model's forward and backward over two lanes, whose goroutines
// live only inside each call — with activations resident, and spilling
// to the NVMe tier under the lanes' tap multiplexer — so after several
// accumulated steps, Flush and Close the trainer has left no goroutine
// behind, the store's IO worker included.
func TestLanedTrainerLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, spill := range []bool{false, true} {
		before := runtime.NumGoroutine()
		m, cfg := tinyGPT(8), trainerConfig(stv.STV)
		if spill {
			m = actGPT(8)
			st, err := act.NewStore(act.Config{
				Tier: act.NVMe, Dir: t.TempDir(), ResidentLayers: 2,
				Hidden: 32, Params: int64(m.NumParams()),
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Act = st
		}
		tr := newEngine(m, cfg)
		corpus := data.NewCorpus(64, 77)
		for i := 0; i < 4; i++ {
			if _, err := tr.StepAccum([]data.Batch{corpus.NextBatch(2, 8), corpus.NextBatch(2, 8)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if spill {
			if tel := cfg.Act.Telemetry(); tel.Spills == 0 || tel.Fetches == 0 {
				t.Fatalf("the act tier spilled nothing: %+v", tel)
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		stvtest.NoLeakedGoroutines(t, before)
	}
}
