package dp

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// TestSPEquivalenceAcrossRanks is the engine's central invariant: for a
// fixed seed and batch, S ∈ {1,2,4} sequence ranks reproduce the
// single-rank trainer's loss trajectory on the SAME undivided batch bit
// for bit — sequence parallelism is invisible to the numerics. ClipNorm
// 1.0 makes the run trigger clip rollbacks, so the claim covers the
// rollback path too.
func TestSPEquivalenceAcrossRanks(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		cfg := shapeConfig(1, ranks, 1)
		eng, ref, spLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: stvConfig(cfg), steps: 25, accum: 1, dataSeed: 123, batch: 3, seq: 8})
		if eng.Stats().Rollbacks() == 0 {
			t.Errorf("S=%d: run triggered no rollbacks; equivalence untested on rollback path", ranks)
		}
		assertSameTrajectory(t, spLosses, refLosses, eng, ref)
		if cs := eng.CommStats(); ranks > 1 && (cs.A2APayloads == 0 || cs.RingHops == 0) {
			t.Errorf("S=%d: no collective traffic recorded: %+v", ranks, cs)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSPEquivalenceWithInjectedOverflow covers the NaN/Inf skip-rollback
// scenario with loss scaling: both engines observe a corrupted global
// gradient on the same step and must skip it identically.
func TestSPEquivalenceWithInjectedOverflow(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		cfg := shapeConfig(1, ranks, 1)
		cfg.InjectBad = func(step int) bool { return step == 5 || step == 9 }
		cfg.Scaler = optim.NewLossScaler()
		ref := stvConfig(cfg)
		ref.Scaler = optim.NewLossScaler()
		eng, trainer, spLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 15, accum: 1, dataSeed: 7, batch: 2, seq: 8})
		if eng.Stats().SkipRolls != 2 {
			t.Errorf("S=%d: skip rollbacks = %d, want 2", ranks, eng.Stats().SkipRolls)
		}
		if cfg.Scaler.Scale != ref.Scaler.Scale {
			t.Errorf("S=%d: loss scales diverge: %v vs %v", ranks, cfg.Scaler.Scale, ref.Scaler.Scale)
		}
		assertSameTrajectory(t, spLosses, refLosses, eng, trainer)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSPEquivalenceWithSchedule: exactness must survive a moving learning
// rate, including clip re-execution with the rolled-back step's own rate.
func TestSPEquivalenceWithSchedule(t *testing.T) {
	cfg := shapeConfig(1, 2, 1)
	cfg.ClipNorm = 2.5
	cfg.Schedule = stv.WarmupCosine(5, 20, 0.1)
	eng, ref, spLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: stvConfig(cfg), steps: 20, accum: 1, dataSeed: 17, batch: 2, seq: 8})
	if eng.Stats().ClipRolls == 0 {
		t.Error("test needs clip events to be meaningful")
	}
	assertSameTrajectory(t, spLosses, refLosses, eng, ref)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSPStepAccumEquivalence: gradient accumulation composes with
// sequence parallelism — M micro-batches over S ranks must match the
// single-rank trainer accumulating the same M whole micro-batches.
func TestSPStepAccumEquivalence(t *testing.T) {
	const ranks, accum, steps = 2, 3, 10
	cfg := shapeConfig(1, ranks, 1)
	eng, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := stv.NewTrainer(tinyGPT(42), stvConfig(cfg))

	corpus := data.NewCorpus(64, 31)
	refCorpus := data.NewCorpus(64, 31)
	for i := 0; i < steps; i++ {
		var window, refWindow []data.Batch
		for m := 0; m < accum; m++ {
			window = append(window, corpus.NextBatch(2, 8))
			refWindow = append(refWindow, refCorpus.NextBatch(2, 8))
		}
		l, err := eng.StepAccum(window)
		if err != nil {
			t.Fatal(err)
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
	sw, rw := eng.MasterWeights(), ref.MasterWeights()
	for i := range sw {
		if sw[i] != rw[i] {
			t.Fatalf("accumulated masters diverge at %d", i)
		}
	}
}

// TestSPWithNVMeStores: the full composition — sequence parallelism over
// per-rank file-backed NVMe bucket stores — must stay on the bit-exact
// trajectory (residency is invisible to the numerics, §4.7 + the NVMe
// tier).
func TestSPWithNVMeStores(t *testing.T) {
	dir := t.TempDir()
	for _, ranks := range []int{2, 4} {
		cfg := shapeConfig(1, ranks, 1)
		cfg.BucketElems = 8000 // more buckets than the resident window
		cfg.NewStore = func(rank int) (stv.BucketStore, error) {
			return stv.NewNVMeStore(stv.NVMeStoreConfig{
				Dir: filepath.Join(dir), ResidentBuckets: 2,
			})
		}
		refCfg := stvConfig(cfg)
		refCfg.BucketElems = cfg.BucketElems
		eng, ref, spLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: refCfg, steps: 15, accum: 1, dataSeed: 123, batch: 2, seq: 8})
		assertSameTrajectory(t, spLosses, refLosses, eng, ref)
		if tel, ok := eng.StoreTelemetry(); !ok || tel.Reads == 0 {
			t.Errorf("S=%d: NVMe stores produced no telemetry (ok=%v, %+v)", ranks, ok, tel)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSPCheckpointPortability: checkpoints are byte-identical across
// sequence-rank counts on the same trajectory, and restore exactly in
// both directions (SP engine ↔ single-rank trainer), including across
// store backends.
func TestSPCheckpointPortability(t *testing.T) {
	const steps, batch, seq = 10, 2, 8
	train := func(ranks int) ([]byte, *Engine) {
		cfg := shapeConfig(1, ranks, 1)
		eng, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpus := data.NewCorpus(64, 5)
		for i := 0; i < steps; i++ {
			if _, err := eng.Step(corpus.NextBatch(batch, seq)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), eng
	}

	ck1, e1 := train(1)
	defer e1.Close()
	ck2, e2 := train(2)
	defer e2.Close()
	ck4, e4 := train(4)
	defer e4.Close()
	if !bytes.Equal(ck1, ck2) || !bytes.Equal(ck2, ck4) {
		t.Fatal("checkpoints differ across sequence-rank counts on the same trajectory")
	}

	// Single-rank trainer on the same trajectory writes the same bytes.
	cfg := shapeConfig(1, 1, 1)
	ref := stv.NewTrainer(tinyGPT(42), stvConfig(cfg))
	corpus := data.NewCorpus(64, 5)
	for i := 0; i < steps; i++ {
		if _, err := ref.Step(corpus.NextBatch(batch, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := ref.Save(&refBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck2, refBuf.Bytes()) {
		t.Fatal("SP checkpoint differs from single-rank trainer checkpoint")
	}

	// Restore the S=4 checkpoint into a fresh S=2 engine (NVMe-backed)
	// and a fresh single-rank trainer; both must continue identically.
	cont := func(step func(b data.Batch) (float64, error)) []float64 {
		c := data.NewCorpus(64, 77)
		var out []float64
		for i := 0; i < 5; i++ {
			l, err := step(c.NextBatch(batch, seq))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, l)
		}
		return out
	}
	cfg2 := shapeConfig(1, 2, 1)
	cfg2.NewStore = func(rank int) (stv.BucketStore, error) {
		return stv.NewNVMeStore(stv.NVMeStoreConfig{Dir: t.TempDir(), ResidentBuckets: 2})
	}
	restored, err := New(tinyGPT(1), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Load(bytes.NewReader(ck4)); err != nil {
		t.Fatal(err)
	}
	if restored.StepIndex() != steps {
		t.Fatalf("restored step index %d, want %d", restored.StepIndex(), steps)
	}
	refTr := stv.NewTrainer(tinyGPT(1), stvConfig(cfg2))
	if err := refTr.Load(bytes.NewReader(ck4)); err != nil {
		t.Fatal(err)
	}
	a := cont(restored.Step)
	b := cont(refTr.Step)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-restore trajectories diverge at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	if _, err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := refTr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSPSynchronousMatchesSTV: the synchronize-then-execute schedule must
// land on bit-identical weights across the sequence-parallel engine.
func TestSPSynchronousMatchesSTV(t *testing.T) {
	run := func(sync bool) []float32 {
		cfg := shapeConfig(1, 2, 1)
		cfg.Synchronous = sync
		eng, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		corpus := data.NewCorpus(64, 11)
		for i := 0; i < 15; i++ {
			if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
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

// TestSPTrainingLearns: beyond exactness, the sequence-parallel engine
// must actually train.
func TestSPTrainingLearns(t *testing.T) {
	cfg := shapeConfig(1, 4, 1)
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
		t.Errorf("sequence-parallel training not learning: first %.3f last %.3f", first, last)
	}
}

// TestSPValidation covers construction- and step-time guards.
func TestSPValidation(t *testing.T) {
	if _, err := New(nil, shapeConfig(1, 2, 1)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(tinyGPT(1), shapeConfig(1, -1, 1)); err == nil {
		t.Error("negative ranks accepted")
	}
	// tinyGPT has 4 heads; 3 ranks can never divide them.
	if _, err := New(tinyGPT(1), shapeConfig(1, 3, 1)); err == nil {
		t.Error("indivisible head count accepted")
	}
	eng, err := New(tinyGPT(1), shapeConfig(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	corpus := data.NewCorpus(64, 1)
	if _, err := eng.Step(corpus.NextBatch(2, 7)); err == nil {
		t.Error("sequence not divisible by ranks accepted")
	}
	// Oversized sequences surface as errors in the caller's goroutine,
	// not as rank-goroutine panics (tinyGPT's MaxSeq is 16).
	if _, err := eng.Step(corpus.NextBatch(2, 32)); err == nil {
		t.Error("sequence exceeding MaxSeq accepted")
	}
	if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the checkpoint surface returns errors rather than
	// panicking inside a closed bucket store.
	if err := eng.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save on a closed engine accepted")
	}
	if err := eng.Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load on a closed engine accepted")
	}
}
