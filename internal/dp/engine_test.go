package dp

import (
	"bytes"
	"runtime"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// TestCheckpointRoundTripProperty: Save mid-training with a validation in
// flight (must be refused), Flush, Save, Load into a fresh engine, and the
// continued loss trajectory must be bit-identical to an uninterrupted run.
// Covers single-rank (R=1) and multi-rank (R=2, R=4) engines.
func TestCheckpointRoundTripProperty(t *testing.T) {
	const warm, cont = 10, 10
	// A growth interval that does not divide the warm-up length puts a
	// scale-doubling boundary inside the continuation window: exact
	// resume therefore requires the checkpoint to carry the scaler's
	// overflow-free streak, not just the scale.
	smallGrowth := func() *optim.LossScaler {
		return &optim.LossScaler{Scale: 1024, GrowthInterval: 7, MinScale: 1, MaxScale: 1 << 24}
	}
	for _, ranks := range []int{1, 2, 4} {
		cfg := shapeConfig(ranks, 1, 1)
		cfg.Scaler = smallGrowth()

		// Uninterrupted reference run.
		full, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpus := data.NewCorpus(64, 55)
		var fullLosses []float64
		for i := 0; i < warm+cont; i++ {
			l, err := full.Step(corpus.NextBatch(4, 8))
			if err != nil {
				t.Fatal(err)
			}
			fullLosses = append(fullLosses, l)
		}
		if _, err := full.Flush(); err != nil {
			t.Fatal(err)
		}

		// Interrupted run: warm up, attempt Save with the validation of
		// the last step still in flight, then Flush and Save for real.
		cfg2 := shapeConfig(ranks, 1, 1)
		cfg2.Scaler = smallGrowth()
		eng, err := New(tinyGPT(42), cfg2)
		if err != nil {
			t.Fatal(err)
		}
		corpus2 := data.NewCorpus(64, 55)
		for i := 0; i < warm; i++ {
			if _, err := eng.Step(corpus2.NextBatch(4, 8)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err == nil {
			t.Fatalf("R=%d: Save with validation in flight should be refused", ranks)
		}
		if _, err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		// Restore into a fresh engine with different init — the
		// checkpoint must fully determine the continuation.
		cfg3 := shapeConfig(ranks, 1, 1)
		cfg3.Scaler = smallGrowth()
		restored, err := New(tinyGPT(999), cfg3)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if restored.StepIndex() != warm {
			t.Errorf("R=%d: restored step index %d, want %d", ranks, restored.StepIndex(), warm)
		}
		for i := 0; i < cont; i++ {
			l, err := restored.Step(corpus2.NextBatch(4, 8))
			if err != nil {
				t.Fatal(err)
			}
			if l != fullLosses[warm+i] {
				t.Fatalf("R=%d: continued loss diverges at step %d: %v vs %v",
					ranks, warm+i, l, fullLosses[warm+i])
			}
		}
		if _, err := restored.Flush(); err != nil {
			t.Fatal(err)
		}
		fw, rw := full.MasterWeights(), restored.MasterWeights()
		for i := range fw {
			if fw[i] != rw[i] {
				t.Fatalf("R=%d: final masters diverge at %d", ranks, i)
			}
		}
		full.Close()
		restored.Close()
	}
}

// TestCheckpointPortableAcrossRankCounts: a DP-2 checkpoint restores into
// a DP-4 engine and a single-rank stv.Trainer, and all three continue on
// identical trajectories. The bytes themselves must match what the
// single-rank trainer saves on the same trajectory (the format is defined
// over the global bucket order, not the ownership).
func TestCheckpointPortableAcrossRankCounts(t *testing.T) {
	cfg := shapeConfig(2, 1, 1)
	eng, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := stv.NewTrainer(tinyGPT(42), stvConfig(cfg))

	corpus := data.NewCorpus(64, 21)
	refCorpus := data.NewCorpus(64, 21)
	for i := 0; i < 8; i++ {
		b := corpus.NextBatch(4, 8)
		if _, err := eng.Step(b); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.StepAccum(splitBatch(refCorpus.NextBatch(4, 8), 2, t)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	var dpBuf, refBuf bytes.Buffer
	if err := eng.Save(&dpBuf); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&refBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dpBuf.Bytes(), refBuf.Bytes()) {
		t.Fatal("DP-2 and single-rank checkpoints differ byte-wise on the same trajectory")
	}

	// DP-2 checkpoint → DP-4 engine.
	four, err := New(tinyGPT(1), shapeConfig(4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	if err := four.Load(bytes.NewReader(dpBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// DP-2 checkpoint → single-rank trainer.
	tr := stv.NewTrainer(tinyGPT(2), stvConfig(shapeConfig(1, 1, 1)))
	if err := tr.Load(bytes.NewReader(dpBuf.Bytes())); err != nil {
		t.Fatal(err)
	}

	cont := data.NewCorpus(64, 77)
	cont4 := data.NewCorpus(64, 77)
	contT := data.NewCorpus(64, 77)
	for i := 0; i < 6; i++ {
		// Keep the decomposition fixed (4 slices) so all three engines
		// see the same reduction order regardless of rank count: the
		// 2-rank engine accumulates two global micro-batches of 2 rows.
		b := cont.NextBatch(4, 8)
		l2, err := eng.StepAccum(splitBatch(b, 2, t))
		if err != nil {
			t.Fatal(err)
		}
		l4, err := four.Step(cont4.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		lt, err := tr.StepAccum(splitBatch(contT.NextBatch(4, 8), 4, t))
		if err != nil {
			t.Fatal(err)
		}
		if l2 != l4 || l2 != lt {
			t.Fatalf("continued losses diverge at step %d: DP-2 %v, DP-4 %v, single %v", i, l2, l4, lt)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(nil, shapeConfig(2, 1, 1)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(tinyGPT(1), Config{Ranks: -1}); err == nil {
		t.Error("negative ranks accepted")
	}
	// 0 means 1 on every axis: the zero shape is the one-rank engine.
	one, err := New(tinyGPT(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Ranks() != 1 || one.SeqRanks() != 1 || one.PipeRanks() != 1 {
		t.Errorf("zero shape = (%d,%d,%d), want (1,1,1)", one.Ranks(), one.SeqRanks(), one.PipeRanks())
	}
	one.Close()
	eng, err := New(tinyGPT(1), shapeConfig(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 1)
	if _, err := eng.Step(corpus.NextBatch(3, 8)); err == nil {
		t.Error("indivisible batch accepted")
	}
	// Malformed batches surface as errors in the caller's goroutine on
	// the (R,1,1) shape too, not as rank-goroutine panics inside
	// nn.Forward (tinyGPT's MaxSeq is 16).
	if _, err := eng.Step(corpus.NextBatch(2, 32)); err == nil {
		t.Error("sequence exceeding MaxSeq accepted")
	}
	short := corpus.NextBatch(2, 8)
	short.Tokens = short.Tokens[:len(short.Tokens)-1]
	if _, err := eng.Step(short); err == nil {
		t.Error("batch with too few tokens accepted")
	}
	if _, err := eng.StepAccum([]data.Batch{corpus.NextBatch(2, 8), short}); err == nil {
		t.Error("accumulation window with a malformed batch accepted")
	}
	if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
		t.Errorf("engine unusable after rejected batches: %v", err)
	}
	if l, err := eng.StepAccum(nil); err != nil || l != 0 {
		t.Errorf("empty accum: %v %v", l, err)
	}
	if eng.Ranks() != 2 {
		t.Errorf("ranks = %d", eng.Ranks())
	}
	if eng.NumBuckets() < 2 {
		t.Errorf("expected multiple buckets, got %d", eng.NumBuckets())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close not idempotent: %v", err)
	}
	if _, err := eng.Step(corpus.NextBatch(2, 8)); err == nil {
		t.Error("Step after Close accepted")
	}
}

// TestStressManyBucketsTightClip hammers the rollback machinery: tiny
// buckets (lots of reduce/gather/partial traffic), a clip threshold that
// fires nearly every step, and periodic overflow injection — under -race
// in CI this exercises every cross-rank handoff in the engine.
func TestStressManyBucketsTightClip(t *testing.T) {
	cfg := shapeConfig(4, 1, 1)
	cfg.BucketElems = 600
	cfg.ClipNorm = 0.35
	cfg.Scaler = optim.NewLossScaler()
	cfg.InjectBad = func(step int) bool { return step%7 == 3 }
	ref := stvConfig(cfg)
	ref.Scaler = optim.NewLossScaler()
	eng, trainer, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 30, accum: 1, dataSeed: 13, batch: 4, seq: 8})
	defer eng.Close()
	if eng.Stats().Rollbacks() < 25 {
		t.Errorf("stress run should roll back nearly every step, got %+v", eng.Stats())
	}
	assertSameTrajectory(t, dpLosses, refLosses, eng, trainer)
}

// TestShapesAllocateAlike: the sequence axis runs the same replica pass as
// the plain data-parallel shape, out of per-micro cache arenas that
// persist across steps, so a steady-state (1,2,1) step allocates about
// what a (2,1,1) step does — not the 250× it did when every forward built
// a fresh arena and every all-to-all fresh payloads.
func TestShapesAllocateAlike(t *testing.T) {
	bytesPerStep := func(r, s int) float64 {
		eng, err := New(tinyGPT(42), shapeConfig(r, s, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		corpus := data.NewCorpus(64, 3)
		batch := corpus.NextBatch(4, 8)
		step := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := eng.Step(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		step(4) // arenas, ring buffers and staged payloads fill
		const steps = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step(steps)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / steps
	}
	dpB, spB := bytesPerStep(2, 1), bytesPerStep(1, 2)
	if lo, hi := min(dpB, spB), max(dpB, spB); hi > 2*lo {
		t.Errorf("steady-state bytes/step: (2,1,1) %.0f vs (1,2,1) %.0f — more than 2× apart", dpB, spB)
	}
}
