package dp

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// meshShapes is the exactness grid the issue pins: every (R,S) in
// {1,2}×{1,2} plus the asymmetric 8-rank shapes.
var meshShapes = [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 4}, {4, 2}}

// TestMeshEquivalenceGrid is the engine's central invariant: for a fixed
// seed and global batch, every (R,S) mesh shape in the grid reproduces
// the single-rank trainer's loss trajectory bit for bit when the trainer
// consumes the same R-way row decomposition (sequence sharding must be
// invisible on top, exactly as in the SP engine). ClipNorm 1.0 makes the
// runs trigger clip rollbacks, so the claim covers the rollback path
// too.
func TestMeshEquivalenceGrid(t *testing.T) {
	for _, shape := range meshShapes {
		r, s := shape[0], shape[1]
		t.Run(fmt.Sprintf("R%dxS%d", r, s), func(t *testing.T) {
			cfg := shapeConfig(r, s, 1)
			eng, ref, meshLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: stvConfig(cfg), steps: 25, accum: 1, dataSeed: 123, batch: 4, seq: 8})
			if eng.Stats().Rollbacks() == 0 {
				t.Errorf("R=%d,S=%d: run triggered no rollbacks; equivalence untested on rollback path", r, s)
			}
			assertSameTrajectory(t, meshLosses, refLosses, eng, ref)
			if cs := eng.CommStats(); s > 1 && (cs.A2APayloads == 0 || cs.RingHops == 0) {
				t.Errorf("R=%d,S=%d: no collective traffic recorded: %+v", r, s, cs)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMeshEquivalenceWithInjectedOverflow covers the NaN/Inf
// skip-rollback scenario with loss scaling: the mesh and the single-rank
// reference observe a corrupted global gradient on the same step and
// must skip it identically, with the loss scaler halving in both.
func TestMeshEquivalenceWithInjectedOverflow(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {2, 4}, {4, 2}} {
		r, s := shape[0], shape[1]
		cfg := shapeConfig(r, s, 1)
		cfg.InjectBad = func(step int) bool { return step == 5 || step == 9 }
		cfg.Scaler = optim.NewLossScaler()
		ref := stvConfig(cfg)
		ref.Scaler = optim.NewLossScaler()
		eng, trainer, meshLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 15, accum: 1, dataSeed: 7, batch: 4, seq: 8})
		if eng.Stats().SkipRolls != 2 {
			t.Errorf("R=%d,S=%d: skip rollbacks = %d, want 2", r, s, eng.Stats().SkipRolls)
		}
		if cfg.Scaler.Scale != ref.Scaler.Scale {
			t.Errorf("R=%d,S=%d: loss scales diverge: %v vs %v", r, s, cfg.Scaler.Scale, ref.Scaler.Scale)
		}
		assertSameTrajectory(t, meshLosses, refLosses, eng, trainer)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeshStepAccumEquivalence: gradient accumulation composes with the
// mesh — M global micro-batches over R×S ranks must match the
// single-rank trainer accumulating the same M·R row slices in
// (micro-batch, group) order.
func TestMeshStepAccumEquivalence(t *testing.T) {
	const r, s, accum, steps = 2, 2, 3, 8
	cfg := shapeConfig(r, s, 1)
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
			refWindow = append(refWindow, splitBatch(refCorpus.NextBatch(2, 8), r, t)...)
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
	mw, rw := eng.MasterWeights(), ref.MasterWeights()
	for i := range mw {
		if mw[i] != rw[i] {
			t.Fatalf("accumulated masters diverge at %d", i)
		}
	}
}

// TestMeshWithNVMeStores: the full composition — the R×S mesh over
// per-rank file-backed NVMe bucket stores — must stay on the bit-exact
// trajectory (residency is invisible to the numerics across both mesh
// axes).
func TestMeshWithNVMeStores(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {4, 2}, {2, 4}} {
		r, s := shape[0], shape[1]
		cfg := shapeConfig(r, s, 1)
		cfg.BucketElems = 8000 // more buckets than the resident window
		cfg.NewStore = nvmeFactory(t)
		refCfg := stvConfig(cfg) // reference stays DRAM-resident
		eng, ref, meshLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: refCfg, steps: 15, accum: 1, dataSeed: 123, batch: 4, seq: 8})
		assertSameTrajectory(t, meshLosses, refLosses, eng, ref)
		if tel, ok := eng.StoreTelemetry(); !ok || tel.Reads == 0 {
			t.Errorf("R=%d,S=%d: NVMe stores produced no telemetry (ok=%v, %+v)", r, s, ok, tel)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeshCheckpointRoundTripProperty is the cross-shape checkpoint
// property test: for every (save shape, restore shape) pair drawn from
// the grid, a checkpoint written by one mesh restores into the other
// (and into a single-rank trainer) with bit-identical state, and — when
// the restore shape shares the saver's data-parallel degree — the
// resumed trajectories stay bit-identical too (across R the resumed
// reductions group differently, as always). Checkpoints on the same
// trajectory must also be byte-identical across S and match the
// single-rank trainer's bytes.
func TestMeshCheckpointRoundTripProperty(t *testing.T) {
	const warm, cont, batch, seq = 8, 5, 4, 8
	save := func(r, s int, seed uint64, nvme bool) ([]byte, stv.Stats) {
		t.Helper()
		cfg := shapeConfig(r, s, 1)
		if nvme {
			cfg.NewStore = nvmeFactory(t)
		}
		eng, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if cerr := eng.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}()
		corpus := data.NewCorpus(64, seed)
		for i := 0; i < warm; i++ {
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
		return buf.Bytes(), eng.Stats()
	}

	for _, seed := range []uint64{5, 55} {
		// Same trajectory (fixed R) ⇒ byte-identical checkpoints across
		// S and store backends, and identical to the single-rank
		// trainer's bytes.
		ck21, _ := save(2, 1, seed, false)
		ck22, _ := save(2, 2, seed, false)
		ck24, _ := save(2, 4, seed, true)
		if !bytes.Equal(ck21, ck22) || !bytes.Equal(ck22, ck24) {
			t.Fatalf("seed %d: checkpoints differ across S on the same R=2 trajectory", seed)
		}
		cfg := shapeConfig(2, 1, 1)
		ref := stv.NewTrainer(tinyGPT(42), stvConfig(cfg))
		corpus := data.NewCorpus(64, seed)
		for i := 0; i < warm; i++ {
			if _, err := ref.StepAccum(splitBatch(corpus.NextBatch(batch, seq), 2, t)); err != nil {
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
		if !bytes.Equal(ck22, refBuf.Bytes()) {
			t.Fatalf("seed %d: mesh checkpoint differs from single-rank trainer checkpoint", seed)
		}

		// Round trip into every grid shape: restored state is
		// bit-identical, and shapes sharing R=2 resume bit-identically
		// against the single-rank reference.
		for _, shape := range meshShapes {
			r, s := shape[0], shape[1]
			restored, err := New(tinyGPT(1), shapeConfig(r, s, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Load(bytes.NewReader(ck22)); err != nil {
				t.Fatal(err)
			}
			if restored.StepIndex() != warm {
				t.Fatalf("R=%d,S=%d: restored step index %d, want %d", r, s, restored.StepIndex(), warm)
			}
			mw, rw := restored.MasterWeights(), ref.MasterWeights()
			for i := range mw {
				if mw[i] != rw[i] {
					t.Fatalf("R=%d,S=%d: restored masters diverge at %d", r, s, i)
				}
			}
			if r == 2 {
				refTr := stv.NewTrainer(tinyGPT(1), stvConfig(shapeConfig(r, s, 1)))
				if err := refTr.Load(bytes.NewReader(ck22)); err != nil {
					t.Fatal(err)
				}
				c1 := data.NewCorpus(64, seed+77)
				c2 := data.NewCorpus(64, seed+77)
				for i := 0; i < cont; i++ {
					a, err := restored.Step(c1.NextBatch(batch, seq))
					if err != nil {
						t.Fatal(err)
					}
					b, err := refTr.StepAccum(splitBatch(c2.NextBatch(batch, seq), r, t))
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("R=%d,S=%d: post-restore trajectories diverge at step %d: %v vs %v", r, s, i, a, b)
					}
				}
				if _, err := refTr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := restored.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := restored.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMeshRaceStress exercises the concurrency-heavy composition under
// -race: an R×S mesh whose every rank streams its ZeRO shard through a
// file-backed NVMe store window smaller than its bucket count, with
// fault injection and a tight clip norm forcing frequent rollbacks — so
// rollback re-acquisitions land while store prefetches and write-behind
// flushes are in flight, concurrently with the ring, all-to-all, and
// validation goroutines.
func TestMeshRaceStress(t *testing.T) {
	cfg := shapeConfig(2, 2, 1)
	cfg.BucketElems = 4000 // many buckets vs the 2-bucket store window
	cfg.ClipNorm = 0.5     // clip re-executions nearly every step
	cfg.Scaler = optim.NewLossScaler()
	cfg.InjectBad = func(step int) bool { return step%5 == 3 }
	cfg.NewStore = nvmeFactory(t)
	eng, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 9)
	for i := 0; i < 30; i++ {
		l, err := eng.Step(corpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss corrupted at step %d: %v", i, l)
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SkipRolls == 0 || st.ClipRolls == 0 {
		t.Errorf("stress run exercised no rollbacks: %+v", st)
	}
	var ckpt bytes.Buffer
	if err := eng.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMeshTrainingLearns: beyond exactness, the mesh engine must
// actually train.
func TestMeshTrainingLearns(t *testing.T) {
	cfg := shapeConfig(2, 2, 1)
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
		losses = append(losses, l)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	first, last := avg(losses[:10]), avg(losses[len(losses)-10:])
	if last > first*0.85 {
		t.Errorf("mesh training not learning: first %.3f last %.3f", first, last)
	}
}

// TestMeshValidation covers construction- and step-time guards.
func TestMeshValidation(t *testing.T) {
	if _, err := New(nil, shapeConfig(2, 2, 1)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(tinyGPT(1), shapeConfig(-1, 2, 1)); err == nil {
		t.Error("negative groups accepted")
	}
	if _, err := New(tinyGPT(1), shapeConfig(2, -1, 1)); err == nil {
		t.Error("negative seq ranks accepted")
	}
	// tinyGPT has 4 heads; 3 sequence ranks can never divide them.
	if _, err := New(tinyGPT(1), shapeConfig(2, 3, 1)); err == nil {
		t.Error("indivisible head count accepted")
	}
	eng, err := New(tinyGPT(1), shapeConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	corpus := data.NewCorpus(64, 1)
	if _, err := eng.Step(corpus.NextBatch(3, 8)); err == nil {
		t.Error("batch not divisible by groups accepted")
	}
	if _, err := eng.Step(corpus.NextBatch(2, 7)); err == nil {
		t.Error("sequence not divisible by seq ranks accepted")
	}
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
	if err := eng.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save on a closed engine accepted")
	}
	if err := eng.Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load on a closed engine accepted")
	}
}
