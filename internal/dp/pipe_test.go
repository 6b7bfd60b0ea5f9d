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

// pipeShapes is the exactness grid the issue pins: every (R,S,P) in
// {1,2}³ plus the deep 4-stage column.
var pipeShapes = [][3]int{
	{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {1, 2, 2},
	{2, 1, 1}, {2, 1, 2}, {2, 2, 1}, {2, 2, 2},
	{1, 1, 4},
}

// TestPipeEquivalenceGrid is the 3-D engine's central invariant: for a
// fixed seed and global batch, every (R,S,P) shape in the grid
// reproduces the single-rank trainer's loss trajectory bit for bit when
// the trainer consumes the same R-way row decomposition (sequence
// sharding AND stage splitting must both be invisible). ClipNorm 1.0
// makes the runs trigger clip rollbacks, so the claim covers the
// rollback path too.
func TestPipeEquivalenceGrid(t *testing.T) {
	for _, shape := range pipeShapes {
		r, s, p := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("R%dxS%dxP%d", r, s, p), func(t *testing.T) {
			cfg := shapeConfig(r, s, p)
			eng, ref, engLosses, refLosses := runPair(t, pairRun{gpt: deepGPT, cfg: cfg, ref: stvConfig(cfg), steps: 25, accum: 1, dataSeed: 123, batch: 4, seq: 8})
			if eng.Stats().Rollbacks() == 0 {
				t.Errorf("R=%d,S=%d,P=%d: run triggered no rollbacks; equivalence untested on rollback path", r, s, p)
			}
			assertSameTrajectory(t, engLosses, refLosses, eng, ref)
			cs := eng.CommStats()
			if s > 1 && (cs.A2APayloads == 0 || cs.RingHops == 0) {
				t.Errorf("R=%d,S=%d,P=%d: no collective traffic recorded: %+v", r, s, p, cs)
			}
			if p > 1 && (cs.StageSends == 0 || cs.StageFloats == 0) {
				t.Errorf("R=%d,S=%d,P=%d: no stage-boundary traffic recorded: %+v", r, s, p, cs)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipe1F1BEquivalence is the pipelined path proper: with M >= 2
// micro-batches per step the stages genuinely interleave (warmup
// forwards run ahead of the first backward), and the trajectory must
// STILL match the single-rank trainer accumulating the same micro
// slices — 1F1B reorders compute, never arithmetic.
func TestPipe1F1BEquivalence(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 2}, {1, 1, 4}, {2, 1, 2}, {2, 2, 2}, {1, 2, 2}} {
		r, s, p := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("R%dxS%dxP%d", r, s, p), func(t *testing.T) {
			cfg := shapeConfig(r, s, p)
			eng, ref, engLosses, refLosses := runPair(t, pairRun{gpt: deepGPT, cfg: cfg, ref: stvConfig(cfg), steps: 10, accum: 3, dataSeed: 31, batch: 2, seq: 8})
			assertSameTrajectory(t, engLosses, refLosses, eng, ref)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipeEquivalenceWithInjectedOverflow covers the NaN/Inf
// skip-rollback scenario with loss scaling across the third axis: the
// pipeline and the single-rank reference observe a corrupted global
// gradient on the same step and must skip it identically, with the loss
// scaler halving in both.
func TestPipeEquivalenceWithInjectedOverflow(t *testing.T) {
	for _, shape := range [][3]int{{2, 1, 2}, {1, 2, 2}, {1, 1, 4}} {
		r, s, p := shape[0], shape[1], shape[2]
		cfg := shapeConfig(r, s, p)
		cfg.InjectBad = func(step int) bool { return step == 5 || step == 9 }
		cfg.Scaler = optim.NewLossScaler()
		ref := stvConfig(cfg)
		ref.Scaler = optim.NewLossScaler()
		eng, trainer, engLosses, refLosses := runPair(t, pairRun{gpt: deepGPT, cfg: cfg, ref: ref, steps: 15, accum: 1, dataSeed: 7, batch: 4, seq: 8})
		if eng.Stats().SkipRolls != 2 {
			t.Errorf("R=%d,S=%d,P=%d: skip rollbacks = %d, want 2", r, s, p, eng.Stats().SkipRolls)
		}
		if cfg.Scaler.Scale != ref.Scaler.Scale {
			t.Errorf("R=%d,S=%d,P=%d: loss scales diverge: %v vs %v", r, s, p, cfg.Scaler.Scale, ref.Scaler.Scale)
		}
		assertSameTrajectory(t, engLosses, refLosses, eng, trainer)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipeWithNVMeStores: the full composition — R×S×P over per-rank
// file-backed NVMe bucket stores, stepping 1F1B — must stay on the
// bit-exact trajectory (residency is invisible to the numerics across
// all three axes).
func TestPipeWithNVMeStores(t *testing.T) {
	for _, shape := range [][3]int{{2, 1, 2}, {1, 2, 2}, {1, 1, 4}} {
		r, s, p := shape[0], shape[1], shape[2]
		cfg := shapeConfig(r, s, p)
		cfg.BucketElems = 8000 // more buckets than the resident window
		cfg.NewStore = nvmeFactory(t)
		refCfg := stvConfig(cfg) // reference stays DRAM-resident
		eng, ref, engLosses, refLosses := runPair(t, pairRun{gpt: deepGPT, cfg: cfg, ref: refCfg, steps: 10, accum: 2, dataSeed: 123, batch: 4, seq: 8})
		assertSameTrajectory(t, engLosses, refLosses, eng, ref)
		if tel, ok := eng.StoreTelemetry(); !ok || tel.Reads == 0 {
			t.Errorf("R=%d,S=%d,P=%d: NVMe stores produced no telemetry (ok=%v, %+v)", r, s, p, ok, tel)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipeCheckpointCrossShape: checkpoints on the same trajectory are
// byte-identical across S, P, and store backends, match the single-rank
// trainer's bytes, and restore into every grid shape with bit-identical
// state; shapes sharing the saver's R resume bit-identically.
func TestPipeCheckpointCrossShape(t *testing.T) {
	const warm, cont, batch, seq = 8, 5, 4, 8
	save := func(r, s, p int, seed uint64, nvme bool) []byte {
		t.Helper()
		cfg := shapeConfig(r, s, p)
		if nvme {
			cfg.NewStore = nvmeFactory(t)
		}
		eng, err := New(deepGPT(42), cfg)
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
		return buf.Bytes()
	}

	const seed = 5
	ck211 := save(2, 1, 1, seed, false)
	ck212 := save(2, 1, 2, seed, false)
	ck222 := save(2, 2, 2, seed, true)
	if !bytes.Equal(ck211, ck212) || !bytes.Equal(ck212, ck222) {
		t.Fatal("checkpoints differ across (S,P) on the same R=2 trajectory")
	}
	cfg := shapeConfig(2, 1, 1)
	ref := stv.NewTrainer(deepGPT(42), stvConfig(cfg))
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
	if !bytes.Equal(ck212, refBuf.Bytes()) {
		t.Fatal("pipe checkpoint differs from single-rank trainer checkpoint")
	}

	for _, shape := range pipeShapes {
		r, s, p := shape[0], shape[1], shape[2]
		restored, err := New(deepGPT(1), shapeConfig(r, s, p))
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Load(bytes.NewReader(ck212)); err != nil {
			t.Fatal(err)
		}
		if restored.StepIndex() != warm {
			t.Fatalf("R=%d,S=%d,P=%d: restored step index %d, want %d", r, s, p, restored.StepIndex(), warm)
		}
		mw, rw := restored.MasterWeights(), ref.MasterWeights()
		for i := range mw {
			if mw[i] != rw[i] {
				t.Fatalf("R=%d,S=%d,P=%d: restored masters diverge at %d", r, s, p, i)
			}
		}
		if r == 2 {
			refTr := stv.NewTrainer(deepGPT(1), stvConfig(shapeConfig(r, s, p)))
			if err := refTr.Load(bytes.NewReader(ck212)); err != nil {
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
					t.Fatalf("R=%d,S=%d,P=%d: post-restore trajectories diverge at step %d: %v vs %v", r, s, p, i, a, b)
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

// TestPipeRaceStress exercises the concurrency-heavy composition under
// -race: a 2×2×2 engine stepping 1F1B with every rank streaming its
// ZeRO shard through a file-backed NVMe store window smaller than its
// bucket count, with fault injection and a tight clip norm forcing
// frequent rollbacks — boundary FIFOs, in-cell rings, cross-cell
// reduces, store prefetches, and validation goroutines all in flight
// together.
func TestPipeRaceStress(t *testing.T) {
	cfg := shapeConfig(2, 2, 2)
	cfg.BucketElems = 4000 // many buckets vs the 2-bucket store window
	cfg.ClipNorm = 0.5     // clip re-executions nearly every step
	cfg.Scaler = optim.NewLossScaler()
	cfg.InjectBad = func(step int) bool { return step%5 == 3 }
	cfg.NewStore = nvmeFactory(t)
	eng, err := New(deepGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 9)
	for i := 0; i < 20; i++ {
		window := []data.Batch{corpus.NextBatch(4, 8), corpus.NextBatch(4, 8)}
		l, err := eng.StepAccum(window)
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

// TestPipeTrainingLearns: beyond exactness, the 3-D engine must
// actually train.
func TestPipeTrainingLearns(t *testing.T) {
	cfg := shapeConfig(1, 2, 2)
	eng, err := New(deepGPT(42), cfg)
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
		t.Errorf("pipe training not learning: first %.3f last %.3f", first, last)
	}
}

// TestPipeValidation covers construction- and step-time guards.
func TestPipeValidation(t *testing.T) {
	if _, err := New(nil, shapeConfig(1, 1, 2)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(deepGPT(1), shapeConfig(-1, 1, 2)); err == nil {
		t.Error("negative groups accepted")
	}
	if _, err := New(deepGPT(1), shapeConfig(1, -1, 2)); err == nil {
		t.Error("negative seq ranks accepted")
	}
	if _, err := New(deepGPT(1), shapeConfig(1, 1, -1)); err == nil {
		t.Error("negative pipe ranks accepted")
	}
	// deepGPT has 4 blocks; 5 stages can never each own one.
	if _, err := New(deepGPT(1), shapeConfig(1, 1, 5)); err == nil {
		t.Error("more stages than blocks accepted")
	}
	// deepGPT has 4 heads; 3 sequence ranks can never divide them.
	if _, err := New(deepGPT(1), shapeConfig(1, 3, 2)); err == nil {
		t.Error("indivisible head count accepted")
	}
	eng, err := New(deepGPT(1), shapeConfig(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Ranks() != 2 || eng.SeqRanks() != 2 || eng.PipeRanks() != 2 {
		t.Errorf("shape accessors wrong: R=%d S=%d P=%d", eng.Ranks(), eng.SeqRanks(), eng.PipeRanks())
	}
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
