package dp

import (
	"bytes"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// nvmeFactory gives every rank its own file-backed store with a 2-bucket
// window in the test's temp dir.
func nvmeFactory(t *testing.T) func(rank int) (stv.BucketStore, error) {
	t.Helper()
	dir := t.TempDir()
	return func(rank int) (stv.BucketStore, error) {
		return stv.NewNVMeStore(stv.NVMeStoreConfig{Dir: dir, ResidentBuckets: 2})
	}
}

// nvmeConfig shrinks buckets so each rank's ZeRO shard spans several
// buckets and genuinely streams through its store window.
func nvmeConfig(t *testing.T, ranks int) Config {
	cfg := shapeConfig(ranks, 1, 1)
	cfg.BucketElems = 4000
	cfg.NewStore = nvmeFactory(t)
	return cfg
}

// TestEquivalenceAcrossRanksNVMe is the DP exactness invariant with every
// rank's optimizer shard behind the NVMe store: R ∈ {1,2,4} ranks must
// reproduce the single-rank DRAM-resident trainer bit for bit, clip
// rollbacks included.
func TestEquivalenceAcrossRanksNVMe(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		cfg := nvmeConfig(t, ranks)
		ref := stvConfig(cfg) // single-rank reference stays DRAM-resident
		eng, trainer, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 25, accum: 1, dataSeed: 123, batch: 4, seq: 8})
		if eng.Stats().Rollbacks() == 0 {
			t.Errorf("R=%d: no rollbacks; equivalence untested on rollback path", ranks)
		}
		if _, ok := eng.StoreTelemetry(); !ok {
			t.Fatalf("R=%d: engine is not using NVMe stores", ranks)
		}
		assertSameTrajectory(t, dpLosses, refLosses, eng, trainer)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEquivalenceWithInjectedOverflowNVMe covers the NaN/Inf skip-rollback
// scenario on windowed state: the rolled-back snapshots have round-tripped
// through every rank's backing file.
func TestEquivalenceWithInjectedOverflowNVMe(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		cfg := nvmeConfig(t, ranks)
		cfg.InjectBad = func(step int) bool { return step == 5 || step == 9 }
		cfg.Scaler = optim.NewLossScaler()
		ref := stvConfig(cfg)
		ref.Scaler = optim.NewLossScaler()
		eng, trainer, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 15, accum: 1, dataSeed: 7, batch: 4, seq: 8})
		if eng.Stats().SkipRolls != 2 {
			t.Errorf("R=%d: skip rollbacks = %d, want 2", ranks, eng.Stats().SkipRolls)
		}
		assertSameTrajectory(t, dpLosses, refLosses, eng, trainer)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointPortableAcrossStoresAndRanks: a checkpoint written under
// NVMe stores restores under DRAM stores (and vice versa) and resumes
// bit-exactly at the same rank count; across rank counts the restored
// state itself is bit-identical (resumed trajectories then differ only by
// the R-way reduction grouping, as always). Residency and sharding are
// both invisible to the checkpoint format.
func TestCheckpointPortableAcrossStoresAndRanks(t *testing.T) {
	const warm, cont = 10, 8
	mk := func(ranks int, nvme bool) *Engine {
		cfg := shapeConfig(ranks, 1, 1)
		cfg.BucketElems = 4000
		if nvme {
			cfg.NewStore = nvmeFactory(t)
		}
		eng, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	train := func(eng *Engine, corpus *data.Corpus, steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			if _, err := eng.Step(corpus.NextBatch(4, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name             string
		srcR, dstR       int
		srcNVMe, dstNVMe bool
	}{
		{"R2nvme->R2dram", 2, 2, true, false},
		{"R2dram->R2nvme", 2, 2, false, true},
		{"R4nvme->R4nvme", 4, 4, true, true},
		{"R2nvme->R4dram", 2, 4, true, false}, // cross-R: restored state only
		{"R4nvme->R1dram", 4, 1, true, false}, // cross-R: restored state only
	} {
		t.Run(c.name, func(t *testing.T) {
			src := mk(c.srcR, c.srcNVMe)
			defer src.Close()
			corpus := data.NewCorpus(64, 55)
			train(src, corpus, warm)
			var ckpt bytes.Buffer
			if err := src.Save(&ckpt); err != nil {
				t.Fatal(err)
			}

			dst := mk(c.dstR, c.dstNVMe)
			defer dst.Close()
			if err := dst.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			sw, dw := src.MasterWeights(), dst.MasterWeights()
			for i := range sw {
				if sw[i] != dw[i] {
					t.Fatalf("restored masters diverge at %d: %v vs %v", i, sw[i], dw[i])
				}
			}
			if c.srcR != c.dstR {
				return // resumed trajectories differ by reduction grouping
			}

			srcCont := data.NewCorpus(64, 66)
			dstCont := data.NewCorpus(64, 66)
			train(src, srcCont, cont)
			train(dst, dstCont, cont)
			sw, dw = src.MasterWeights(), dst.MasterWeights()
			for i := range sw {
				if sw[i] != dw[i] {
					t.Fatalf("post-resume masters diverge at %d: %v vs %v", i, sw[i], dw[i])
				}
			}
		})
	}
}
