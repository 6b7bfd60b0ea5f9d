package stv_test

import (
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/hw"
	"superoffload/internal/stv"
)

// mlpTestStore builds a tightly-windowed multi-path store backed by the
// test's temp dir: paths flash lanes, an optional DRAM cache tier, and a
// 2-bucket window so state streams through the per-path files for real.
func mlpTestStore(t *testing.T, paths, cache int) *stv.MLPStore {
	t.Helper()
	s, err := stv.NewMLPStore(stv.MLPStoreConfig{
		Dir:             t.TempDir(),
		Paths:           hw.NodeIOPaths(paths),
		ResidentBuckets: 2,
		CacheBuckets:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMLPStoreSTVMatchesDRAMBitExact is the multi-path exactness claim:
// striping bucket records across flash paths — with and without the DRAM
// cache tier in front — changes no bit of the trajectory, under both
// schedules and through injected-overflow rollbacks.
func TestMLPStoreSTVMatchesDRAMBitExact(t *testing.T) {
	striped := mlpTestStore(t, 2, 0)
	sameAsDRAM(t, tinyGPT, overflowConfig(stv.STV), withStore(striped), 25)
	tel := striped.Telemetry()
	if tel.PathWriteSeconds[0] <= 0 || tel.PathWriteSeconds[1] <= 0 || len(tel.Events) != 0 {
		t.Errorf("healthy 2-path run: path writes %v, events %+v", tel.PathWriteSeconds, tel.Events)
	}
	sameAsDRAM(t, tinyGPT, overflowConfig(stv.STV), withStore(mlpTestStore(t, 2, 2)), 25)
	sameAsDRAM(t, tinyGPT, overflowConfig(stv.STE), withStore(mlpTestStore(t, 3, 1)), 25)
}

// TestMLPStoreClipRollbackExact drives the clip re-execution on
// multi-path-windowed state: the snapshots the rollback restores have
// striped out to the per-path files and fetched back.
func TestMLPStoreClipRollbackExact(t *testing.T) {
	if run := sameAsDRAM(t, tinyGPT, clipConfig, withStore(mlpTestStore(t, 2, 2)), 30); run.stats.ClipRolls < 20 {
		t.Fatalf("tight clip produced only %d rollbacks; window untested", run.stats.ClipRolls)
	}
}

// TestMLPStoreCacheTier pins how the DRAM cache tier in front of flash
// meets the trainer's bucket cycle: every step walks the 12 buckets in
// order, twice, so an LRU cache that cannot hold all 10 buckets outside
// the 2-bucket window evicts each before its next use and hits nothing,
// and one that can turns every fetch into a hit (no flash read, no
// stall) — while TestMLPStoreSTVMatchesDRAMBitExact pins the
// trajectory. Counts are per steady-state step: (reads, writes, cache
// hits).
func TestMLPStoreCacheTier(t *testing.T) {
	for _, c := range []struct{ cache, reads, writes, hits int }{
		{0, 24, 24, 0},
		{9, 24, 24, 0},
		{10, 0, 24, 24},
	} {
		store := mlpTestStore(t, 2, c.cache)
		cfg := trainerConfig(stv.STV)
		cfg.BucketElems = 4000
		cfg.Store = store
		tr := newEngine(tinyGPT(11), cfg)
		t.Cleanup(func() { tr.Close() })
		if tr.NumBuckets() != 12 {
			t.Fatalf("%d buckets, want 12", tr.NumBuckets())
		}
		corpus := data.NewCorpus(64, 31)
		var last stv.MLPTelemetry
		for i := 0; i < 6; i++ {
			if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
			tel := store.Telemetry()
			if i >= 2 {
				got := [3]int{tel.Reads - last.Reads, tel.Writes - last.Writes, tel.CacheHits - last.CacheHits}
				if want := [3]int{c.reads, c.writes, c.hits}; got != want {
					t.Errorf("cache %d, step %d: (reads, writes, hits) = %v, want %v", c.cache, i, got, want)
				}
			}
			last = tel
		}
	}
}

// TestMLPStoreMultipathBeatsSinglePath pins the modeled performance
// claim on the real store: striping the same NVMe array over two
// independently scheduled paths strictly beats the single lane on
// pipelined step time — latency-dominated records pay their per-IO setup
// concurrently — while total hardware is conserved (hw.SplitPaths).
func TestMLPStoreMultipathBeatsSinglePath(t *testing.T) {
	run := func(paths int) stv.StoreTelemetry {
		store, err := stv.NewMLPStore(stv.MLPStoreConfig{
			Dir:             t.TempDir(),
			Paths:           hw.NodeIOPaths(paths),
			ResidentBuckets: 2,
			// Compute comparable to the transfer time makes the overlap
			// and the lane contention both visible.
			ComputeTime: func(elems int) float64 { return float64(elems) * 16 / 1e9 },
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := trainerConfig(stv.STV)
		cfg.BucketElems = 4000
		cfg.Store = store
		tr := newEngine(tinyGPT(3), cfg)
		t.Cleanup(func() { tr.Close() })
		corpus := data.NewCorpus(64, 5)
		for i := 0; i < 8; i++ {
			if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		tel, ok := store.NVMeTelemetry()
		if !ok {
			t.Fatal("store reported no telemetry")
		}
		return tel
	}
	one, two := run(1), run(2)
	if one.Reads != two.Reads || one.Writes != two.Writes {
		t.Fatalf("path count changed the IO schedule: %+v vs %+v", one, two)
	}
	if two.PipelinedSeconds() >= one.PipelinedSeconds() {
		t.Errorf("2-path pipelined %.6fs not below 1-path %.6fs",
			two.PipelinedSeconds(), one.PipelinedSeconds())
	}
}

// TestCheckpointPortableAcrossFlashStores extends the cross-backend
// checkpoint property to the multi-path store, with and without its cache
// tier.
func TestCheckpointPortableAcrossFlashStores(t *testing.T) {
	resumesAcrossEach(t, [2]string{"nvme", "mlp"}, [2]string{"mlp", "dram"}, [2]string{"mlp+cache", "mlp"})
}

// TestMLPWindowStaysBounded: residency never exceeds the configured
// window, every path receives traffic (the round-robin seed placement
// plus least-loaded dispatch actually stripe), and Close is idempotent.
func TestMLPWindowStaysBounded(t *testing.T) {
	store := mlpTestStore(t, 2, 0)
	cfg := trainerConfig(stv.STV)
	cfg.BucketElems = 4000
	cfg.Store = store
	tr := newEngine(tinyGPT(3), cfg)
	if tr.NumBuckets() <= 2 {
		t.Fatalf("model must split into more buckets (%d) than the window (2)", tr.NumBuckets())
	}
	corpus := data.NewCorpus(64, 5)
	for i := 0; i < 10; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
		stv.CheckResidency(t, store, -1)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tel := store.Telemetry()
	if tel.Reads == 0 || tel.Writes == 0 {
		t.Fatalf("state never streamed through the files: %+v", tel)
	}
	for i := 0; i < 2; i++ {
		if tel.PathReadSeconds[i] <= 0 || tel.PathWriteSeconds[i] <= 0 {
			t.Fatalf("path %d idle: reads %v writes %v", i, tel.PathReadSeconds, tel.PathWriteSeconds)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
