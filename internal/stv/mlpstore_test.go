package stv

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/hw"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/tensor"
)

// mlpTestStore builds a tightly-windowed multi-path store backed by the
// test's temp dir: paths flash lanes, an optional DRAM cache tier, and a
// 2-bucket window so state streams through the per-path files for real.
func mlpTestStore(t *testing.T, paths, cache int) *MLPStore {
	t.Helper()
	s, err := NewMLPStore(MLPStoreConfig{
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
	sameAsDRAM(t, tinyGPT, overflowConfig(STV), withStore(striped), 25)
	tel := striped.Telemetry()
	if tel.PathWriteSeconds[0] <= 0 || tel.PathWriteSeconds[1] <= 0 || len(tel.Events) != 0 {
		t.Errorf("healthy 2-path run: path writes %v, events %+v", tel.PathWriteSeconds, tel.Events)
	}
	sameAsDRAM(t, tinyGPT, overflowConfig(STV), withStore(mlpTestStore(t, 2, 2)), 25)
	sameAsDRAM(t, tinyGPT, overflowConfig(STE), withStore(mlpTestStore(t, 3, 1)), 25)
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
		cfg := trainerConfig(STV)
		cfg.BucketElems = 4000
		cfg.Store = store
		tr := NewTrainer(tinyGPT(11), cfg)
		t.Cleanup(func() { tr.Close() })
		if tr.NumBuckets() != 12 {
			t.Fatalf("%d buckets, want 12", tr.NumBuckets())
		}
		corpus := data.NewCorpus(64, 31)
		var last MLPTelemetry
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
	run := func(paths int) StoreTelemetry {
		store, err := NewMLPStore(MLPStoreConfig{
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
		cfg := trainerConfig(STV)
		cfg.BucketElems = 4000
		cfg.Store = store
		tr := NewTrainer(tinyGPT(3), cfg)
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
	cfg := trainerConfig(STV)
	cfg.BucketElems = 4000
	cfg.Store = store
	tr := NewTrainer(tinyGPT(3), cfg)
	if tr.NumBuckets() <= store.cfg.ResidentBuckets {
		t.Fatalf("model must split into more buckets (%d) than the window (%d)",
			tr.NumBuckets(), store.cfg.ResidentBuckets)
	}
	corpus := data.NewCorpus(64, 5)
	for i := 0; i < 10; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
		checkResidency(t, store, -1)
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

// TestMLPStoreMovesOneSlot: every fetch reads, and every modified
// eviction writes, one version of a bucket — its Adam step and fp32
// master/m/v, 8 + 12n bytes — through committed speculative steps and a
// skip rollback alike. A record's two slots hold the two versions; the
// rollback point is never read back from flash: it stays in the record's
// state in DRAM, and the skip finds it there.
func TestMLPStoreMovesOneSlot(t *testing.T) {
	const n = 1000
	store := mlpTestStore(t, 1, 0)
	defer store.Close()
	var bks []*Bucket
	for i := 0; i < 4; i++ {
		w := tensor.New(n)
		for j := range w.Data {
			w.Data[j] = float32(i) + float32(j)/n
		}
		bks = append(bks, NewBucket(nn.Params{{Name: "p", W: w, G: tensor.New(n)}}, store, i))
	}
	cfg := optim.DefaultConfig()
	last := store.Telemetry().StoreTelemetry
	slotOnly := func(what string) {
		t.Helper()
		tel := store.Telemetry().StoreTelemetry
		d := tel.Sub(last)
		last = tel
		if d.BytesRead != int64(d.Reads)*(8+12*n) || d.BytesWritten != int64(d.Writes)*(8+12*n) {
			t.Fatalf("%s: %d reads of %d bytes, %d writes of %d bytes; want %d bytes each",
				what, d.Reads, d.BytesRead, d.Writes, d.BytesWritten, 8+12*n)
		}
	}
	speculate := func() {
		for _, bk := range bks {
			for j := range bk.grad {
				bk.grad[j] = 0.01 * float32(j%7-3)
			}
			bk.SpeculativeStep(cfg, 1)
			slotOnly("speculative step")
		}
	}
	for step := 0; step < 3; step++ {
		speculate()
		for _, bk := range bks {
			bk.Apply(Resolution{Action: Commit})
		}
	}
	var before []float32
	for _, bk := range bks {
		before = bk.AppendMaster(before)
		slotOnly("read")
	}
	speculate()
	// Each evicted record holds both versions on flash: the current one
	// in its current slot, the rollback point in the other.
	store.mu.Lock()
	checked := 0
	for idx, rec := range store.recs {
		if st := rec.st; rec.tier == onFlash {
			checked++
			if rec.pending != nil {
				<-rec.pending.Done
			}
			file, err := os.ReadFile(store.lanes[rec.path].Path())
			if err != nil {
				t.Fatal(err)
			}
			slot := func(i int) []byte { return file[rec.off+int64(i)*rec.bytes:][:rec.bytes] }
			if !bytes.Equal(slot(st.slot), encodeSlot(make([]byte, rec.bytes), st.Shard)) ||
				!bytes.Equal(slot(1-st.slot), encodeSlot(make([]byte, rec.bytes), st.prev)) {
				t.Errorf("bucket %d: the record's slots do not hold its two versions", idx)
			}
		}
	}
	store.mu.Unlock()
	if checked == 0 {
		t.Fatal("no record was on flash to check")
	}
	var after []float32
	for _, bk := range bks {
		bk.Apply(Resolution{Action: Skip})
		slotOnly("skip")
		after = bk.AppendMaster(after)
	}
	if !slices.Equal(before, after) {
		t.Fatal("skip rollback through the flash store did not restore the previous version")
	}
	if tel := store.Telemetry(); tel.Reads == 0 || tel.Writes == 0 {
		t.Fatalf("state never streamed through the file: %+v", tel.StoreTelemetry)
	}
}

// checkResidency asserts the store's residency invariants: the window
// holds at most ResidentBuckets records plus the pinned ones, the cache
// at most CacheBuckets, only bucket held (-1 for none) is held, the tier
// counts match the records, and every record outside the window has its
// state's current version in its current slot — the version a fetch
// decodes into and recovery restores.
func checkResidency(t testing.TB, s *MLPStore, held int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var count [3]int
	pinned := 0
	for idx, rec := range s.recs {
		count[rec.tier]++
		if rec.pinned {
			pinned++
		}
		if rec.held != (idx == held) {
			t.Fatalf("bucket %d: held %v, want %v", idx, rec.held, idx == held)
		}
		if rec.tier != inWindow && rec.st.slot != rec.slot {
			t.Fatalf("bucket %d outside the window: state on version %d, record on slot %d", idx, rec.st.slot, rec.slot)
		}
	}
	if count != s.count {
		t.Fatalf("records per tier %v, store counts %v", count, s.count)
	}
	if count[inWindow] > s.cfg.ResidentBuckets+pinned {
		t.Fatalf("window overflow: %d resident > %d + %d pinned", count[inWindow], s.cfg.ResidentBuckets, pinned)
	}
	if count[inCache] > max(s.cfg.CacheBuckets, 0) {
		t.Fatalf("cache overflow: %d cached > %d", count[inCache], s.cfg.CacheBuckets)
	}
}
