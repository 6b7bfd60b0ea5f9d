package stv_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/fp16"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// nvmeTestStore builds a tightly-windowed NVMe store backed by the test's
// temp dir, so every test streams buckets through the file for real.
func nvmeTestStore(t *testing.T, window int) *stv.NVMeStore {
	t.Helper()
	s, err := stv.NewNVMeStore(stv.NVMeStoreConfig{Dir: t.TempDir(), ResidentBuckets: window})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// nvmeTrainerConfig is trainerConfig with small buckets behind a 2-bucket
// NVMe window: the tiny model splits into many buckets, so state
// round-trips through the backing file on every step.
func nvmeTrainerConfig(t *testing.T, mode stv.Mode) config {
	cfg := trainerConfig(mode)
	cfg.BucketElems = 4000
	cfg.Store = nvmeTestStore(t, 2)
	return cfg
}

// trajectory is what a trainer run leaves behind: its losses, Stats,
// master weights and checkpoint bytes after a final Flush.
type trajectory struct {
	losses  []float64
	stats   stv.Stats
	masters []float32
	ckpt    []byte
}

// train steps tr over steps 2×8 batches of corpus 123, flushes it, and
// closes it.
func train(t *testing.T, tr *engine, steps int) trajectory {
	t.Helper()
	defer tr.Close()
	corpus := data.NewCorpus(64, 123)
	var run trajectory
	for i := 0; i < steps; i++ {
		l, err := tr.Step(corpus.NextBatch(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		run.losses = append(run.losses, l)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := tr.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	run.stats, run.masters, run.ckpt = tr.Stats(), tr.MasterWeights(), ckpt.Bytes()
	return run
}

// sameAsDRAM trains the trainer mk and with configure and mk's plain
// DRAM-resident one from the same init on the same batches, requires the
// two runs identical bit for bit, and returns the configured one. The
// generated suite in internal/dp checks the same contract over every
// engine shape; these are the stores' own single-rank cases.
func sameAsDRAM(t *testing.T, gpt func(uint64) *nn.GPT, mk func() config, with func(*config), steps int) trajectory {
	t.Helper()
	cfg := mk()
	with(&cfg)
	got, want := train(t, newEngine(gpt(42), cfg), steps), train(t, newEngine(gpt(42), mk()), steps)
	if !slices.Equal(got.losses, want.losses) || got.stats != want.stats ||
		!slices.Equal(got.masters, want.masters) || !bytes.Equal(got.ckpt, want.ckpt) {
		t.Fatalf("diverged from the DRAM trainer: losses %v vs %v, stats %+v vs %+v", got.losses, want.losses, got.stats, want.stats)
	}
	return got
}

func withStore(s stv.BucketStore) func(*config) { return func(c *config) { c.Store = s } }

// overflowConfig streams 4000-element buckets under loss scaling, with an
// overflow injected on steps 4 and 11.
func overflowConfig(mode stv.Mode) func() config {
	return func() config {
		cfg := trainerConfig(mode)
		cfg.BucketElems = 4000
		cfg.Scaler = optim.NewLossScaler()
		cfg.InjectBad = func(step int) bool { return step == 4 || step == 11 }
		return cfg
	}
}

// clipConfig clips on nearly every step under a moving learning rate, so
// the rollbacks restore snapshots that went through the store.
func clipConfig() config {
	cfg := trainerConfig(stv.STV)
	cfg.BucketElems = 4000
	cfg.ClipNorm = 0.35
	cfg.Schedule = stv.WarmupCosine(5, 30, 0.1)
	return cfg
}

// TestNVMeStoreSTVMatchesDRAMBitExact: windowing optimizer state through
// the file-backed store changes no bit of the trajectory, under both
// schedules and through injected-overflow rollbacks; the checkpoint bytes
// are the DRAM trainer's.
func TestNVMeStoreSTVMatchesDRAMBitExact(t *testing.T) {
	for _, mode := range []stv.Mode{stv.STV, stv.STE} {
		sameAsDRAM(t, tinyGPT, overflowConfig(mode), withStore(nvmeTestStore(t, 2)), 25)
	}
}

// TestNVMeStoreClipRollbackExact drives the clip re-execution on windowed
// state: the snapshots the rollback restores have been evicted to the
// file and fetched back.
func TestNVMeStoreClipRollbackExact(t *testing.T) {
	if run := sameAsDRAM(t, tinyGPT, clipConfig, withStore(nvmeTestStore(t, 2)), 30); run.stats.ClipRolls < 20 {
		t.Fatalf("tight clip produced only %d rollbacks; window untested", run.stats.ClipRolls)
	}
}

// TestCheckpointBytesIdenticalAcrossStores: the serialized checkpoint is
// byte-identical whichever store produced it.
func TestCheckpointBytesIdenticalAcrossStores(t *testing.T) {
	sameAsDRAM(t, tinyGPT, overflowConfig(stv.STV), withStore(nvmeTestStore(t, 2)), 10)
}

// resumesAcross is the cross-backend checkpoint property: a checkpoint
// written over src — mid-schedule, right after a rollback — loads into a
// differently initialized trainer over dst, and both resume on the same
// trajectory.
func resumesAcross(t *testing.T, src, dst stv.BucketStore) {
	t.Helper()
	const warm, cont = 9, 8
	mk := func(seed uint64, store stv.BucketStore) *engine {
		cfg := overflowConfig(stv.STV)()
		cfg.Schedule = stv.WarmupCosine(5, warm+cont, 0.1)
		// The overflow on the warm-up's last step makes the saved state a
		// post-rollback one (the skip resolves at Flush, just before Save).
		cfg.InjectBad = func(step int) bool { return step == warm }
		cfg.Store = store
		tr := newEngine(tinyGPT(seed), cfg)
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	steps := func(tr *engine, corpus *data.Corpus, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	from, into := mk(42, src), mk(999, dst)
	steps(from, data.NewCorpus(64, 77), warm)
	if from.Stats().SkipRolls != 1 {
		t.Fatalf("expected the injected overflow to roll back before Save, got %+v", from.Stats())
	}
	var ckpt bytes.Buffer
	if err := from.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := into.Load(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(from.MasterWeights(), into.MasterWeights()) {
		t.Fatal("restored masters differ")
	}
	steps(from, data.NewCorpus(64, 88), cont)
	steps(into, data.NewCorpus(64, 88), cont)
	if !slices.Equal(from.MasterWeights(), into.MasterWeights()) || from.StepIndex() != into.StepIndex() {
		t.Fatalf("resumed runs diverge (step indices %d, %d)", from.StepIndex(), into.StepIndex())
	}
}

// testStores builds the stores the checkpoint-portability tests move
// between, by name.
var testStores = map[string]func(t *testing.T) stv.BucketStore{
	"dram":      func(*testing.T) stv.BucketStore { return nil },
	"nvme":      func(t *testing.T) stv.BucketStore { return nvmeTestStore(t, 2) },
	"mlp":       func(t *testing.T) stv.BucketStore { return mlpTestStore(t, 2, 0) },
	"mlp+cache": func(t *testing.T) stv.BucketStore { return mlpTestStore(t, 3, 2) },
}

// resumesAcrossEach runs resumesAcross once per "src->dst" store pair.
func resumesAcrossEach(t *testing.T, pairs ...[2]string) {
	for _, c := range pairs {
		t.Run(c[0]+"->"+c[1], func(t *testing.T) { resumesAcross(t, testStores[c[0]](t), testStores[c[1]](t)) })
	}
}

// TestCheckpointPortableAcrossStores: checkpoints move between the DRAM
// and NVMe stores in both directions.
func TestCheckpointPortableAcrossStores(t *testing.T) {
	resumesAcrossEach(t, [2]string{"dram", "nvme"}, [2]string{"nvme", "dram"}, [2]string{"nvme", "nvme"})
}

// TestNVMeWindowStaysBounded: residency never exceeds the configured
// window, and buckets genuinely round-trip through the file (reads and
// write-behind flushes both happen).
func TestNVMeWindowStaysBounded(t *testing.T) {
	cfg := nvmeTrainerConfig(t, stv.STV)
	store := cfg.Store.(*stv.NVMeStore)
	tr := newEngine(tinyGPT(3), cfg)
	if tr.NumBuckets() <= 2 {
		t.Fatalf("model must split into more buckets (%d) than the window (2)", tr.NumBuckets())
	}
	corpus := data.NewCorpus(64, 5)
	for i := 0; i < 10; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
		stv.CheckResidency(t, store.MLPStore, -1)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tel := store.Telemetry()
	if tel.Reads == 0 || tel.Writes == 0 {
		t.Fatalf("state never streamed through the file: %+v", tel)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and removes the backing file.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNVMeOverlapModel: the modeled pipelined step time must beat the
// serialized fetch+step+flush time (the double-buffered prefetch hides
// compute behind the device), and the accounting identities must hold.
func TestNVMeOverlapModel(t *testing.T) {
	cfg := trainerConfig(stv.STV)
	cfg.BucketElems = 4000
	store, err := stv.NewNVMeStore(stv.NVMeStoreConfig{
		Dir:             t.TempDir(),
		ResidentBuckets: 2,
		// Compute comparable to the transfer time makes the overlap
		// pronounced (a host-class core, not the Grace model).
		ComputeTime: func(elems int) float64 { return float64(elems) * 16 / 1e9 },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	tr := newEngine(tinyGPT(3), cfg)
	defer tr.Close()
	corpus := data.NewCorpus(64, 5)
	before := store.Telemetry()
	for i := 0; i < 8; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tel := store.Telemetry().Sub(before)
	if tel.ComputeSeconds <= 0 || tel.ReadSeconds <= 0 || tel.WriteSeconds <= 0 {
		t.Fatalf("degenerate telemetry: %+v", tel)
	}
	if got, want := tel.PipelinedSeconds(), tel.ComputeSeconds+tel.StallSeconds; got != want {
		t.Errorf("pipelined identity broken: %v != %v", got, want)
	}
	if tel.PipelinedSeconds() >= tel.SerializedSeconds() {
		t.Errorf("no overlap: pipelined %.6fs >= serialized %.6fs",
			tel.PipelinedSeconds(), tel.SerializedSeconds())
	}
	// With balanced compute the prefetch should hide a substantial
	// fraction, not a rounding error.
	if saved := 1 - tel.PipelinedSeconds()/tel.SerializedSeconds(); saved < 0.10 {
		t.Errorf("overlap hides only %.1f%% of serialized time", 100*saved)
	}
}

// TestNVMeAccumAndStressSchedules runs the gradient-accumulation path and
// the mixed Step/StepAccum/Save interleavings over the NVMe store (the
// -race harness for the IO worker).
func TestNVMeAccumAndStressSchedules(t *testing.T) {
	cfg := nvmeTrainerConfig(t, stv.STV)
	cfg.ClipNorm = 0.4
	cfg.Scaler = optim.NewLossScaler()
	cfg.InjectBad = func(step int) bool { return step%11 == 7 }
	tr := newEngine(tinyGPT(13), cfg)
	defer tr.Close()
	corpus := data.NewCorpus(64, 29)
	var ckpt bytes.Buffer
	for i := 0; i < 36; i++ {
		switch i % 6 {
		case 0, 1, 2, 3:
			if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
		case 4:
			w := []data.Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)}
			if _, err := tr.StepAccum(w); err != nil {
				t.Fatal(err)
			}
		case 5:
			if _, err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			ckpt.Reset()
			if err := tr.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Rollbacks() == 0 {
		t.Error("stress run produced no rollbacks")
	}
}

// TestBucketTensorsArePublishedMasters: a bucket's model tensors are its
// current masters rounded through fp16 — Uncast(Cast(master)), bit for
// bit — after a commit, a Skip, a Clip and a Load, on DRAM and on a
// flash store whose 2-bucket window evicts most of the 5 buckets between
// the verdict and the check.
func TestBucketTensorsArePublishedMasters(t *testing.T) {
	for _, name := range []string{"dram", "flash"} {
		t.Run(name, func(t *testing.T) {
			var store stv.BucketStore = stv.NewDRAMStore()
			if name == "flash" {
				store = mlpTestStore(t, 1, 0)
			}
			defer store.Close()
			var bks []*stv.Bucket
			var groups []nn.Params
			for i := range 5 {
				var group nn.Params
				for _, n := range []int{70, 130} {
					w := tensor.New(n)
					for j := range w.Data {
						w.Data[j] = float32(i+1) * (float32(j)/7 - 9) / 3
					}
					group = append(group, &nn.Param{Name: "p", W: w, G: tensor.New(n)})
				}
				bks = append(bks, stv.NewBucket(group, store, i))
				groups = append(groups, group)
			}
			cfg := optim.DefaultConfig()
			published := func(what string) {
				t.Helper()
				for i, bk := range bks {
					want := fp16.Uncast(nil, fp16.Cast(nil, bk.AppendMaster(nil)))
					var got []float32
					for _, p := range groups[i] {
						got = append(got, p.W.Data...)
					}
					if !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
						t.Fatalf("after %s: bucket %d's tensors are not its masters rounded through fp16", what, i)
					}
				}
			}
			verdict := func(r stv.Resolution) {
				for _, bk := range bks {
					g := bk.Grad()
					for j := range g {
						g[j] = 0.01 * float32(j%7-3)
					}
					bk.SpeculativeStep(cfg, 1)
				}
				for _, bk := range bks {
					bk.Apply(r)
				}
			}
			verdict(stv.Resolution{Action: stv.Commit})
			published("a commit")
			var ckpt bytes.Buffer
			if err := (&stv.Verdict{}).Save(&ckpt, bks); err != nil {
				t.Fatal(err)
			}
			verdict(stv.Resolution{Action: stv.Skip})
			published("a Skip")
			verdict(stv.Resolution{Action: stv.Clip, ClipScale: 0.5, Adam: cfg})
			published("a Clip")
			if err := (&stv.Verdict{}).Load(&ckpt, bks); err != nil {
				t.Fatal(err)
			}
			published("a Load")
		})
	}
}
