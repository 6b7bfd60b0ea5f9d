package superoffload

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/stv/stvtest"
)

func TestFig1Facade(t *testing.T) {
	// The paper's Fig. 1: enable SuperOffload with a few lines.
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Init(m, DefaultOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(64, 2)
	var first, last float64
	const steps = 100
	for i := 0; i < steps; i++ {
		loss, err := eng.Step(corpus.NextBatch(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(last) || last > first {
		t.Errorf("training did not progress: %.3f -> %.3f", first, last)
	}
	st := eng.Stats()
	if st.Steps != steps {
		t.Errorf("steps = %d, want %d", st.Steps, steps)
	}
	if eng.NumBuckets() < 1 {
		t.Error("no buckets")
	}
}

// TestOffloadFacade: the nvme backend trains bit-identically to dram
// through the public surface, reports telemetry, and rejects unknown
// backends — on both engines.
func TestOffloadFacade(t *testing.T) {
	train := func(backend string, ranks int) ([]float64, StoreTelemetry, bool) {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultOptimizer()
		cfg.BucketElems = 4000
		cfg.Offload = OffloadConfig{Backend: backend, Dir: t.TempDir(), ResidentBuckets: 2}
		corpus := NewCorpus(64, 2)
		var losses []float64
		step := func(e interface {
			Step(Batch) (float64, error)
			Flush() error
		}) {
			for i := 0; i < 8; i++ {
				l, err := e.Step(corpus.NextBatch(2, 8))
				if err != nil {
					t.Fatal(err)
				}
				losses = append(losses, l)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if ranks > 1 {
			e, err := InitDP(m, cfg, DPConfig{Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			step(e)
			tel, ok := e.StoreTelemetry()
			return losses, tel, ok
		}
		e, err := Init(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		step(e)
		tel, ok := e.StoreTelemetry()
		return losses, tel, ok
	}
	dram, _, dramOK := train("dram", 1)
	nvme, tel, nvmeOK := train("nvme", 1)
	if dramOK {
		t.Error("dram backend reported NVMe telemetry")
	}
	if !nvmeOK || tel.Reads == 0 || tel.Writes == 0 {
		t.Errorf("nvme backend telemetry missing or idle: ok=%v %+v", nvmeOK, tel)
	}
	for i := range dram {
		if dram[i] != nvme[i] {
			t.Fatalf("losses diverge at step %d: %v vs %v", i, dram[i], nvme[i])
		}
	}
	if _, _, ok := train("nvme", 2); !ok {
		t.Error("DP engine on nvme backend reported no telemetry")
	}

	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 16, Vocab: 32, MaxSeq: 8}, 1)
	bad := DefaultOptimizer()
	bad.Offload.Backend = "tape"
	if _, err := Init(m, bad); err == nil {
		t.Error("unknown offload backend accepted by Init")
	}
	if _, err := InitDP(m, bad, DPConfig{Ranks: 2}); err == nil {
		t.Error("unknown offload backend accepted by InitDP")
	}
}

// TestClosedEngineRefusesWork: after Close, the single-rank engine's
// Step, StepAccum, Flush, Save and Load each return an error on either
// offload backend — the nvme one used to panic in its store, the dram
// one to keep training — and Close stays idempotent.
func TestClosedEngineRefusesWork(t *testing.T) {
	for _, backend := range []string{"dram", "nvme"} {
		t.Run(backend, func(t *testing.T) {
			cfg := DefaultOptimizer()
			cfg.BucketElems = 4000
			cfg.Offload = OffloadConfig{Backend: backend, Dir: t.TempDir()}
			eng, err := Init(presetModel(t, 1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			corpus := NewCorpus(64, 2)
			if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := eng.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if err := eng.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
			_, stepErr := eng.Step(corpus.NextBatch(2, 8))
			_, accumErr := eng.StepAccum([]Batch{corpus.NextBatch(2, 8)})
			for what, err := range map[string]error{
				"Step": stepErr, "StepAccum": accumErr, "Flush": eng.Flush(),
				"Save": eng.Save(&bytes.Buffer{}), "Load": eng.Load(bytes.NewReader(ckpt.Bytes())),
			} {
				if err == nil {
					t.Errorf("%s after Close accepted", what)
				}
			}
		})
	}
}

// TestInitClosesBucketStoreWhenActivationStoreFails: an activation tier
// that cannot open its backing file fails Init after the bucket store is
// already up; the error must not strand the store's lane goroutines or
// its backing files, on either engine.
func TestInitClosesBucketStoreWhenActivationStoreFails(t *testing.T) {
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(OptimizerConfig) (*Engine, error){
		"Init":   func(cfg OptimizerConfig) (*Engine, error) { return Init(m, cfg) },
		"InitDP": func(cfg OptimizerConfig) (*Engine, error) { return InitDP(m, cfg, DPConfig{Ranks: 2}) },
	} {
		dir := t.TempDir()
		cfg := DefaultOptimizer()
		cfg.Offload = OffloadConfig{Backend: "nvme", Dir: dir, IOPaths: 2}
		cfg.Activation = ActivationConfig{Offload: "nvme", Dir: filepath.Join(dir, "nonexistent")}
		before := runtime.NumGoroutine()
		if _, err := build(cfg); err == nil {
			t.Fatalf("%s: activation store opened in a directory that does not exist", name)
		}
		stvtest.NoLeakedGoroutines(t, before)
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Errorf("%s: %d backing files left behind (%v)", name, len(left), err)
		}
	}
}

// TestActivationFacade: a step shape that overflows the modeled HBM
// budget is rejected up front with a hint, and the same shape trains
// successfully — with spill telemetry — once activation offloading is
// enabled, on every engine.
func TestActivationFacade(t *testing.T) {
	const (
		layers, hidden, heads = 6, 32, 2
		rows, seq             = 2, 16
	)
	newM := func() *Model {
		m, err := NewModel(ModelConfig{Layers: layers, Hidden: hidden, Heads: heads, Vocab: 64, MaxSeq: 2 * seq}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// A budget that holds the replica plus three resident layers — too
	// small for all six, comfortable for the offloaded window of two.
	m := newM()
	budget := 4*int64(m.NumParams()) + 3*hw.ActLayerBytes(rows*seq, hidden, heads, seq)

	corpus := NewCorpus(64, 3)
	batch := func() Batch { return corpus.NextBatch(rows, seq) }

	t.Run("overflow-rejected", func(t *testing.T) {
		cfg := DefaultOptimizer()
		cfg.Activation.HBMBudgetBytes = budget
		eng, err := Init(newM(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		_, err = eng.Step(batch())
		if err == nil {
			t.Fatal("overflowing shape trained without activation offload")
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Batch.BatchSize" || !strings.Contains(ce.Want, "OptimizerConfig.Activation.Offload") {
			t.Errorf("guard error is not a *ConfigError naming Batch.BatchSize and hinting at offloading: %v", err)
		}
	})

	for _, b := range [][2]string{{"single", "init"}, {"dp-r2", "dp"}, {"sp-s2", "sp"}, {"mesh-2x2", "mesh"}} {
		t.Run("offloaded-"+b[0], func(t *testing.T) {
			cfg := DefaultOptimizer()
			cfg.Activation = ActivationConfig{
				Offload: "dram", ResidentLayers: 2, HBMBudgetBytes: budget,
			}
			p := presets[b[1]]
			eng, err := p.build(newM(), cfg, p.shape)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// Per-rank tokens shrink under DP/SP, so scale the batch up to
			// keep the per-rank shape identical to the single-rank case.
			for i := 0; i < 4; i++ {
				if _, err := eng.Step(corpus.NextBatch(rows*p.shape.Ranks, seq*p.shape.SeqRanks)); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			tel, ok := eng.ActTelemetry()
			if !ok || tel.Spills == 0 || tel.Fetches == 0 {
				t.Errorf("activation telemetry missing or idle: ok=%v %+v", ok, tel)
			}
		})
	}

	t.Run("unknown-tier", func(t *testing.T) {
		cfg := DefaultOptimizer()
		cfg.Activation.Offload = "tape"
		if _, err := Init(newM(), cfg); err == nil {
			t.Error("unknown activation tier accepted by Init")
		}
		if _, err := InitDP(newM(), cfg, DPConfig{Ranks: 2}); err == nil {
			t.Error("unknown activation tier accepted by InitDP")
		}
	})
}

// TestNewModelValidation: a config with its defaults left at 0 builds a
// model of plausible size, and configRejections' model rows are refused.
func TestNewModelValidation(t *testing.T) {
	rejects(t, "model")
	m, err := NewModel(ModelConfig{Layers: 1, Hidden: 64, Vocab: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() < 1000 {
		t.Error("param count implausible")
	}
}

func TestSynchronousFallback(t *testing.T) {
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 32, MaxSeq: 8}, 3)
	cfg := DefaultOptimizer()
	cfg.Synchronous = true
	eng, err := Init(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(32, 4)
	if _, err := eng.Step(corpus.NextBatch(1, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHeadline(t *testing.T) {
	r, err := Plan(PlanRequest{Model: "5B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fits {
		t.Fatalf("5B must fit: %s", r.OOMReason)
	}
	if r.TFLOPS < 200 {
		t.Errorf("5B single-chip = %.1f TFLOPS, expected ≈239", r.TFLOPS)
	}
	if r.MicroBatch < 1 || r.IterSeconds <= 0 {
		t.Errorf("plan fields: %+v", r)
	}
	if _, err := Plan(PlanRequest{Model: "9999B"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestPlanDefaults(t *testing.T) {
	r, err := Plan(PlanRequest{Model: "5B"}) // chips/batch/seq defaulted
	if err != nil || !r.Fits {
		t.Fatalf("defaulted plan failed: %v %v", r, err)
	}
}

func TestCompareIncludesAllSystems(t *testing.T) {
	rs, err := Compare(PlanRequest{Model: "5B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("expected 8 systems, got %d", len(rs))
	}
	if rs[0].System != "SuperOffload" {
		t.Errorf("first system = %s", rs[0].System)
	}
	// SuperOffload beats every fitting baseline on this workload.
	for _, r := range rs[1:] {
		if r.Fits && r.TFLOPS >= rs[0].TFLOPS {
			t.Errorf("%s (%.0f) ≥ SuperOffload (%.0f)", r.System, r.TFLOPS, rs[0].TFLOPS)
		}
	}
}

func TestModelNamesAndExperiments(t *testing.T) {
	names := ModelNames()
	if len(names) < 20 {
		t.Errorf("model zoo too small: %d", len(names))
	}
	exps := ExperimentNames()
	if len(exps) != 24 {
		t.Errorf("experiment registry has %d entries, want 24", len(exps))
	}
	out, err := RunExperiment("table1")
	if err != nil || !strings.Contains(out, "GH200") {
		t.Errorf("table1: %v\n%s", err, out)
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDescribeDecisions(t *testing.T) {
	// Weight-stationary at moderate scale...
	d, err := Describe(PlanRequest{Model: "5B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if d.Policy != "weight-stationary" {
		t.Errorf("5B policy = %s", d.Policy)
	}
	if d.CastPath != "Cast_gpu↔Move_fp32" {
		t.Errorf("cast path = %s", d.CastPath)
	}
	if d.BucketMB != 64 {
		t.Errorf("bucket = %d MB, want 64", d.BucketMB)
	}
	// ...weight-flow when the states outgrow HBM.
	d25, err := Describe(PlanRequest{Model: "25B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if d25.Policy != "weight-flow" {
		t.Errorf("25B policy = %s", d25.Policy)
	}
	if d25.Efficiency <= 0.6 {
		t.Errorf("25B streaming efficiency = %.2f, should clear the 60%% bar", d25.Efficiency)
	}
	if _, err := Describe(PlanRequest{Model: "50B", Chips: 1}); err == nil {
		t.Error("50B on one chip should not be plannable")
	}
}

func TestEngineAccumScheduleCheckpoint(t *testing.T) {
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 64, MaxSeq: 8}, 4)
	cfg := DefaultOptimizer()
	cfg.ClipNorm = 5
	cfg.WarmupSteps = 5
	cfg.TotalSteps = 50
	cfg.MinLRFrac = 0.1
	eng, err := Init(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(64, 8)
	for i := 0; i < 10; i++ {
		if _, err := eng.StepAccum([]Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 64, MaxSeq: 8}, 999)
	eng2, _ := Init(m2, cfg)
	if err := eng2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	l1, err := eng.Step(NewCorpus(64, 55).NextBatch(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := eng2.Step(NewCorpus(64, 55).NextBatch(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatalf("restored engine diverges: %v vs %v", l1, l2)
	}
}

// presets are the facade's shape presets and the shape each builds.
var presets = map[string]struct {
	build func(*Model, OptimizerConfig, MeshConfig) (*Engine, error)
	shape MeshConfig
}{
	"init": {func(m *Model, cfg OptimizerConfig, _ MeshConfig) (*Engine, error) { return Init(m, cfg) },
		MeshConfig{Ranks: 1, SeqRanks: 1, PipeRanks: 1}},
	"dp": {func(m *Model, cfg OptimizerConfig, mc MeshConfig) (*Engine, error) {
		return InitDP(m, cfg, DPConfig{Ranks: mc.Ranks})
	}, MeshConfig{Ranks: 2, SeqRanks: 1, PipeRanks: 1}},
	"sp": {func(m *Model, cfg OptimizerConfig, mc MeshConfig) (*Engine, error) {
		return InitMesh(m, cfg, MeshConfig{SeqRanks: mc.SeqRanks})
	}, MeshConfig{Ranks: 1, SeqRanks: 2, PipeRanks: 1}},
	"mesh":                 {InitMesh, MeshConfig{Ranks: 2, SeqRanks: 2, PipeRanks: 1}},
	"pipe":                 {InitPipe, MeshConfig{Ranks: 2, SeqRanks: 1, PipeRanks: 2}},
	"mesh-with-pipe-ranks": {InitMesh, MeshConfig{Ranks: 2, SeqRanks: 1, PipeRanks: 2}},
}

func presetModel(t *testing.T, seed uint64) *Model {
	t.Helper()
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matchesInit trains preset name and Init from the same model on the same
// batches — Init accumulating the preset's R-way row decomposition — and
// requires the shape the preset names, link traffic on exactly its
// parallel axes, the same losses and Stats, and a checkpoint that
// round-trips through Init byte for byte. It returns the preset's Stats.
func matchesInit(t *testing.T, name string, cfg OptimizerConfig, steps int) Stats {
	t.Helper()
	p := presets[name]
	eng, err := p.build(presetModel(t, 42), cfg, p.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	single, err := Init(presetModel(t, 42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if got := (MeshConfig{eng.Ranks(), eng.SeqRanks(), eng.PipeRanks()}); got != p.shape || eng.NumBuckets() != single.NumBuckets() {
		t.Fatalf("built %+v with %d buckets, want %+v with %d", got, eng.NumBuckets(), p.shape, single.NumBuckets())
	}
	r := eng.Ranks()
	corpus, refCorpus := NewCorpus(64, 123), NewCorpus(64, 123)
	for i := 0; i < steps; i++ {
		l, err := eng.Step(corpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		sl, err := single.StepAccum(rowParts(refCorpus.NextBatch(4, 8), r))
		if err != nil {
			t.Fatal(err)
		}
		if l != sl {
			t.Fatalf("step %d: %s loss %v, Init %v", i, name, l, sl)
		}
	}
	for _, e := range []*Engine{eng, single} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats() != single.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", eng.Stats(), single.Stats())
	}
	if cs := eng.CommStats(); (cs.A2APayloads > 0) != (p.shape.SeqRanks > 1) || (cs.StageSends > 0) != (p.shape.PipeRanks > 1) {
		t.Errorf("link traffic %+v for shape %+v", cs, p.shape)
	}
	var buf, back bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Init(presetModel(t, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := restored.Save(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), back.Bytes()) {
		t.Errorf("%s checkpoint does not round-trip through Init", name)
	}
	return eng.Stats()
}

// facadeMatchesInit is the multi-bucket run of matchesInit: 8 steps under
// a clip that rolls back.
func facadeMatchesInit(t *testing.T, name string) {
	cfg := DefaultOptimizer()
	cfg.LR = 3e-3
	cfg.ClipNorm = 1.0
	cfg.BucketElems = 20000
	if st := matchesInit(t, name, cfg, 8); st.Rollbacks() == 0 {
		t.Error("facade equivalence run triggered no rollbacks")
	}
}

func TestInitDPFacade(t *testing.T)   { facadeMatchesInit(t, "dp") }
func TestInitSPFacade(t *testing.T)   { facadeMatchesInit(t, "sp") }
func TestInitMeshFacade(t *testing.T) { facadeMatchesInit(t, "mesh") }

// TestStepRejectsMalformedBatchOnEveryPreset: a batch the model cannot
// take — sequence past MaxSeq, token/target slices shorter than
// BatchSize×Seq, no rows, rows not divisible by R, a sequence not
// divisible by S — comes back from Step/StepAccum as an error on every
// shape preset, the single-rank one (which used to panic in nn and
// tensor) and the data-parallel one (which used to panic inside a rank
// goroutine) included, and leaves the engine usable. Each preset also
// builds the shape it names and matches Init over a few steps.
// MeshConfig.PipeRanks is honoured by InitMesh itself.
func TestStepRejectsMalformedBatchOnEveryPreset(t *testing.T) {
	for name, p := range presets {
		t.Run(name, func(t *testing.T) {
			eng, err := p.build(presetModel(t, 1), DefaultOptimizer(), p.shape)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			corpus := NewCorpus(64, 2)
			if _, err := eng.Step(corpus.NextBatch(2, 32)); err == nil {
				t.Error("sequence exceeding MaxSeq accepted")
			}
			short := corpus.NextBatch(2, 8)
			short.Targets = short.Targets[:len(short.Targets)-1]
			if _, err := eng.Step(short); err == nil {
				t.Error("batch with too few targets accepted")
			}
			if _, err := eng.StepAccum([]Batch{corpus.NextBatch(2, 8), short}); err == nil {
				t.Error("accumulation window with a malformed batch accepted")
			}
			if _, err := eng.Step(Batch{Seq: 8}); err == nil {
				t.Error("batch with no rows accepted")
			}
			if _, err := eng.Step(corpus.NextBatch(3, 8)); (err == nil) != (eng.Ranks() == 1) {
				t.Errorf("3 rows on %d data-parallel groups: %v", eng.Ranks(), err)
			}
			if _, err := eng.Step(corpus.NextBatch(2, 7)); (err == nil) != (eng.SeqRanks() == 1) {
				t.Errorf("sequence 7 on %d sequence ranks: %v", eng.SeqRanks(), err)
			}
			if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Errorf("engine unusable after rejected batches: %v", err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			matchesInit(t, name, DefaultOptimizer(), 3)
		})
	}
}

// TestStepRejectsOutOfVocabBatch: a token or target outside [0, Vocab),
// negative or past the end, comes back from Step as an error naming it on
// the single-rank trainer (which used to panic in the caller) and on a
// 2-rank engine (which used to panic inside a rank goroutine and kill the
// process), and leaves the engine usable.
func TestStepRejectsOutOfVocabBatch(t *testing.T) {
	for _, name := range []string{"init", "dp"} {
		t.Run(name, func(t *testing.T) {
			p := presets[name]
			eng, err := p.build(presetModel(t, 1), DefaultOptimizer(), p.shape)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			corpus := NewCorpus(64, 2)
			for _, bad := range []struct {
				targets bool
				id      int
			}{{false, -1}, {false, 64}, {true, -1}, {true, 64}} {
				b := corpus.NextBatch(2, 8)
				ids := b.Tokens
				if bad.targets {
					ids = b.Targets
				}
				ids[11] = bad.id
				_, err := eng.Step(b)
				if err == nil || !strings.Contains(err.Error(), "at index 11") {
					t.Errorf("id %d at index 11 (targets %v): got %v, want an error naming it", bad.id, bad.targets, err)
				}
			}
			if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Errorf("engine unusable after rejected batches: %v", err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlacementFacade asserts the end-to-end placement contract through
// the public surface, across all four engines at the acceptance shapes
// (single rank, R=2, S=2, R×S=2×2): every placement mode — all-GPU,
// all-CPU, auto — trains bit-identically to the homogeneous engine,
// reports virtual-clock telemetry, and the auto split composes with the
// nvme backend into a three-tier plan.
func TestPlacementFacade(t *testing.T) {
	const steps = 10
	type result struct {
		losses []float64
		stats  Stats
		tel    PlacementTelemetry
		hasTel bool
	}
	train := func(t *testing.T, engineKind string, pc PlacementConfig, backend string) result {
		t.Helper()
		cfg := DefaultOptimizer()
		cfg.BucketElems = 4000
		cfg.Placement = pc
		if backend != "" {
			cfg.Offload = OffloadConfig{Backend: backend, Dir: t.TempDir()}
		}
		p := presets[engineKind]
		if engineKind == "single" {
			p = presets["init"]
		}
		eng, err := p.build(presetModel(t, 1), cfg, p.shape)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if cerr := eng.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}()
		corpus := NewCorpus(64, 2)
		var r result
		for i := 0; i < steps; i++ {
			loss, err := eng.Step(corpus.NextBatch(4, 16))
			if err != nil {
				t.Fatal(err)
			}
			r.losses = append(r.losses, loss)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		r.stats = eng.Stats()
		r.tel, r.hasTel = eng.PlacementTelemetry()
		return r
	}

	for _, kind := range []string{"single", "dp", "sp", "mesh"} {
		t.Run(kind, func(t *testing.T) {
			ref := train(t, kind, PlacementConfig{}, "")
			if ref.hasTel {
				t.Fatal("homogeneous engine reported placement telemetry")
			}
			for _, mode := range []string{"cpu", "gpu", "auto"} {
				got := train(t, kind, PlacementConfig{Mode: mode, Batch: 4, Seq: 16}, "")
				if !got.hasTel || got.tel.Steps != steps {
					t.Fatalf("%s: telemetry missing or short: %+v", mode, got.tel)
				}
				if got.tel.PipelinedSeconds <= 0 || got.tel.PipelinedSeconds > got.tel.SerializedSeconds {
					t.Fatalf("%s: bad modeled times %+v", mode, got.tel)
				}
				for i := range ref.losses {
					if got.losses[i] != ref.losses[i] {
						t.Fatalf("%s: loss diverged at step %d: %v vs %v", mode, i, got.losses[i], ref.losses[i])
					}
				}
				if got.stats != ref.stats {
					t.Fatalf("%s: stats diverged: %+v vs %+v", mode, got.stats, ref.stats)
				}
			}
		})
	}

	// auto + nvme composes into a three-tier plan: the offloaded body
	// spills through the placed store, still bit-identical.
	ref := train(t, "single", PlacementConfig{}, "")
	mixed := train(t, "single", PlacementConfig{Mode: "auto", GPUBuckets: 2, Batch: 4, Seq: 16}, "nvme")
	for i := range ref.losses {
		if mixed.losses[i] != ref.losses[i] {
			t.Fatalf("nvme-bodied placement diverged at step %d", i)
		}
	}
	if mixed.tel.Tiers[2].Buckets == 0 {
		t.Fatalf("nvme backend left no buckets on the flash tier: %+v", mixed.tel.Tiers)
	}
	if mixed.tel.Tiers[0].Buckets != 2 {
		t.Fatalf("pinned tail not honored: %+v", mixed.tel.Tiers)
	}

	// Unknown placement modes are rejected by every constructor.
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptimizer()
	bad.Placement = PlacementConfig{Mode: "hbm"}
	if _, err := Init(m, bad); err == nil {
		t.Fatal("unknown placement mode accepted by Init")
	}
	if _, err := InitDP(m, bad, DPConfig{Ranks: 2}); err == nil {
		t.Fatal("unknown placement mode accepted by InitDP")
	}
}

// TestDescribePlacementFacade pins the superplan -emit-placement path:
// the 5B plan retains a GPU tail and renders usable supertrain flags.
func TestDescribePlacementFacade(t *testing.T) {
	p, err := DescribePlacement(PlanRequest{Model: "5B", Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.GPUBuckets < 1 || p.GPUBuckets > p.NBuckets {
		t.Fatalf("placement %+v out of bounds", p)
	}
	want := fmt.Sprintf("-placement auto -gpu-buckets %d", p.GPUBuckets)
	if p.Flags != want {
		t.Fatalf("flags = %q, want %q", p.Flags, want)
	}
	if p.Plan == "" {
		t.Fatal("empty plan census")
	}
	if _, err := DescribePlacement(PlanRequest{Model: "no-such"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
